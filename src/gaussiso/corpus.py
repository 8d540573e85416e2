"""Random and structured set corpora for the verification suites.

The mixed corpus combines generic random interval unions with the named
near-extremal families: the symmetric two-ray sets across a grid of mass
levels, centered balls in dimensions 2-10 with mass-targeted radii, and
slabs carrying random one-dimensional profiles.

The corpus is drawn into one ``sets._Batch``: flat endpoints, per-member
component counts, per-interval masses, a family tag and the balls' ``(dim,
radius)``, with no set object per member or per rejected candidate.  A
draw's mass-window test adds its ``_interval_mass`` values left to right
from 0.0, the sum that ``measure`` takes, and the batch keeps those masses.
``verify`` reads the batch as it is; :func:`mixed_corpus` and
:func:`random_interval_union` wrap the same batch into set objects, so there
is one draw loop.  ``_sizes`` holds the composition, and ``_high_dim_rows``
draws the balls and slabs, the rows of dimension above 1, for
``_mixed_batch`` and, without the rest of the corpus, for ``verify``'s Monte
Carlo members.

Seeding.  Random member ``i`` of stream ``t`` (0 for the interval unions, 2
for the slab profiles) under corpus seed ``seed`` takes the child seed
``SeedSequence([seed, t, i]).generate_state(1)[0]`` and is drawn as
``default_rng(SeedSequence([child]))`` draws.  No NumPy object is built per
member: ``_child_seeds`` runs SeedSequence's mixing hash on ``uint32`` columns
for every index at once, the same hash with eight output words gives each
child's ``generate_state(4, uint64)``, and ``_pcg64_limbs`` runs PCG64's
seeding routine on those words as ``uint64`` limbs.  :class:`_Streams` then
steps every member's 128-bit LCG, takes the XSL-RR output and decodes the
words as ``Generator`` does: ``integers`` by Lemire's method on the bit
generator's buffered 32-bit halves, ``normal`` by the 256-layer ziggurat
with NumPy's tables (``_ziggurat``), and ``random`` from a word's top 53
bits.  The corpus is therefore bit for bit the one the per-member NumPy
objects give.  NumPy's compatibility policy (NEP 19) fixes the SeedSequence
hash and the PCG64 stream, but not the algorithms of ``Generator.normal``
and ``Generator.integers``; those are copied from NumPy 2.4.6, and
``tests/test_corpus.py::TestStreams`` compares them with the installed
``Generator``, so a change there fails that test instead of moving the
corpus.  The balls' stream is a plain ``default_rng([seed, 1])``, as is every
other single stream in the package, ``verify``'s one Monte Carlo sample
(``default_rng([seed, 17])``) included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _ziggurat
from .sets import (
    _BALL,
    _LINE,
    _SLAB,
    GaussianSet,
    IntervalUnion1D,
    _Batch,
    _interval_masses,
    _line_rows,
    _members,
    _row_sums,
    _two_ray_endpoints,
)
from .special import (
    _check_integer,
    _chi2_quantile_many,
    _elementwise,
    _gauss_weight_many,
)

__all__ = [
    "ENDPOINT_CLIP",
    "MIN_SEPARATION",
    "MASS_WINDOW",
    "RandomSetSpec",
    "random_interval_union",
    "mixed_corpus",
]

#: Finite endpoints of random draws are clipped to this symmetric range.
ENDPOINT_CLIP = 5.0

#: Minimum spacing between consecutive drawn endpoints; draws below it are
#: regenerated, keeping every configuration far from the set-merge tolerance.
MIN_SEPARATION = 1e-3

#: Accepted open range for the Gaussian measure of a random draw.
MASS_WINDOW = (0.01, 0.99)

_MAX_RETRIES = 100

#: Standard deviation of the Gaussian endpoint draws.
_ENDPOINT_SCALE = 2.0

#: Stream tags namespacing the per-purpose child seeds of a corpus seed, ``verify``'s slab profiles and Monte Carlo sample last.
_STREAM_RANDOM = 0
_STREAM_BALL = 1
_STREAM_SLAB = 2
_STREAM_MC_SLAB_PROFILE = 13
_STREAM_MC = 17


@dataclass(frozen=True)
class RandomSetSpec:
    """Configuration of one random interval-union draw."""

    k_range: tuple[int, int]
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = (_check_integer(k, "component range: each end") for k in self.k_range)
        if not 1 <= lo <= hi <= 6:
            raise ValueError(f"component range must satisfy 1 <= min <= max <= 6, got {self.k_range!r}")
        object.__setattr__(self, "k_range", (lo, hi))
        _check_integer(self.seed, "seed", 0)


# ---------------------------------------------------------------------------
# NumPy's SeedSequence and PCG64 seeding, computed for many seeds at once
# (SeedSequence's Cython source in numpy/random and the PCG64 C seeding routine)

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# uint64 shifts, masks and the halves of the PCG64 multiplier
_1 = np.uint64(1)
_8 = np.uint64(8)
_11 = np.uint64(11)
_32 = np.uint64(32)
_58 = np.uint64(58)
_63 = np.uint64(63)
_64 = np.uint64(64)
_LOW8 = np.uint64(0xFF)
_LOW32 = np.uint64(_MASK32)
_LOW52 = np.uint64((1 << 52) - 1)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & ((1 << 64) - 1))
_MULT_LO_HI = np.uint64((_PCG64_MULT >> 32) & _MASK32)
_MULT_LO_LO = np.uint64(_PCG64_MULT & _MASK32)

#: Indices must fit one uint32 column: SeedSequence reads an index of 2**32
#: or more as two entropy words.
_INDEX_LIMIT = 1 << 32


def _seed_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from a nonnegative int."""
    value = int(value)
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _entropy(prefix: tuple[int, ...], n: int | None = None) -> list[np.ndarray]:
    """Entropy words of ``SeedSequence([*prefix, i])`` for i < n, as uint32 columns.

    Without ``n``, a single row: the words of ``SeedSequence(list(prefix))``.
    """
    if n is not None and n > _INDEX_LIMIT:
        raise ValueError(f"at most 2**32 seeded members per stream, got {n!r}")
    size = 1 if n is None else n
    columns = [np.full(size, w, dtype=np.uint32) for v in prefix for w in _seed_words(v)]
    if n is not None:
        columns.append(np.arange(n, dtype=np.uint32))
    return columns


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's word hash: the hashed words and the next constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's ``mix_entropy`` into a pool of four words, row-wise."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value, hash_const = _hash(value, hash_const, _MULT_A)
        return value

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``generate_state(n_words)`` of every row's entropy pool, word by word."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value)
    return out


def _child_seeds(seed: int, stream: int, n: int) -> np.ndarray:
    """``SeedSequence([seed, stream, i]).generate_state(1)[0]`` for i < n, as uint32."""
    return _generate_state(_pool(_entropy((seed, stream), n)), 1)[0]


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step ``state * M + inc`` modulo 2**128, as (high, low) limbs.

    The products wrap modulo 2**64 on purpose.  They are array products,
    which NumPy wraps without a warning; only NumPy scalars warn.
    """
    lo_lo = lo & _LOW32
    lo_hi = lo >> _32
    p00 = lo_lo * _MULT_LO_LO
    p01 = lo_lo * _MULT_LO_HI
    p10 = lo_hi * _MULT_LO_LO
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    # the high word of lo * M_lo, from its four 32-bit partial products
    carry = lo_hi * _MULT_LO_HI + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    new_lo = lo * _MULT_LO + inc_lo
    return carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_limbs(entropy: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """(state high, state low, inc high, inc low) of the PCG64 bit generator
    that ``SeedSequence(words)`` seeds, for every entropy row, as uint64 columns.

    The seed sequence yields four uint64 words; PCG64 takes the first two as
    its 128-bit initial state and the last two as its stream, and
    ``pcg_setseq_128_srandom_r`` leaves the state ``(inc + initial) * M + inc``.
    """
    words = [w.astype(np.uint64) for w in _generate_state(_pool(entropy), 8)]
    high_state, low_state, high_seq, low_seq = (words[2 * j] | (words[2 * j + 1] << _32) for j in range(4))
    inc_hi = (high_seq << _1) | (low_seq >> _63)
    inc_lo = (low_seq << _1) | _1
    lo = inc_lo + low_state
    hi = inc_hi + high_state + (lo < inc_lo)
    return (*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


# ---------------------------------------------------------------------------
# NumPy's Generator draws on many PCG64 streams at once (numpy/random/src:
# pcg64/pcg64.h and distributions/distributions.c)

_DOUBLE_UNIT = 1.0 / 9007199254740992.0


class _Streams:
    """The PCG64 Generators of many members, each drawing as NumPy draws.

    Member ``j`` holds its 128-bit state and increment as uint64 limbs and
    the bit generator's buffered upper half of a 64-bit word.  A method
    draws once for each member in ``rows`` (a slice or an index array) and
    advances only those members; every member steps through its own stream
    in the order its calls name it, as ``default_rng`` would.
    """

    def __init__(self, hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo
        self.half = np.zeros_like(lo)
        self.has_half = np.zeros(len(lo), dtype=bool)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the members ``rows`` alone, in that order."""
        for name in ("hi", "lo", "inc_hi", "inc_lo", "half", "has_half"):
            setattr(self, name, getattr(self, name)[rows])

    def next64(self, rows) -> np.ndarray:
        """``next_uint64``: step, then the XSL-RR output of the new state."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows] = hi
        self.lo[rows] = lo
        x = hi ^ lo
        rot = hi >> _58
        return (x >> rot) | (x << ((_64 - rot) & _63))

    def random(self, rows) -> np.ndarray:
        """``random()``: the top 53 bits of a word, times 2**-53."""
        return (self.next64(rows) >> _11) * _DOUBLE_UNIT

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """``next_uint32``: the buffered upper half, else the lower half of a fresh
        word, whose upper half is buffered."""
        buffered = self.has_half[rows]
        out = self.half[rows]
        fresh = rows[~buffered]
        word = self.next64(fresh)
        out[~buffered] = word & _LOW32
        self.half[fresh] = word >> _32
        self.has_half[rows] = ~buffered
        return out

    def integers(self, lo: int, hi: int) -> np.ndarray:
        """``integers(lo, hi)`` of every member: Lemire's bounded draw on 32-bit
        words, which takes no word when the range holds one value."""
        span = hi - lo
        if span == 1:
            return np.full(len(self.lo), lo)
        threshold = (1 << 32) % span
        scaled = self._next32(np.arange(len(self.lo))) * np.uint64(span)
        redraw = np.flatnonzero((scaled & _LOW32) < threshold)
        while redraw.size:
            scaled[redraw] = self._next32(redraw) * np.uint64(span)
            redraw = redraw[(scaled[redraw] & _LOW32) < threshold]
        return lo + (scaled >> _32).astype(np.int64)

    def standard_normal(self, n: int) -> np.ndarray:
        """``standard_normal()`` of members ``0 .. n-1``: the ziggurat of ``_ziggurat``.

        A word picks a layer from its low byte, a sign and a 52-bit
        magnitude; inside the layer's core it is the value at once, and the
        members that land on an edge take the base layer's tail or the wedge
        test, drawing again where the wedge rejects.
        """
        out = np.empty(n)
        rows: slice | np.ndarray = slice(0, n)
        at = np.arange(n)
        while at.size:
            word = self.next64(rows)
            layer = (word & _LOW8).astype(np.intp)
            word >>= _8
            magnitude = (word >> _1) & _LOW52
            x = magnitude * _ziggurat.WI[layer]
            np.negative(x, out=x, where=(word & _1).astype(bool))
            core = magnitude < _ziggurat.KI[layer]
            out[at[core]] = x[core]
            edge = np.flatnonzero(~core)
            if not edge.size:
                break
            base = layer[edge] == 0
            tail, wedge = edge[base], edge[~base]
            out[at[tail]] = self._tail(at[tail], (magnitude[tail] >> _8) & _1)
            inside = self._wedge(at[wedge], layer[wedge], x[wedge])
            out[at[wedge[inside]]] = x[wedge[inside]]
            rows = at = at[wedge[~inside]]
        return out

    def _tail(self, rows: np.ndarray, negative: np.ndarray) -> np.ndarray:
        """Marsaglia's tail beyond ``R`` for the members ``rows``, each redrawing
        until its pair of uniforms is accepted; ``log1p`` is libm's, element by
        element."""
        out = np.empty(len(rows))
        at = np.arange(len(rows))
        while at.size:
            xx = -_ziggurat.INV_R * _elementwise(math.log1p, -self.random(rows[at]))
            yy = -_elementwise(math.log1p, -self.random(rows[at]))
            accepted = yy + yy > xx * xx
            out[at[accepted]] = _ziggurat.R + xx[accepted]
            at = at[~accepted]
        return np.where(negative.astype(bool), -out, out)

    def _wedge(self, rows: np.ndarray, layer: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Whether the members ``rows`` keep ``x`` in the wedge of ``layer``:
        a uniform height under the density ``exp(-x^2/2)``, which
        ``special._gauss_weight_many`` takes with libm's ``exp`` element by element."""
        fi = _ziggurat.FI
        height = (fi[layer - 1] - fi[layer]) * self.random(rows) + fi[layer]
        return height < _gauss_weight_many(x)


# ---------------------------------------------------------------------------
# draws


def _draw_profiles(entropy: list[np.ndarray], k_range: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """One random interval union per entropy row, as ``random_interval_union`` draws it.

    Returns the component counts, the endpoints and the interval masses, in
    ``_Batch`` layout.  Each round draws one candidate for every member still
    drawing, on :class:`_Streams`: the count, ``2k`` normals of scale
    ``_ENDPOINT_SCALE`` and two uniforms for the rays.  A member whose
    candidate is refused draws again in the next round from where its stream
    stands, for at most ``_MAX_RETRIES`` rounds.  A candidate's total mass is
    ``_row_sums`` of its masses, left to right from 0.0, the sum that
    ``measure`` takes.
    """
    lo_mass, hi_mass = MASS_WINDOW
    lo_k, hi_k = k_range
    streams = _Streams(*_pcg64_limbs(entropy))
    rows = np.arange(len(entropy[0]))
    drawn = [(rows[:0], rows[:0], np.empty((0, 2)), np.empty(0))]
    for _ in range(_MAX_RETRIES):
        if not rows.size:
            break
        k = streams.integers(lo_k, hi_k + 1)
        # longest first: the members still drawing normals are a prefix
        order = np.argsort(-k, kind="stable")
        streams.keep(order)
        k, rows = k[order], rows[order]
        real = np.arange(2 * k[0]) < 2 * k[:, None]
        # NaN pads the short rows; it sorts last and fails every comparison
        pts = np.full(real.shape, np.nan)
        for j, n in enumerate(np.count_nonzero(real, axis=0).tolist()):
            pts[:n, j] = 0.0 + _ENDPOINT_SCALE * streams.standard_normal(n)
        left_ray = streams.random(slice(None)) < 0.5
        right_ray = streams.random(slice(None)) < 0.5
        with np.errstate(invalid="ignore"):
            pts = np.clip(np.sort(pts, axis=1), -ENDPOINT_CLIP, ENDPOINT_CLIP)
            spaced = np.flatnonzero(~(np.diff(pts, axis=1) < MIN_SEPARATION).any(axis=1))
        pts, real, k = pts[spaced], real[spaced], k[spaced]
        pts[left_ray[spaced], 0] = -math.inf
        ends = np.flatnonzero(right_ray[spaced])
        pts[ends, 2 * k[ends] - 1] = math.inf
        pairs = pts[real].reshape(-1, 2)
        masses = _interval_masses(pairs[:, 0], pairs[:, 1])
        totals = _row_sums(np.repeat(np.arange(len(k)), k), masses, len(k))
        inside = (lo_mass < totals) & (totals < hi_mass)
        chosen = np.repeat(inside, k)
        drawn.append((rows[spaced[inside]], k[inside], pairs[chosen], masses[chosen]))
        refused = np.ones(len(rows), dtype=bool)
        refused[spaced[inside]] = False
        streams.keep(np.flatnonzero(refused))
        rows = rows[refused]
    if rows.size:
        row = int(rows.min())
        seed = sum(int(words[row]) << (32 * j) for j, words in enumerate(entropy))
        raise RuntimeError(f"no admissible interval union after {_MAX_RETRIES} retries for seed {seed}")
    rows, counts, pairs, masses = (np.concatenate(column) for column in zip(*drawn))
    # back to row order: member rows[i] owns pairs starts[i] .. starts[i] + counts[i]
    order = np.argsort(rows)
    starts = np.cumsum(counts) - counts
    counts = counts[order]
    shift = np.repeat(starts[order] - (np.cumsum(counts) - counts), counts)
    pair_order = shift + np.arange(len(shift))
    return counts, pairs[pair_order].ravel(), masses[pair_order]


def _child_unions(seed: int, stream: int, n: int, k_range: tuple[int, int]) -> list[IntervalUnion1D]:
    """Random interval unions seeded by ``_child_seeds(seed, stream, n)``."""
    return list(_members(_line_rows(*_draw_profiles([_child_seeds(seed, stream, n)], k_range))))


def random_interval_union(spec: RandomSetSpec) -> IntervalUnion1D:
    """One random interval union: deterministic per seed, measure inside the window.

    Endpoints are sorted Gaussian draws of standard deviation 2, clipped to
    [-ENDPOINT_CLIP, ENDPOINT_CLIP]; each side extends to infinity with
    probability 1/2.  Draws with endpoints closer than MIN_SEPARATION or with
    measure outside MASS_WINDOW are regenerated, up to a bounded number of
    retries.  The draws are those of ``default_rng(SeedSequence([spec.seed]))``.
    """
    return next(_members(_line_rows(*_draw_profiles(_entropy((spec.seed,)), spec.k_range))))


def _sizes(n: int) -> tuple[int, int, int, int]:
    """The random, two-ray, ball and slab member counts of a corpus of ``n``: 70%, 15%, 10% and 5%."""
    n_two_ray = (15 * n) // 100
    n_ball = (10 * n) // 100
    n_slab = (5 * n) // 100
    return n - n_two_ray - n_ball - n_slab, n_two_ray, n_ball, n_slab


def _high_dim_rows(n: int, seed: int, count: int | None = None) -> _Batch:
    """The first ``count`` rows of dimension above 1 of ``_mixed_batch(n, seed)``, all by default: balls, then slabs.

    The ball stream draws every dimension before any radius, so all of the
    corpus's ball dimensions and uniforms are drawn, and only the kept radii
    are solved for; each slab draws on its own child seed, so only the kept
    slabs are drawn.
    """
    _, _, n_ball, n_slab = _sizes(n)
    count = n_ball + n_slab if count is None else count
    balls = min(n_ball, count)
    slabs = min(n_slab, count - balls)
    dims = np.empty(0, dtype=np.int64)
    radii = np.empty(0)
    if balls:
        rng = np.random.default_rng([seed, _STREAM_BALL])
        dims = rng.integers(2, 11, size=n_ball)[:balls]
        radii = np.sqrt(_chi2_quantile_many(dims, rng.uniform(0.02, 0.98, size=n_ball)[:balls]))
    slab_counts, slab_points, slab_masses = _draw_profiles([_child_seeds(seed, _STREAM_SLAB, slabs)], (1, 3))
    return _Batch(
        kinds=np.repeat([_BALL, _SLAB], [balls, slabs]),
        dims=np.concatenate([dims, 2 + np.arange(slabs) % 4]),
        counts=np.concatenate([np.zeros(balls, dtype=np.int64), slab_counts]),
        radii=np.concatenate([radii, np.zeros(slabs)]),
        points=slab_points,
        masses=slab_masses,
    )


def _mixed_batch(n: int, seed: int = 0) -> _Batch:
    """The rows of ``mixed_corpus(n, seed)`` as one batch, drawn without set objects."""
    _check_integer(n, "corpus size", 1)
    _check_integer(seed, "seed", 0)
    n_random, n_two_ray, _, _ = _sizes(n)

    random_counts, random_points, random_masses = _draw_profiles(
        [_child_seeds(seed, _STREAM_RANDOM, n_random)], (1, 6)
    )

    # the symmetric two-ray sets (-inf, a) u (-a, inf) with 2 Phi(a) = Phi(s)
    a = _two_ray_endpoints(np.linspace(0.0, -4.0, n_two_ray))
    two_ray_points = np.stack([np.full(n_two_ray, -math.inf), a, -a, np.full(n_two_ray, math.inf)], axis=1).ravel()
    two_ray_masses = _interval_masses(two_ray_points[0::2], two_ray_points[1::2])

    high = _high_dim_rows(n, seed)
    n_line = n_random + n_two_ray
    return _Batch(
        kinds=np.concatenate([np.full(n_line, _LINE), high.kinds]),
        dims=np.concatenate([np.ones(n_line, dtype=np.int64), high.dims]),
        counts=np.concatenate([random_counts, np.full(n_two_ray, 2), high.counts]),
        radii=np.concatenate([np.zeros(n_line), high.radii]),
        points=np.concatenate([random_points, two_ray_points, high.points]),
        masses=np.concatenate([random_masses, two_ray_masses, high.masses]),
    )


def mixed_corpus(n: int, seed: int = 0) -> tuple[GaussianSet, ...]:
    """Deterministic mixed corpus of ``n`` sets.

    Composition: 70% random interval unions (components 1-6),
    15% symmetric two-ray sets across a mass-level grid reaching down to
    level -4, 10% centered balls in dimensions 2-10 with radii targeting
    measures in (0.02, 0.98), and 5% slabs in dimensions 2-5 carrying random
    profiles.
    """
    return tuple(_members(_mixed_batch(n, seed)))
