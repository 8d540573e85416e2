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
is one draw loop.

Seeding.  Random member ``i`` of stream ``t`` (0 for the interval unions, 2
for the slab profiles) under corpus seed ``seed`` takes the child seed
``SeedSequence([seed, t, i]).generate_state(1)[0]`` and is drawn from
``default_rng(SeedSequence([child]))``.  Neither object is built per member:
``_child_seeds`` runs SeedSequence's mixing hash on ``uint32`` columns for
every index at once, the same hash with eight output words gives each
child's ``generate_state(4, uint64)``, PCG64's seeding routine turns those
words into a 128-bit state and increment in Python integers, and each state
is swapped into one reused Generator before that member's draws.  The corpus
is therefore bit for bit the one the per-member NumPy objects give.  It is
stable across NumPy versions because NumPy's compatibility policy (NEP 19)
fixes both the SeedSequence hash and the PCG64 stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .sets import (
    _BALL,
    _LINE,
    _SLAB,
    GaussianSet,
    IntervalUnion1D,
    _Batch,
    _interval_mass,
    _members,
    two_ray_endpoint,
)
from .special import _check_integer, chi2_quantile

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

#: Stream tags namespacing the per-purpose child seeds of a corpus seed.
_STREAM_RANDOM = 0
_STREAM_BALL = 1
_STREAM_SLAB = 2


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
# (numpy/random/bit_generator.pyx and the PCG64 C seeding routine)

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Rows whose PCG64 states are computed together.  The states are Python
#: ints; holding every row's at once adds about 1 MB to the peak RSS of a
#: 10^4 corpus build.
_STATE_CHUNK = 1024

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


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence(words))`` for every entropy row.

    The seed sequence yields four uint64 words; PCG64 takes the first two as
    its 128-bit initial state and the last two as its stream, then runs
    ``pcg_setseq_128_srandom_r`` in Python integers.
    """
    words = [w.astype(np.uint64) for w in _generate_state(_pool(entropy), 8)]
    high_state, low_state, high_seq, low_seq = (
        (words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    states = []
    for hs, ls, hq, lq in zip(high_state, low_state, high_seq, low_seq):
        inc = (((hq << 64) | lq) << 1 | 1) & _MASK128
        state = (inc + ((hs << 64) | ls)) & _MASK128
        states.append(((state * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _generators(entropy: list[np.ndarray]):
    """``default_rng(SeedSequence(words))`` for every entropy row, in order.

    One Generator is reused: each step swaps the next row's PCG64 state into
    it, so a yielded generator is valid until the iteration advances.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(0, len(entropy[0]), _STATE_CHUNK):
        for state, inc in _pcg64_states([words[start : start + _STATE_CHUNK] for words in entropy]):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


# ---------------------------------------------------------------------------
# draws


def _draw_union(
    rng: np.random.Generator, k_range: tuple[int, int]
) -> tuple[list[float], list[float]] | None:
    """One admissible draw from ``rng``, as its endpoints and interval masses,
    or None once the retries run out."""
    lo_mass, hi_mass = MASS_WINDOW
    lo_k, hi_k = k_range
    for _ in range(_MAX_RETRIES):
        k = int(rng.integers(lo_k, hi_k + 1))
        pts = sorted(rng.normal(0.0, _ENDPOINT_SCALE, 2 * k).tolist())
        left_ray = rng.random() < 0.5
        right_ray = rng.random() < 0.5
        if pts[0] < -ENDPOINT_CLIP or pts[-1] > ENDPOINT_CLIP:
            pts = [min(max(x, -ENDPOINT_CLIP), ENDPOINT_CLIP) for x in pts]
        if min(map(operator.sub, pts[1:], pts)) < MIN_SEPARATION:
            continue
        if left_ray:
            pts[0] = -math.inf
        if right_ray:
            pts[-1] = math.inf
        masses = list(map(_interval_mass, pts[0::2], pts[1::2]))
        # the sum that measure() takes: left to right from 0.0
        total = 0.0
        for mass in masses:
            total += mass
        if lo_mass < total < hi_mass:
            return pts, masses
    return None


def _draw_profiles(
    entropy: list[np.ndarray], k_range: tuple[int, int], points: list[float], masses: list[float]
) -> list[int]:
    """One random interval union per entropy row, as ``random_interval_union`` draws it.

    Appends each draw's endpoints to ``points`` and its interval masses to
    ``masses``, in ``_Batch`` layout, and returns the component counts.
    """
    counts = []
    for row, rng in enumerate(_generators(entropy)):
        drawn = _draw_union(rng, k_range)
        if drawn is None:
            seed = sum(int(words[row]) << (32 * j) for j, words in enumerate(entropy))
            raise RuntimeError(f"no admissible interval union after {_MAX_RETRIES} retries for seed {seed}")
        row_points, row_masses = drawn
        points.extend(row_points)
        masses.extend(row_masses)
        counts.append(len(row_masses))
    return counts


def _line_batch(entropy: list[np.ndarray], k_range: tuple[int, int]) -> _Batch:
    """A batch of one random interval union per entropy row."""
    points: list[float] = []
    masses: list[float] = []
    counts = _draw_profiles(entropy, k_range, points, masses)
    n = len(counts)
    return _Batch([_LINE] * n, [1] * n, counts, [0.0] * n, points, masses)


def _child_unions(seed: int, stream: int, n: int, k_range: tuple[int, int]) -> list[IntervalUnion1D]:
    """Random interval unions seeded by ``_child_seeds(seed, stream, n)``."""
    return list(_members(_line_batch([_child_seeds(seed, stream, n)], k_range)))


def random_interval_union(spec: RandomSetSpec) -> IntervalUnion1D:
    """One random interval union: deterministic per seed, measure inside the window.

    Endpoints are sorted Gaussian draws of standard deviation 2, clipped to
    [-ENDPOINT_CLIP, ENDPOINT_CLIP]; each side extends to infinity with
    probability 1/2.  Draws with endpoints closer than MIN_SEPARATION or with
    measure outside MASS_WINDOW are regenerated, up to a bounded number of
    retries.  The draws are those of ``default_rng(SeedSequence([spec.seed]))``.
    """
    return next(_members(_line_batch(_entropy((spec.seed,)), spec.k_range)))


def _mixed_batch(n: int, seed: int = 0) -> _Batch:
    """The rows of ``mixed_corpus(n, seed)`` as one batch, drawn without set objects."""
    _check_integer(n, "corpus size", 1)
    _check_integer(seed, "seed", 0)
    n_two_ray = (15 * n) // 100
    n_ball = (10 * n) // 100
    n_slab = (5 * n) // 100
    n_random = n - n_two_ray - n_ball - n_slab

    points: list[float] = []
    masses: list[float] = []
    counts = _draw_profiles([_child_seeds(seed, _STREAM_RANDOM, n_random)], (1, 6), points, masses)

    for s in np.linspace(0.0, -4.0, n_two_ray).tolist():
        a = two_ray_endpoint(s)
        points.extend((-math.inf, a, -a, math.inf))
        masses.extend((_interval_mass(-math.inf, a), _interval_mass(-a, math.inf)))
    counts += [2] * n_two_ray

    dims: list[int] = []
    radii: list[float] = []
    if n_ball:
        rng = next(_generators(_entropy((seed, _STREAM_BALL))))
        dims = rng.integers(2, 11, size=n_ball).tolist()
        targets = rng.uniform(0.02, 0.98, size=n_ball).tolist()
        radii = [math.sqrt(chi2_quantile(dim, target)) for dim, target in zip(dims, targets)]
    counts += [0] * n_ball

    counts += _draw_profiles([_child_seeds(seed, _STREAM_SLAB, n_slab)], (1, 3), points, masses)

    n_line = n_random + n_two_ray
    return _Batch(
        kinds=[_LINE] * n_line + [_BALL] * n_ball + [_SLAB] * n_slab,
        dims=[1] * n_line + dims + [2 + (j % 4) for j in range(n_slab)],
        counts=counts,
        radii=[0.0] * n_line + radii + [0.0] * n_slab,
        points=points,
        masses=masses,
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
