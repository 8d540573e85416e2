"""Set representations with exact Gaussian measure, perimeter, and barycenter.

Four families are supported, each closed under the operations it admits:

* :class:`IntervalUnion1D` — finite unions of disjoint open intervals on the
  line, endpoints may be infinite. The workhorse representation.
* :class:`HalfSpace` — ``{x : x . omega < s}`` for a unit vector ``omega``.
* :class:`SlabSet` — ``R^{n-1} x F`` for a 1D profile ``F`` along the last
  coordinate axis. Its Gaussian measure and perimeter equal the profile's,
  because the transverse directions integrate to one.
* :class:`CenteredBall` — ``{|x| < R}``; measure via the chi-square law of
  ``|x|^2``, perimeter via the chi density of ``|x|``.

The families collapse to two cases. Every set but the ball is a 1-D profile:
the preimage of an interval union under ``x -> x . axis`` for a unit axis
(an interval union along ``(1,)``, a slab along ``e_n``, a half-space as the
one-ray profile ``(-inf, s)`` along ``omega``). ``_profile`` makes that
decision, as ``(family, dimension, intervals)``, for every reader here; it
builds no axis, and no reader builds ``e_n``: ``barycenter`` writes ``b`` at
its last index, and ``symm_diff_measure`` takes ``omega[-1]`` as ``omega .
e_n``. For scalar quantities ``_row`` is the one family decision: ``(mass,
perimeter, b, excess)`` of a profile from the one private pass over its
``(lo, hi)`` pairs, or of a ball from its closed forms.
``measure``, ``perimeter`` and ``penalized_functional`` read it.
Many sets travel as one ``_Batch`` of flat columns: the corpus draws into
it, ``_batch`` packs set objects into it, ``_rows`` is ``_row`` on every row
at once, bit for bit, and ``_members`` rebuilds a row's set object;
``_interval_masses`` is ``_interval_mass`` on arrays of pairs, bit for bit.
``_rows`` takes the endpoint weights, and ``_interval_masses`` the CDF,
through ``special``'s vector twins, which write the known values at a ray's
infinite end (weight 0.0, CDF 0.0 or 1.0) without a libm call.
Two private helpers own the endpoint layout, for every module: ``_endpoints``
flattens ``(lo, hi)`` pairs to ``[lo_0, hi_0, lo_1, ...]``, where the even
positions are lower endpoints, and ``_pairs`` pairs such a list back up.
Only :func:`complement`, ``_members`` and the JSON descriptors build each
family's own type; :func:`complement` and :func:`set_to_dict` read ``_profile``.
The named interval unions of a mass level that the corpus, the optimizer
and the suites share (the half-line, the symmetric two-ray set, the
origin-symmetric interval) are built here too, at every level. The two-ray
endpoint and the half-width are infinite only where ``Phi(s)`` is within
rounding of 0 or 1; the half-width is 0.0 from about s = -8.21 down.

Measure-theoretic conventions: intervals are open, boundaries are null sets,
and degenerate features below ``MERGE_TOL`` are collapsed by :func:`normalize`.
Endpoints are read by ``special._check_endpoint``, half-space components and
levels by ``_check_real``, so a bool, a string or NaN raises ValueError.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .quadrature import QuadSettings, adaptive_quad_many
from .special import (
    SQRT_2PI, _check_endpoint, _check_integer, _check_real, _chi2_cdf_many, _gauss_cdf_unchecked,
    _gauss_cdf_inv_many, _gauss_cdf_many, _gauss_weight_many, chi2_cdf, gauss_cdf, gauss_cdf_inv,
)

__all__ = [
    "MERGE_TOL",
    "IntervalUnion1D",
    "HalfSpace",
    "SlabSet",
    "CenteredBall",
    "GaussianSet",
    "normalize",
    "dimension",
    "measure",
    "perimeter",
    "barycenter",
    "mass_level",
    "half_line_set",
    "two_ray_endpoint",
    "two_ray_set",
    "symmetric_interval_halfwidth",
    "complement",
    "symm_diff_measure",
    "mc_measure",
    "contains_points",
    "set_from_dict",
    "set_to_dict",
    "set_from_json",
    "set_to_json",
]

MERGE_TOL = 1e-9

_UNIT_NORM_TOL = 1e-12

_LOG_2 = math.log(2.0)


def _endpoints(intervals: Iterable[tuple[float, float]]) -> list[float]:
    """The flat endpoint list ``[lo_0, hi_0, lo_1, hi_1, ...]`` of ``(lo, hi)`` pairs."""
    return list(itertools.chain.from_iterable(intervals))


def _pairs(points: Sequence[float]) -> Iterator[tuple[float, float]]:
    """The consecutive ``(lo, hi)`` pairs of a flat endpoint list, once; inverts ``_endpoints``."""
    return zip(points[0::2], points[1::2])


def _check_intervals(items: Iterable[tuple[float, float]]) -> None:
    """Raise ValueError unless the float pairs ``items`` are the intervals of an
    ``IntervalUnion1D``: each ``lo < hi``, sorted, and every gap and width above
    ``MERGE_TOL``. The endpoints are checked numbers, never NaN."""
    # the first gap, lo - (-inf), is +inf, or NaN for a ray: never <= MERGE_TOL
    prev_hi = -math.inf
    for lo, hi in items:
        if not lo < hi:
            raise ValueError(f"IntervalUnion1D: empty or reversed interval ({lo!r}, {hi!r})")
        if lo - prev_hi <= MERGE_TOL:
            raise ValueError(
                f"IntervalUnion1D: intervals not sorted/disjoint at gap ({prev_hi!r}, {lo!r}); use normalize()"
            )
        if hi - lo <= MERGE_TOL:
            raise ValueError(
                f"IntervalUnion1D: degenerate interval ({lo!r}, {hi!r}) below merge tolerance; use normalize()"
            )
        prev_hi = hi


@dataclass(frozen=True)
class IntervalUnion1D:
    """Sorted union of disjoint open intervals; build raw data via normalize()."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        what = "interval endpoint"
        items = tuple((_check_endpoint(lo, what), _check_endpoint(hi, what)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", items)
        _check_intervals(items)

    @property
    def finite_endpoints(self) -> tuple[float, ...]:
        return tuple(filter(math.isfinite, _endpoints(self.intervals)))

    @property
    def component_count(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class HalfSpace:
    """{x : x . omega < s} with |omega| = 1."""

    omega: tuple[float, ...]
    s: float

    def __post_init__(self) -> None:
        om = tuple(_check_real(c, "HalfSpace: omega component") for c in self.omega)
        norm = math.hypot(*om)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "s", _check_real(self.s, "HalfSpace: s"))
        if len(om) < 1:
            raise ValueError("HalfSpace: omega must have at least one component")
        # the components are finite, so an inf norm is an overflow and fails the test
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"HalfSpace: omega must be a unit vector, |omega| = {norm!r}")


def _check_dim(value, what: str) -> int:
    """``value`` as a dimension: an integer from 1 to 2**63 - 1, the int64 range a ``_Batch`` stores."""
    dim = _check_integer(value, what, 1)
    if dim >= 2**63:
        raise ValueError(f"{what} must be at most 2**63 - 1, got {value!r}")
    return dim


@dataclass(frozen=True)
class SlabSet:
    """R^{dim-1} x profile, the profile living on the last coordinate axis."""

    dim: int
    profile: IntervalUnion1D

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _check_dim(self.dim, "SlabSet: dim"))
        if not isinstance(self.profile, IntervalUnion1D):
            raise ValueError("SlabSet: profile must be an IntervalUnion1D")


@dataclass(frozen=True)
class CenteredBall:
    """{|x| < radius} in R^dim."""

    dim: int
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _check_dim(self.dim, "CenteredBall: dim"))
        object.__setattr__(self, "radius", _check_real(self.radius, "CenteredBall: radius", "positive"))


GaussianSet = Union[IntervalUnion1D, HalfSpace, SlabSet, CenteredBall]


def normalize(raw: Iterable[Sequence[float]]) -> IntervalUnion1D:
    """Sort raw (lo, hi) pairs, merge sub-tolerance gaps, drop degenerate slivers.

    Individual pairs must satisfy lo <= hi; lo == hi marks an empty interval
    and is dropped. The result satisfies the IntervalUnion1D invariants.
    """
    pairs = []
    for item in raw:
        lo, hi = _check_endpoint(item[0], "normalize: endpoint"), _check_endpoint(item[1], "normalize: endpoint")
        if lo > hi:
            raise ValueError(f"normalize: reversed interval ({lo!r}, {hi!r})")
        if lo == hi:
            continue
        pairs.append((lo, hi))
    pairs.sort()
    merged: list[list[float]] = []
    for lo, hi in pairs:
        if merged and lo - merged[-1][1] <= MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    kept = tuple((lo, hi) for lo, hi in merged if hi - lo > MERGE_TOL)
    return IntervalUnion1D(intervals=kept)


#: Set families, as ``_profile`` names them and a ``_Batch`` tags its rows.
_LINE, _HALFSPACE, _SLAB, _BALL = range(4)


def _profile(e: GaussianSet) -> tuple[int, int, tuple[tuple[float, float], ...]]:
    """The family decision: ``(family, dimension, profile intervals)``.

    Every set but the ball is the preimage of a 1-D interval union under
    ``x -> x . axis`` for a unit axis: an interval union is its own profile
    along ``(1,)``, a slab its profile along ``e_n``, and a half-space the
    one-ray profile ``(-inf, s)`` along ``omega``. A centered ball has no
    profile, so its intervals are empty. No axis is built: a half-space
    keeps its own as ``omega``, and ``e_n`` is known by its last index.
    """
    if isinstance(e, IntervalUnion1D):
        return _LINE, 1, e.intervals
    if isinstance(e, SlabSet):
        return _SLAB, e.dim, e.profile.intervals
    if isinstance(e, HalfSpace):
        return _HALFSPACE, len(e.omega), ((-math.inf, e.s),)
    if isinstance(e, CenteredBall):
        return _BALL, e.dim, ()
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


def dimension(e: GaussianSet) -> int:
    return _profile(e)[1]


def _interval_mass(lo: float, hi: float) -> float:
    # Mirrored where lo + hi > 0, for relative accuracy in the right tail. An
    # infinite end gives exactly 0 or 1: a ray is Phi(hi) or Phi(-lo), and the
    # full line, whose NaN sum is not mirrored, 1 - 0.
    if lo + hi > 0.0:
        return _gauss_cdf_unchecked(-lo) - _gauss_cdf_unchecked(-hi)
    return _gauss_cdf_unchecked(hi) - _gauss_cdf_unchecked(lo)


def _interval_masses(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_interval_mass`` of every pair ``(lo[j], hi[j])``, bit for bit: its
    rule, ``Phi(-lo) - Phi(-hi)`` where ``lo + hi > 0``, else
    ``Phi(hi) - Phi(lo)``, on arrays."""
    # NaN on the full line, which is not mirrored; past the float range +-inf, as in the scalar
    with np.errstate(invalid="ignore", over="ignore"):
        mirrored = lo + hi > 0.0
    return _gauss_cdf_many(np.where(mirrored, -lo, hi)) - _gauss_cdf_many(np.where(mirrored, -hi, lo))


def _profile_sums(intervals: Iterable[tuple[float, float]]) -> tuple[float, ...]:
    """``(mass, perimeter, b, left, right)`` of a profile's ``(lo, hi)`` pairs.

    The one pass that every profile quantity reads: the Gaussian masses, the
    endpoint weights ``exp(-x^2/2)`` (0 at +-inf) and the first moments
    ``(w_lo - w_hi) / sqrt(2 pi)`` are added left to right, the perimeter as
    ``w_lo, w_hi`` per pair. ``left`` and ``right`` are the weights of the
    lower and of the upper endpoints alone, whose smaller one sets the
    boundary excess.
    """
    mass = perim = b = left = right = 0.0
    for lo, hi in intervals:
        mass += _interval_mass(lo, hi)
        w_lo = math.exp(-0.5 * lo * lo)
        w_hi = math.exp(-0.5 * hi * hi)
        perim += w_lo
        perim += w_hi
        left += w_lo
        right += w_hi
        b += (w_lo - w_hi) / SQRT_2PI
    return mass, perim, b, left, right


def _row(e: GaussianSet) -> tuple[float, float, float, float]:
    """``(mass, perimeter, b, excess)`` of one set, ``b`` along its axis: the
    one family decision for scalar quantities.

    The excess is the minimum over unit ``omega`` of the weighted
    ``|normal - omega|^2``: 0 or 4 per profile endpoint for ``omega =
    +-axis``, and ``2P`` for a ball, whose odd part integrates to zero. A
    ball's perimeter is ``sqrt(2 pi)`` times the chi density at ``r``, in log
    space so that it is finite in every dimension.
    """
    family, _, intervals = _profile(e)
    if family == _BALL:
        return _ball_row(e.dim, e.radius)
    mass, perim, b, left, right = _profile_sums(intervals)
    return mass, perim, b, 4.0 * min(left, right)


def _ball_row(n: int, r: float) -> tuple[float, float, float, float]:
    """``_row`` of the centered ball of radius ``r`` in ``R^n``, from its closed forms."""
    log_chi = (n - 1) * math.log(r) - 0.5 * r * r - (0.5 * n - 1.0) * _LOG_2 - math.lgamma(0.5 * n)
    perim = SQRT_2PI * math.exp(log_chi)
    return chi2_cdf(n, r * r), perim, 0.0, 2.0 * perim


@dataclass(frozen=True)
class _Batch:
    """Many sets as flat columns, one row per set.

    Row ``i`` has family ``kinds[i]`` and dimension ``dims[i]``. A profile
    row owns the next ``counts[i]`` ``(lo, hi)`` pairs of ``points``, flat in
    ``_endpoints`` layout, and their masses in ``masses``, each
    ``_interval_mass(lo, hi)``. A ball row owns no pair and has radius
    ``radii[i]``; every other row has radius 0. The corpus draws straight
    into this layout, and :func:`_rows` reads it.
    """

    kinds: np.ndarray
    dims: np.ndarray
    counts: np.ndarray
    radii: np.ndarray
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("kinds", np.int8),
            ("dims", np.int64),
            ("counts", np.int64),
            ("radii", float),
            ("points", float),
            ("masses", float),
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def owners(self) -> np.ndarray:
        """The row of every ``(lo, hi)`` pair."""
        return np.repeat(np.arange(len(self.kinds)), self.counts)


def _batch(sets: Iterable[GaussianSet]) -> _Batch:
    """The sets packed as a batch, one row per set, each from its ``_profile``."""
    kinds, dims, counts, radii, points = [], [], [], [], []
    for e in sets:
        family, n, intervals = _profile(e)
        kinds.append(family)
        dims.append(n)
        counts.append(len(intervals))
        radii.append(e.radius if family == _BALL else 0.0)
        points += _endpoints(intervals)
    masses = list(map(_interval_mass, points[0::2], points[1::2]))
    return _Batch(kinds, dims, counts, radii, points, masses)


def _line_rows(counts: np.ndarray, points: np.ndarray, masses: np.ndarray | None = None) -> _Batch:
    """Interval unions as a batch, row ``i`` owning ``counts[i]`` pairs of ``points``; ``masses`` default to theirs."""
    n = len(counts)
    masses = _interval_masses(points[0::2], points[1::2]) if masses is None else masses
    return _Batch(np.full(n, _LINE), np.ones(n), counts, np.zeros(n), points, masses)


def _rows(batch: _Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_row`` of every row of a batch, as four columns, bit for bit.

    The arithmetic is ``_profile_sums``': the weight per endpoint, by
    ``special._gauss_weight_many`` (``math.exp``, and 0.0 with no call at a
    ray's infinite end), the stored ``_interval_mass`` per interval, and each
    row's sums added left to right from 0.0, by ``np.bincount``, which
    accumulates its weights in array order. Only the bookkeeping is
    vectorized, as NumPy's ``exp`` and pairwise sums would move last bits. A
    ball row takes ``_ball_row``.
    """
    n = len(batch.kinds)
    owner = batch.owners()
    w = _gauss_weight_many(batch.points)
    w_lo, w_hi = w[0::2], w[1::2]
    mass = _row_sums(owner, batch.masses, n)
    perim = _row_sums(np.repeat(owner, 2), w, n)
    b = _row_sums(owner, (w_lo - w_hi) / SQRT_2PI, n)
    excess = 4.0 * np.minimum(_row_sums(owner, w_lo, n), _row_sums(owner, w_hi, n))
    for i in np.flatnonzero(batch.kinds == _BALL).tolist():
        mass[i], perim[i], b[i], excess[i] = _ball_row(int(batch.dims[i]), float(batch.radii[i]))
    return mass, perim, b, excess


def _clipped_masses(batch: _Batch, rows: np.ndarray, cut: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The Gaussian mass of every row's profile cut to ``(-cut[i], inf)``
    where ``above[i]``, else to ``(-inf, cut[i])``.

    An interval inside the cut keeps its stored mass, one that straddles it
    takes ``_interval_mass`` of its clipped part, and one outside adds 0.0,
    which leaves a sum of nonnegative masses as it is. Only the rows where
    ``rows`` holds are summed; the others read 0.
    """
    owner = batch.owners()
    above, cut = above[owner], cut[owner]
    lo, hi = batch.points[0::2], batch.points[1::2]
    lo_moved = above & (-cut > lo)
    hi_moved = ~above & (cut < hi)
    lo = np.where(lo_moved, -cut, lo)
    hi = np.where(hi_moved, cut, hi)
    kept = (lo < hi) & rows[owner]
    masses = np.where(kept, batch.masses, 0.0)
    moved = kept & (lo_moved | hi_moved)
    masses[moved] = _interval_masses(lo[moved], hi[moved])
    return _row_sums(owner, masses, len(batch.kinds))


def _row_sums(owner: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` per-row sums of ``weights``, whose rows are ``owner``.

    ``np.bincount`` adds each row's weights in array order, left to right
    from 0.0, as a Python loop would.
    """
    # with no weights at all, bincount returns integer zeros
    return np.bincount(owner, weights, n).astype(float, copy=False)


def _members(batch: _Batch, rows: Iterable[int] | None = None) -> Iterator[GaussianSet]:
    """The set objects of a batch's rows, every row by default.

    A half-space row keeps no direction, so it has no object.
    """
    kinds, dims, radii = batch.kinds.tolist(), batch.dims.tolist(), batch.radii.tolist()
    stops = np.cumsum(2 * batch.counts).tolist()
    for i in range(len(kinds)) if rows is None else rows:
        family, n = kinds[i], dims[i]
        if family == _BALL:
            yield CenteredBall(dim=n, radius=radii[i])
            continue
        if family == _HALFSPACE:
            raise ValueError(f"batch row {i} is a half-space, which keeps no direction")
        start = stops[i - 1] if i else 0
        profile = IntervalUnion1D(intervals=_pairs(batch.points[start : stops[i]].tolist()))
        yield profile if family == _LINE else SlabSet(dim=n, profile=profile)


def measure(e: GaussianSet) -> float:
    """Gaussian measure gamma(E)."""
    return _row(e)[0]


def perimeter(e: GaussianSet) -> float:
    """Gaussian perimeter: integral of exp(-|x|^2/2)/(2 pi)^{(n-1)/2} over the boundary."""
    return _row(e)[1]


def barycenter(e: GaussianSet) -> np.ndarray:
    """b(E) = integral over E of x dgamma, as a vector of length dimension(e)."""
    family, n, intervals = _profile(e)
    b = _profile_sums(intervals)[2]  # 0.0 for a ball, whose profile is empty
    if family == _HALFSPACE:
        # components off the axis are exactly zero, never -0.0
        return np.array([b * c if c else 0.0 for c in e.omega])
    out = np.zeros(n)
    out[-1] = b
    return out


def mass_level(e: GaussianSet) -> float:
    """The level s with gamma(E) = gauss_cdf(s)."""
    return gauss_cdf_inv(measure(e))


def half_line_set(s: float) -> IntervalUnion1D:
    """The left half-line with mass level ``s``."""
    return IntervalUnion1D(intervals=((-math.inf, s),))


def two_ray_endpoint(s: float) -> float:
    """The endpoint a < s splitting the mass of level s into two equal tails.

    Solves 2 * Phi(a) = Phi(s); the symmetric two-ray set
    (-inf, a) u (-a, inf) then has measure Phi(s) and zero barycenter.
    Since Phi(a) < 1/2, a < 0 at every level; a is -inf where Phi(s) / 2
    rounds to 0.
    """
    return gauss_cdf_inv(gauss_cdf(s) / 2.0)


def _two_ray_endpoints(levels: np.ndarray) -> np.ndarray:
    """:func:`two_ray_endpoint` of every level of a 1-D array, bit for bit."""
    return _gauss_cdf_inv_many(_gauss_cdf_many(levels) / 2.0)


def two_ray_set(s: float) -> IntervalUnion1D:
    """The symmetric two-ray set with measure Phi(s) and zero barycenter."""
    a = two_ray_endpoint(s)
    return IntervalUnion1D(intervals=((-math.inf, a), (-a, math.inf)))


def symmetric_interval_halfwidth(s: float) -> float:
    """Half-width q of the origin-symmetric interval with measure Phi(s):
    Phi(q) - Phi(-q) = Phi(s). q is inf where (1 + Phi(s)) / 2 rounds to 1,
    and 0.0 where it rounds to 1/2, from about s = -8.21 down (2.8e-16 at -8.2)."""
    return gauss_cdf_inv((1.0 + gauss_cdf(s)) / 2.0)


def complement(e: GaussianSet) -> GaussianSet:
    family, n, intervals = _profile(e)
    if family == _BALL:
        raise ValueError("complement of a centered ball is not representable here")
    if family == _HALFSPACE:
        return HalfSpace(omega=tuple(-c for c in e.omega), s=-e.s)
    points = [-math.inf, *_endpoints(intervals), math.inf]
    profile = IntervalUnion1D(intervals=tuple((lo, hi) for lo, hi in _pairs(points) if lo < hi))
    return profile if family == _LINE else SlabSet(dim=n, profile=profile)


#: Quadrature settings of the ball / half-space intersection.
_SLICE_SETTINGS = QuadSettings(abs_tol=1e-13, rel_tol=1e-13)


def _ball_halfspace_mass(dim: int, radius: float, s: float) -> float:
    """gamma(B_R intersect {x . omega < s}); rotation-invariant in omega.

    Integrates, along omega, the density times the chi-square mass of the
    (dim-1)-dimensional slice of the ball. The coordinate ``t = R sin(theta)``
    removes the square-root edge of the slice radius at ``t = -R``, so the
    integrand is smooth. Raises ValueError when the quadrature does not
    converge.
    """
    if s >= radius:
        return chi2_cdf(dim, radius * radius)
    if s <= -radius:
        return 0.0
    if dim == 1:
        return _interval_mass(-radius, s)

    def slice_mass(theta: np.ndarray) -> np.ndarray:
        t = radius * np.sin(theta)
        half_chord = radius * np.cos(theta)
        chi = _chi2_cdf_many(dim - 1, half_chord * half_chord)
        return np.exp(-0.5 * t * t) / SQRT_2PI * chi * half_chord

    r = adaptive_quad_many(slice_mass, [-0.5 * math.pi], [math.asin(s / radius)], _SLICE_SETTINGS)
    if not r.converged[0]:
        raise ValueError(
            f"ball / half-space mass did not converge for dim={dim}, radius={radius!r}, s={s!r}"
        )
    return float(r.value[0])


def symm_diff_measure(e: GaussianSet, h: HalfSpace) -> float:
    """gamma(E symmetric-difference H) for a half-space H compatible with E.

    A profile set needs H collinear with its axis; a centered ball accepts
    every direction.
    """
    family, n, _ = _profile(e)
    if len(h.omega) != n:
        raise ValueError(
            f"half-space dimension {len(h.omega)} does not match set dimension {n}"
        )
    if family == _BALL:
        inter = _ball_halfspace_mass(e.dim, e.radius, h.s)
    else:
        dot = float(np.dot(e.omega, h.omega)) if family == _HALFSPACE else h.omega[-1]
        if not (abs(dot - 1.0) <= 1e-9 or abs(dot + 1.0) <= 1e-9):
            raise ValueError("half-space must be collinear with the set's profile axis")
        # H is (-inf, h.s) along the axis, and (-h.s, inf) where omega is anti-parallel to it
        above = np.array([dot < 0.0])
        inter = float(_clipped_masses(_batch((e,)), np.ones(1, bool), np.array([h.s]), above)[0])
    return measure(e) + measure(h) - 2.0 * inter


def contains_points(e: GaussianSet, pts: np.ndarray) -> np.ndarray:
    """Boolean membership for an (m, dimension(e)) array of points."""
    pts = np.asarray(pts, dtype=float)
    n = dimension(e)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"contains_points: expected shape (m, {n}), got {pts.shape}")
    family, _, intervals = _profile(e)
    if family == _BALL:
        return np.einsum("ij,ij->i", pts, pts) < e.radius * e.radius
    # a slab's x . e_n is x_n, bit for bit, so it reads that column
    x = pts @ np.asarray(e.omega, dtype=float) if family == _HALFSPACE else pts[:, -1]
    return _in_intervals(x, intervals)


def _in_intervals(x: np.ndarray, intervals: Iterable[tuple[float, float]]) -> np.ndarray:
    """Boolean membership of the coordinates ``x`` in a profile's open intervals."""
    out = np.zeros(len(x), dtype=bool)
    for lo, hi in intervals:
        out |= (x > lo) & (x < hi)
    return out


def mc_measure(e: GaussianSet, n_samples: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of gamma(E) with its standard error.

    Plain indicator average over standard normal points X in R^n: unbiased,
    and deterministic for a fixed seed. Membership reads one scalar of X, so
    that scalar is drawn instead of X: ``|X|^2``, which has the chi-square law
    with ``dim`` degrees of freedom, for a centered ball (NumPy's gamma
    sampler, independent of the closed form's ``gammainc``), and ``X . axis``,
    a standard normal, for a profile set, tested against the profile's open
    intervals as :func:`contains_points` tests it. So the cost is
    ``n_samples`` draws in every dimension. Blocks of at most 65,536 draws
    (512 KiB of doubles) bound the memory; as they fill in stream order and
    the hit count is an integer, they leave the bits alone.
    """
    n_samples = _check_integer(n_samples, "mc_measure: n_samples", 1)
    rng = np.random.default_rng(_check_integer(seed, "mc_measure: seed", 0))
    family, n, intervals = _profile(e)
    hits = 0
    for start in range(0, n_samples, 65_536):
        size = min(65_536, n_samples - start)
        if family == _BALL:
            inside = rng.chisquare(n, size) < e.radius * e.radius
        else:
            inside = _in_intervals(rng.standard_normal(size), intervals)
        hits += int(np.count_nonzero(inside))
    p = hits / n_samples
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)


# ---------------------------------------------------------------------------
# JSON descriptors
#
#   {"type": "intervals", "items": [[lo, hi], ...]}      lo/hi: number or "inf"/"-inf"
#   {"type": "halfspace", "omega": [...], "s": number}
#   {"type": "slab", "dim": n, "profile": [[lo, hi], ...]}
#   {"type": "ball", "dim": n, "radius": number}
# ---------------------------------------------------------------------------

def _endpoint_from_json(v: object) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ValueError(f"set descriptor: bad endpoint string {v!r}; allowed: 'inf', '-inf'")
    return _check_endpoint(v, "set descriptor: endpoint")


def _endpoint_to_json(v: float) -> object:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _items_from_json(items: object, what: str) -> IntervalUnion1D:
    if not isinstance(items, list):
        raise ValueError(f"set descriptor: {what} must be a list of [lo, hi] pairs")
    pairs = []
    for item in items:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"set descriptor: {what} entries must be [lo, hi] pairs, got {item!r}")
        pairs.append((_endpoint_from_json(item[0]), _endpoint_from_json(item[1])))
    return normalize(pairs)


def set_from_dict(d: dict) -> GaussianSet:
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError("set descriptor: expected an object with a 'type' field")
    kind = d["type"]
    if kind == "intervals":
        return _items_from_json(d.get("items"), "items")
    if kind == "halfspace":
        omega = d.get("omega")
        if not isinstance(omega, list) or not omega:
            raise ValueError("set descriptor: halfspace requires a nonempty 'omega' list")
        return HalfSpace(omega=tuple(omega), s=d.get("s"))
    if kind == "slab":
        return SlabSet(dim=d.get("dim"), profile=_items_from_json(d.get("profile"), "profile"))
    if kind == "ball":
        return CenteredBall(dim=d.get("dim"), radius=d.get("radius"))
    raise ValueError(f"set descriptor: unknown type {kind!r}")


def set_to_dict(e: GaussianSet) -> dict:
    family, n, intervals = _profile(e)
    if family == _HALFSPACE:
        return {"type": "halfspace", "omega": list(e.omega), "s": e.s}
    if family == _BALL:
        return {"type": "ball", "dim": n, "radius": e.radius}
    items = [[_endpoint_to_json(lo), _endpoint_to_json(hi)] for lo, hi in intervals]
    return {"type": "intervals", "items": items} if family == _LINE else {"type": "slab", "dim": n, "profile": items}


def set_from_json(text: str) -> GaussianSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"set descriptor: invalid JSON ({exc})") from exc
    return set_from_dict(data)


def set_to_json(e: GaussianSet) -> str:
    return json.dumps(set_to_dict(e))
