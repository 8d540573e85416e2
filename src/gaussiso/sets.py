"""Set representations with exact Gaussian measure, perimeter, and barycenter.

Four families are supported, each closed under the operations it admits:

* :class:`IntervalUnion1D` — finite unions of disjoint open intervals on the
  line, endpoints may be infinite. The workhorse representation.
* :class:`HalfSpace` — ``{x : x . omega < s}`` for a unit vector ``omega``.
* :class:`SlabSet` — ``R^{n-1} x F`` for a 1D profile ``F`` along the last
  coordinate axis. Its Gaussian measure and perimeter equal the profile's,
  because the transverse directions integrate to one.
* :class:`CenteredBall` — ``{|x| < R}``; measure via the chi-square law of
  ``|x|^2``.

Measure-theoretic conventions: intervals are open, boundaries are null sets,
and degenerate features below ``merge_tol`` are collapsed by :func:`normalize`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import singledispatch
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.special import gammainc

from .quadrature import QuadSettings, adaptive_quad_many
from .special import (
    SQRT_2PI,
    chi2_cdf,
    gauss_cdf,
    gauss_cdf_inv,
    gauss_weight,
    partial_moment,
)

__all__ = [
    "MERGE_TOL",
    "AlignmentError",
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
    "barycenter_norm",
    "mass_level",
    "complement",
    "intersect",
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


class AlignmentError(ValueError):
    """Half-space direction is incompatible with the set's representation axis."""


def _require_real(name: str, value: float, allow_inf: bool = False) -> float:
    v = float(value)
    if math.isnan(v):
        raise ValueError(f"{name} must not be NaN")
    if not allow_inf and math.isinf(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class IntervalUnion1D:
    """Sorted union of disjoint open intervals; build raw data via normalize()."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        items = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", items)
        prev_hi = -math.inf
        first = True
        for lo, hi in items:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("IntervalUnion1D: endpoints must not be NaN")
            if not lo < hi:
                raise ValueError(f"IntervalUnion1D: empty or reversed interval ({lo!r}, {hi!r})")
            if not first and lo - prev_hi <= MERGE_TOL:
                raise ValueError(
                    f"IntervalUnion1D: intervals not sorted/disjoint at gap ({prev_hi!r}, {lo!r}); use normalize()"
                )
            if hi - lo <= MERGE_TOL:
                raise ValueError(
                    f"IntervalUnion1D: degenerate interval ({lo!r}, {hi!r}) below merge tolerance; use normalize()"
                )
            prev_hi = hi
            first = False

    @property
    def finite_endpoints(self) -> tuple[float, ...]:
        out = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                out.append(lo)
            if math.isfinite(hi):
                out.append(hi)
        return tuple(out)

    @property
    def component_count(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class HalfSpace:
    """{x : x . omega < s} with |omega| = 1."""

    omega: tuple[float, ...]
    s: float

    def __post_init__(self) -> None:
        om = tuple(float(c) for c in self.omega)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "s", _require_real("HalfSpace.s", self.s))
        if len(om) < 1:
            raise ValueError("HalfSpace: omega must have at least one component")
        norm = math.sqrt(sum(c * c for c in om))
        if not math.isfinite(norm) or abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"HalfSpace: omega must be a unit vector, |omega| = {norm!r}")


@dataclass(frozen=True)
class SlabSet:
    """R^{dim-1} x profile, the profile living on the last coordinate axis."""

    dim: int
    profile: IntervalUnion1D

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"SlabSet: dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.profile, IntervalUnion1D):
            raise ValueError("SlabSet: profile must be an IntervalUnion1D")


@dataclass(frozen=True)
class CenteredBall:
    """{|x| < radius} in R^dim."""

    dim: int
    radius: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"CenteredBall: dim must be a positive integer, got {self.dim!r}")
        r = _require_real("CenteredBall.radius", self.radius)
        if r <= 0.0:
            raise ValueError(f"CenteredBall: radius must be positive, got {r!r}")
        object.__setattr__(self, "radius", r)


GaussianSet = Union[IntervalUnion1D, HalfSpace, SlabSet, CenteredBall]


def normalize(
    raw: Iterable[Sequence[float]], merge_tol: float = MERGE_TOL
) -> IntervalUnion1D:
    """Sort raw (lo, hi) pairs, merge sub-tolerance gaps, drop degenerate slivers.

    Individual pairs must satisfy lo <= hi; lo == hi marks an empty interval
    and is dropped. The result satisfies the IntervalUnion1D invariants.
    """
    if not (merge_tol > 0.0 and math.isfinite(merge_tol)):
        raise ValueError(f"normalize: merge_tol must be positive and finite, got {merge_tol!r}")
    pairs = []
    for item in raw:
        lo, hi = (float(item[0]), float(item[1]))
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("normalize: endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"normalize: reversed interval ({lo!r}, {hi!r})")
        if lo == hi:
            continue
        pairs.append((lo, hi))
    pairs.sort()
    merged: list[list[float]] = []
    for lo, hi in pairs:
        if merged and lo - merged[-1][1] <= merge_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    kept = tuple((lo, hi) for lo, hi in merged if hi - lo > merge_tol)
    return IntervalUnion1D(intervals=kept)


@singledispatch
def dimension(e: GaussianSet) -> int:
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@dimension.register
def _(e: IntervalUnion1D) -> int:
    return 1


@dimension.register
def _(e: HalfSpace) -> int:
    return len(e.omega)


@dimension.register
def _(e: SlabSet) -> int:
    return e.dim


@dimension.register
def _(e: CenteredBall) -> int:
    return e.dim


def _interval_mass(lo: float, hi: float) -> float:
    # For intervals entirely in the right tail, the mirrored form keeps
    # relative (not just absolute) accuracy.
    if lo == -math.inf and hi == math.inf:
        return 1.0
    if lo == -math.inf:
        return gauss_cdf(hi)
    if hi == math.inf:
        return gauss_cdf(-lo)
    if lo + hi > 0.0:
        return gauss_cdf(-lo) - gauss_cdf(-hi)
    return gauss_cdf(hi) - gauss_cdf(lo)


@singledispatch
def measure(e: GaussianSet) -> float:
    """Gaussian measure gamma(E)."""
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@measure.register
def _(e: IntervalUnion1D) -> float:
    return float(sum(_interval_mass(lo, hi) for lo, hi in e.intervals))


@measure.register
def _(e: HalfSpace) -> float:
    return gauss_cdf(e.s)


@measure.register
def _(e: SlabSet) -> float:
    return measure(e.profile)


@measure.register
def _(e: CenteredBall) -> float:
    return chi2_cdf(e.dim, e.radius * e.radius)


@singledispatch
def perimeter(e: GaussianSet) -> float:
    """Gaussian perimeter: integral of exp(-|x|^2/2)/(2 pi)^{(n-1)/2} over the boundary."""
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@perimeter.register
def _(e: IntervalUnion1D) -> float:
    return float(sum(gauss_weight(x) for x in e.finite_endpoints))


@perimeter.register
def _(e: HalfSpace) -> float:
    return gauss_weight(e.s)


@perimeter.register
def _(e: SlabSet) -> float:
    # boundary is R^{n-1} x (profile boundary); transverse integrals are 1
    return perimeter(e.profile)


@perimeter.register
def _(e: CenteredBall) -> float:
    n = e.dim
    r = e.radius
    # sphere area n*omega_n*R^{n-1} = 2 pi^{n/2} R^{n-1} / Gamma(n/2)
    area = 2.0 * math.pi ** (0.5 * n) * r ** (n - 1) / math.gamma(0.5 * n)
    return area * math.exp(-0.5 * r * r) / (2.0 * math.pi) ** (0.5 * (n - 1))


@singledispatch
def barycenter(e: GaussianSet) -> np.ndarray:
    """b(E) = integral over E of x dgamma, as a vector of length dimension(e)."""
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@barycenter.register
def _(e: IntervalUnion1D) -> np.ndarray:
    return np.array([sum(partial_moment(lo, hi) for lo, hi in e.intervals)])


@barycenter.register
def _(e: HalfSpace) -> np.ndarray:
    scale = -gauss_weight(e.s) / SQRT_2PI
    return scale * np.asarray(e.omega, dtype=float)


@barycenter.register
def _(e: SlabSet) -> np.ndarray:
    out = np.zeros(e.dim)
    out[-1] = barycenter(e.profile)[0]
    return out


@barycenter.register
def _(e: CenteredBall) -> np.ndarray:
    return np.zeros(e.dim)


def barycenter_norm(e: GaussianSet) -> float:
    return float(np.linalg.norm(barycenter(e)))


def mass_level(e: GaussianSet) -> float:
    """The level s with gamma(E) = gauss_cdf(s)."""
    return gauss_cdf_inv(measure(e))


def _complement_intervals(e: IntervalUnion1D) -> IntervalUnion1D:
    points: list[float] = [-math.inf]
    for lo, hi in e.intervals:
        points.extend((lo, hi))
    points.append(math.inf)
    pairs = []
    for i in range(0, len(points), 2):
        lo, hi = points[i], points[i + 1]
        if lo < hi:
            pairs.append((lo, hi))
    return IntervalUnion1D(intervals=tuple(pairs))


@singledispatch
def complement(e: GaussianSet) -> GaussianSet:
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@complement.register
def _(e: IntervalUnion1D) -> IntervalUnion1D:
    return _complement_intervals(e)


@complement.register
def _(e: HalfSpace) -> HalfSpace:
    return HalfSpace(omega=tuple(-c for c in e.omega), s=-e.s)


@complement.register
def _(e: SlabSet) -> SlabSet:
    return SlabSet(dim=e.dim, profile=_complement_intervals(e.profile))


@complement.register
def _(e: CenteredBall) -> GaussianSet:
    raise ValueError("complement of a centered ball is not representable here")


def _intersect_mass(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += _interval_mass(lo, hi)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def intersect(a: IntervalUnion1D, b: IntervalUnion1D) -> IntervalUnion1D:
    """Intersection of two interval unions (normalized; slivers may be dropped)."""
    pairs = []
    i = j = 0
    ai, bi = a.intervals, b.intervals
    while i < len(ai) and j < len(bi):
        lo = max(ai[i][0], bi[j][0])
        hi = min(ai[i][1], bi[j][1])
        if lo < hi:
            pairs.append((lo, hi))
        if ai[i][1] < bi[j][1]:
            i += 1
        else:
            j += 1
    return normalize(pairs)


def _halfspace_profile(sign: float, s: float) -> tuple[tuple[float, float], ...]:
    # 1D trace of {x*sign < s}
    return ((-math.inf, s),) if sign > 0 else ((-s, math.inf),)


def _axis_sign(e: GaussianSet, h: HalfSpace) -> float:
    """Validate h against e's representation axis; return the axis sign."""
    if len(h.omega) != dimension(e):
        raise AlignmentError(
            f"half-space dimension {len(h.omega)} does not match set dimension {dimension(e)}"
        )
    axis = np.zeros(len(h.omega))
    axis[-1] = 1.0
    om = np.asarray(h.omega)
    if abs(abs(float(om[-1])) - 1.0) > 1e-9 or float(np.max(np.abs(om[:-1]), initial=0.0)) > 1e-9:
        raise AlignmentError(
            "half-space must be aligned with the profile axis for this representation"
        )
    return 1.0 if om[-1] > 0 else -1.0


#: Quadrature settings of the ball / half-space intersection.
_SLICE_SETTINGS = QuadSettings(abs_tol=1e-13, rel_tol=1e-13)


def _ball_halfspace_mass(dim: int, radius: float, s: float) -> float:
    """gamma(B_R intersect {x . omega < s}); rotation-invariant in omega.

    Integrates, along omega, the density times the chi-square mass of the
    (dim-1)-dimensional slice of the ball. Raises ValueError when the
    quadrature does not converge.
    """
    if s >= radius:
        return chi2_cdf(dim, radius * radius)
    if s <= -radius:
        return 0.0
    if dim == 1:
        return _interval_mass(-radius, min(s, radius))

    def slice_mass(t: np.ndarray) -> np.ndarray:
        u = np.maximum(radius * radius - t * t, 0.0)
        return np.exp(-0.5 * t * t) / SQRT_2PI * gammainc(0.5 * (dim - 1), 0.5 * u)

    r = adaptive_quad_many(slice_mass, [-radius], [min(s, radius)], _SLICE_SETTINGS)
    if not r.converged[0]:
        raise ValueError(
            f"ball / half-space mass did not converge for dim={dim}, radius={radius!r}, s={s!r}"
        )
    return float(r.value[0])


@singledispatch
def symm_diff_measure(e: GaussianSet, h: HalfSpace) -> float:
    """gamma(E symmetric-difference H) for a half-space H compatible with E."""
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


@symm_diff_measure.register
def _(e: IntervalUnion1D, h: HalfSpace) -> float:
    sign = _axis_sign(e, h)
    hp = _halfspace_profile(sign, h.s)
    inter = _intersect_mass(e.intervals, hp)
    return measure(e) + gauss_cdf(h.s) - 2.0 * inter


@symm_diff_measure.register
def _(e: HalfSpace, h: HalfSpace) -> float:
    if len(e.omega) != len(h.omega):
        raise AlignmentError(
            f"half-space dimension {len(h.omega)} does not match set dimension {len(e.omega)}"
        )
    dot = float(np.dot(e.omega, h.omega))
    if abs(dot - 1.0) <= 1e-9:
        return abs(gauss_cdf(e.s) - gauss_cdf(h.s))
    if abs(dot + 1.0) <= 1e-9:
        # E = {u < s_e}, H = {u > -s_h} in the shared axis coordinate u
        inter = max(0.0, gauss_cdf(e.s) - gauss_cdf(-h.s))
        return gauss_cdf(e.s) + gauss_cdf(h.s) - 2.0 * inter
    raise AlignmentError("half-space comparison requires collinear directions")


@symm_diff_measure.register
def _(e: SlabSet, h: HalfSpace) -> float:
    sign = _axis_sign(e, h)
    hp = _halfspace_profile(sign, h.s)
    inter = _intersect_mass(e.profile.intervals, hp)
    return measure(e) + gauss_cdf(h.s) - 2.0 * inter


@symm_diff_measure.register
def _(e: CenteredBall, h: HalfSpace) -> float:
    if len(h.omega) != e.dim:
        raise AlignmentError(
            f"half-space dimension {len(h.omega)} does not match set dimension {e.dim}"
        )
    inter = _ball_halfspace_mass(e.dim, e.radius, h.s)
    return measure(e) + gauss_cdf(h.s) - 2.0 * inter


def contains_points(e: GaussianSet, pts: np.ndarray) -> np.ndarray:
    """Boolean membership for an (m, dimension(e)) array of points."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dimension(e):
        raise ValueError(
            f"contains_points: expected shape (m, {dimension(e)}), got {pts.shape}"
        )
    if isinstance(e, IntervalUnion1D):
        x = pts[:, 0]
        out = np.zeros(len(x), dtype=bool)
        for lo, hi in e.intervals:
            out |= (x > lo) & (x < hi)
        return out
    if isinstance(e, HalfSpace):
        return pts @ np.asarray(e.omega) < e.s
    if isinstance(e, SlabSet):
        return contains_points(e.profile, pts[:, -1:])
    if isinstance(e, CenteredBall):
        return np.einsum("ij,ij->i", pts, pts) < e.radius * e.radius
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


def mc_measure(e: GaussianSet, n_samples: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of gamma(E) with its standard error.

    Plain indicator average over standard normal draws: unbiased, and
    deterministic for a fixed seed.
    """
    if not isinstance(n_samples, int) or n_samples < 1:
        raise ValueError(f"mc_measure: n_samples must be a positive integer, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    dim = dimension(e)
    chunk = 200_000
    hits = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        pts = rng.standard_normal((m, dim))
        hits += int(np.count_nonzero(contains_points(e, pts)))
        remaining -= m
    p = hits / n_samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return p, se


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
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"set descriptor: endpoint must be a number or 'inf'/'-inf', got {v!r}")
    return float(v)


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
        s = d.get("s")
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ValueError("set descriptor: halfspace requires a numeric 's'")
        return HalfSpace(omega=tuple(float(c) for c in omega), s=float(s))
    if kind == "slab":
        dim = d.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError("set descriptor: slab requires an integer 'dim'")
        return SlabSet(dim=dim, profile=_items_from_json(d.get("profile"), "profile"))
    if kind == "ball":
        dim = d.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError("set descriptor: ball requires an integer 'dim'")
        radius = d.get("radius")
        if isinstance(radius, bool) or not isinstance(radius, (int, float)):
            raise ValueError("set descriptor: ball requires a numeric 'radius'")
        return CenteredBall(dim=dim, radius=float(radius))
    raise ValueError(f"set descriptor: unknown type {kind!r}")


def set_to_dict(e: GaussianSet) -> dict:
    if isinstance(e, IntervalUnion1D):
        return {
            "type": "intervals",
            "items": [[_endpoint_to_json(lo), _endpoint_to_json(hi)] for lo, hi in e.intervals],
        }
    if isinstance(e, HalfSpace):
        return {"type": "halfspace", "omega": list(e.omega), "s": e.s}
    if isinstance(e, SlabSet):
        return {
            "type": "slab",
            "dim": e.dim,
            "profile": [[_endpoint_to_json(lo), _endpoint_to_json(hi)] for lo, hi in e.profile.intervals],
        }
    if isinstance(e, CenteredBall):
        return {"type": "ball", "dim": e.dim, "radius": e.radius}
    raise TypeError(f"unsupported set representation: {type(e).__name__}")


def set_from_json(text: str) -> GaussianSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"set descriptor: invalid JSON ({exc})") from exc
    return set_from_dict(data)


def set_to_json(e: GaussianSet) -> str:
    return json.dumps(set_to_dict(e))
