"""Random and structured set corpora for the verification suites.

The mixed corpus combines generic random interval unions with the named
near-extremal families: the symmetric two-ray sets across a grid of mass
levels, centered balls in dimensions 2-10 with mass-targeted radii, and
slabs carrying random one-dimensional profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import two_ray_set
from .sets import CenteredBall, GaussianSet, IntervalUnion1D, SlabSet, measure
from .special import chi2_quantile

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
        lo, hi = self.k_range
        if not (isinstance(lo, int) and isinstance(hi, int)) or isinstance(lo, bool) or isinstance(hi, bool):
            raise ValueError(f"component range must be a pair of integers, got {self.k_range!r}")
        if not 1 <= lo <= hi <= 6:
            raise ValueError(f"component range must satisfy 1 <= min <= max <= 6, got {self.k_range!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


def random_interval_union(spec: RandomSetSpec) -> IntervalUnion1D:
    """One random interval union: deterministic per seed, measure inside the window.

    Endpoints are sorted Gaussian draws of standard deviation 2, clipped to
    [-ENDPOINT_CLIP, ENDPOINT_CLIP]; each side extends to infinity with
    probability 1/2.  Draws with endpoints closer than MIN_SEPARATION or with
    measure outside MASS_WINDOW are regenerated, up to a bounded number of
    retries.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    lo_mass, hi_mass = MASS_WINDOW
    for _ in range(_MAX_RETRIES):
        k = int(rng.integers(spec.k_range[0], spec.k_range[1] + 1))
        pts = np.sort(rng.normal(loc=0.0, scale=_ENDPOINT_SCALE, size=2 * k))
        left_ray = bool(rng.random() < 0.5)
        right_ray = bool(rng.random() < 0.5)
        pts = np.clip(pts, -ENDPOINT_CLIP, ENDPOINT_CLIP)
        if np.any(np.diff(pts) < MIN_SEPARATION):
            continue
        intervals = [(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k)]
        if left_ray:
            intervals[0] = (-math.inf, intervals[0][1])
        if right_ray:
            intervals[-1] = (intervals[-1][0], math.inf)
        candidate = IntervalUnion1D(intervals=tuple(intervals))
        if lo_mass < measure(candidate) < hi_mass:
            return candidate
    raise RuntimeError(
        f"no admissible interval union after {_MAX_RETRIES} retries for seed {spec.seed}"
    )


def _child_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def mixed_corpus(n: int, seed: int = 0) -> tuple[GaussianSet, ...]:
    """Deterministic mixed corpus of ``n`` sets.

    Composition: 70% random interval unions (components 1-6),
    15% symmetric two-ray sets across a mass-level grid reaching down to
    level -4, 10% centered balls in dimensions 2-10 with radii targeting
    measures in (0.02, 0.98), and 5% slabs in dimensions 2-5 carrying random
    profiles.
    """
    if n < 1:
        raise ValueError(f"corpus size must be positive, got {n!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    n_two_ray = (15 * n) // 100
    n_ball = (10 * n) // 100
    n_slab = (5 * n) // 100
    n_random = n - n_two_ray - n_ball - n_slab

    sets: list[GaussianSet] = []
    for i in range(n_random):
        spec = RandomSetSpec(k_range=(1, 6), seed=_child_seed(seed, _STREAM_RANDOM, i))
        sets.append(random_interval_union(spec))

    if n_two_ray:
        for s in np.linspace(0.0, -4.0, n_two_ray):
            sets.append(two_ray_set(float(s)))

    if n_ball:
        rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_BALL]))
        dims = rng.integers(2, 11, size=n_ball)
        targets = rng.uniform(0.02, 0.98, size=n_ball)
        for dim, target in zip(dims, targets):
            radius = math.sqrt(chi2_quantile(int(dim), float(target)))
            sets.append(CenteredBall(dim=int(dim), radius=radius))

    for j in range(n_slab):
        profile = random_interval_union(
            RandomSetSpec(k_range=(1, 3), seed=_child_seed(seed, _STREAM_SLAB, j))
        )
        sets.append(SlabSet(dim=2 + (j % 4), profile=profile))

    return tuple(sets)
