"""Tests for set representations: exact quantities vs quadrature and MC oracles.

Frozen constants below were produced by the independent oracles named next to
them (adaptive quadrature of the Gaussian density, Monte Carlo indicator
averages, central-difference derivatives) and then pinned.
"""

import hashlib
import math
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from gaussiso import sets
from gaussiso.functionals import quantity_columns
from gaussiso.quadrature import QuadSettings, adaptive_quad
from gaussiso.sets import (
    MERGE_TOL,
    CenteredBall,
    HalfSpace,
    IntervalUnion1D,
    SlabSet,
    barycenter,
    complement,
    contains_points,
    dimension,
    half_line_set,
    mass_level,
    mc_measure,
    measure,
    normalize,
    perimeter,
    set_from_dict,
    set_from_json,
    set_to_dict,
    set_to_json,
    symm_diff_measure,
)
from gaussiso.special import SQRT_2PI, gauss_cdf, gauss_density, gauss_weight

# gauss_cdf_inv(0.25), pinned from the inverse-CDF oracle
A0 = -0.6744897501960817
# 2 * exp(-A0^2 / 2): perimeter of the two-ray set at half mass
PERIM_E0 = 1.5930954842106313
# gauss_cdf(1), gauss_cdf(-1), gauss_cdf(2)
PHI_1 = 0.8413447460685429
PHI_M1 = 0.15865525393145707
PHI_2 = 0.9772498680518208
# 1 - exp(-1/2): chi-square(2) cdf at 1 == measure of the unit ball in the plane
BALL21_MASS = 0.3934693402873665
# sqrt(2 pi) * exp(-1/2): perimeter of that ball
BALL21_PERIM = 1.5203469010662807
INV_SQRT_2PI = 0.3989422804014327


def two_ray(a: float) -> IntervalUnion1D:
    return IntervalUnion1D(intervals=((-math.inf, a), (-a, math.inf)))


def random_unit_vector(seed: int, dim: int) -> tuple[float, ...]:
    v = np.random.default_rng(seed).standard_normal(dim)
    return tuple(v / np.linalg.norm(v))


def random_union(rng: np.random.Generator, k: int) -> IntervalUnion1D:
    pts = np.sort(rng.uniform(-4.0, 4.0, size=2 * k))
    return normalize([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])


class TestNormalize:
    def test_sorts_and_merges_overlap(self):
        e = normalize([(0.5, 2.0), (0.0, 1.0)])
        assert e.intervals == ((0.0, 2.0),)

    def test_merges_gap_below_tolerance(self):
        e = normalize([(0.0, 1.0), (1.0 + 1e-10, 2.0)])
        assert e.intervals == ((0.0, 2.0),)

    def test_keeps_gap_above_tolerance(self):
        e = normalize([(0.0, 1.0), (1.1, 2.0)])
        assert e.component_count == 2

    def test_drops_degenerate_sliver(self):
        assert normalize([(0.0, 1e-10)]).intervals == ()

    def test_drops_empty_pairs_and_input(self):
        assert normalize([]).intervals == ()
        assert normalize([(1.0, 1.0)]).intervals == ()

    def test_idempotent(self):
        e = normalize([(-2.0, -1.0), (0.0, 3.0)])
        assert normalize(e.intervals).intervals == e.intervals

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            normalize([(1.0, 0.0)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            normalize([(0.0, math.nan)])

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError):
            IntervalUnion1D(intervals=((0.0, 1.0), (0.5, 2.0)))
        with pytest.raises(ValueError):
            IntervalUnion1D(intervals=((0.0, MERGE_TOL / 2),))
        with pytest.raises(ValueError):
            IntervalUnion1D(intervals=((2.0, 1.0),))

    def test_infinite_endpoints_allowed(self):
        e = normalize([(-math.inf, 0.0), (1.0, math.inf)])
        assert e.finite_endpoints == (0.0, 1.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "must be a real number, got True"),
            ("0", "must be a real number, got '0'"),
            (Decimal("1"), "must be a real number, got Decimal"),
            (math.nan, "must be finite, got nan"),
            (10**400, "must be finite, got 1000"),
        ],
        ids=["bool", "str", "decimal", "nan", "huge-int"],
    )
    def test_endpoints_must_be_real_numbers(self, bad, message):
        with pytest.raises(ValueError, match=f"^interval endpoint {message}"):
            IntervalUnion1D(intervals=((-3.0, -2.0), (bad, 5.0)))
        with pytest.raises(ValueError, match=f"^interval endpoint {message}"):
            IntervalUnion1D(intervals=((-math.inf, bad),))
        with pytest.raises(ValueError, match=f"^interval endpoint {message}"):
            half_line_set(bad)
        with pytest.raises(ValueError, match=f"^normalize: endpoint {message}"):
            normalize([(bad, 5.0)])
        with pytest.raises(ValueError, match=f"^normalize: endpoint {message}"):
            normalize([(-3.0, -2.0), (-1.0, bad)])

    def test_number_endpoints_read_as_floats(self):
        raw = (
            (np.float32(-np.inf), -2),
            (np.int64(-1), np.float32(0.1)),
            (np.float64(0.5), 3),
            (2**53 + 1, np.float32(np.inf)),
        )
        expected = ((-math.inf, -2.0), (-1.0, 0.10000000149011612), (0.5, 3.0), (9007199254740992.0, math.inf))
        for e in (IntervalUnion1D(intervals=raw), normalize(raw), normalize(reversed(raw))):
            assert e.intervals == expected
            assert all(type(x) is float for pair in e.intervals for x in pair)
        for lo, hi in ((-math.inf, math.inf), (np.float32(-np.inf), np.float64(np.inf))):
            assert IntervalUnion1D(intervals=((lo, hi),)).intervals == ((-math.inf, math.inf),)
            assert normalize([(lo, hi)]).intervals == ((-math.inf, math.inf),)


class TestValidation:
    def test_halfspace_requires_unit_vector(self):
        with pytest.raises(ValueError):
            HalfSpace(omega=(0.5, 0.5), s=0.0)
        with pytest.raises(ValueError):
            HalfSpace(omega=(), s=0.0)
        with pytest.raises(ValueError):
            HalfSpace(omega=(1.0,), s=math.inf)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "must be a real number, got True"),
            ("0.1", "must be a real number, got '0.1'"),
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (10**400, "must be finite, got 1000"),
        ],
    )
    def test_halfspace_refuses_one_bad_component_among_many(self, bad, message):
        omega = list(random_unit_vector(1705, 100_000))
        omega[5] = bad
        with pytest.raises(ValueError, match=f"^HalfSpace: omega component {message}"):
            HalfSpace(omega=tuple(omega), s=0.0)

    def test_halfspace_components_read_as_plain_floats(self):
        omega = random_unit_vector(1705, 100_000)
        h = HalfSpace(omega=omega, s=0.0)
        assert h.omega == tuple(map(float, omega))
        assert all(type(c) is float for c in h.omega)
        assert HalfSpace(omega=(0, -1), s=0.5).omega == (0.0, -1.0)
        mixed = HalfSpace(omega=(np.float64(0.6), np.float32(0.0), np.int64(0), -0.8), s=0.0).omega
        assert mixed == (0.6, 0.0, 0.0, -0.8)
        assert all(type(c) is float for c in mixed)
        assert HalfSpace(omega=(np.float32(1.0),), s=0.0).omega == (1.0,)

    def test_ball_requires_positive_radius_integer_dim(self):
        with pytest.raises(ValueError):
            CenteredBall(dim=2, radius=0.0)
        with pytest.raises(ValueError):
            CenteredBall(dim=0, radius=1.0)
        with pytest.raises(ValueError):
            CenteredBall(dim=2.0, radius=1.0)  # type: ignore[arg-type]

    def test_slab_requires_profile(self):
        with pytest.raises(ValueError):
            SlabSet(dim=0, profile=normalize([(0.0, 1.0)]))
        with pytest.raises(ValueError):
            SlabSet(dim=2, profile=((0.0, 1.0),))  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "make",
        [lambda n: SlabSet(dim=n, profile=normalize([(0.0, 1.0)])), lambda n: CenteredBall(dim=n, radius=1.0)],
        ids=["slab", "ball"],
    )
    def test_dim_stays_in_the_int64_range_a_batch_stores(self, make):
        top = make(2**63 - 1)
        assert sets._batch((top,)).dims.tolist() == [2**63 - 1]
        for n in (2**63, 10**20):
            with pytest.raises(ValueError, match=r"dim must be at most 2\*\*63 - 1, got "):
                make(n)

    def test_dimension(self):
        assert dimension(normalize([(0.0, 1.0)])) == 1
        assert dimension(HalfSpace(omega=(0.0, 1.0), s=0.0)) == 2
        assert dimension(SlabSet(dim=3, profile=normalize([(0.0, 1.0)]))) == 3
        assert dimension(CenteredBall(dim=4, radius=1.0)) == 4


class TestMeasure:
    def test_halfspace_at_zero_exact(self):
        assert measure(HalfSpace(omega=(1.0,), s=0.0)) == 0.5

    def test_whole_line(self):
        assert measure(normalize([(-math.inf, math.inf)])) == 1.0

    def test_two_ray_half_mass(self):
        assert measure(two_ray(A0)) == pytest.approx(0.5, abs=1e-15)

    def test_two_ray_matches_target_level(self):
        # construction at level -1: each ray carries half of gauss_cdf(-1)
        a = -1.4096087092934546  # gauss_cdf_inv(gauss_cdf(-1)/2), inverse-CDF oracle
        e = two_ray(a)
        assert measure(e) == pytest.approx(PHI_M1, rel=1e-13)

    def test_right_tail_interval_relative_accuracy(self):
        # (10, 11): both cdf values round to 1.0 in the naive orientation
        e = normalize([(10.0, 11.0)])
        expected = gauss_cdf(-10.0) - gauss_cdf(-11.0)
        assert expected > 0.0
        assert measure(e) == expected

    def test_ball_2_1_frozen(self):
        assert measure(CenteredBall(dim=2, radius=1.0)) == pytest.approx(
            BALL21_MASS, rel=1e-15
        )

    def test_ball_mc_cross_check(self):
        for dim, radius in [(2, 1.0), (3, 1.5), (5, 2.0)]:
            b = CenteredBall(dim=dim, radius=radius)
            est, se = mc_measure(b, n_samples=200_000, seed=4711 + dim)
            assert abs(est - measure(b)) <= 4.0 * se

    def test_slab_equals_profile(self):
        prof = normalize([(-1.0, 0.5), (1.0, math.inf)])
        assert measure(SlabSet(dim=3, profile=prof)) == measure(prof)

    def test_quadrature_oracle_on_random_unions(self):
        rng = np.random.default_rng(515001)
        settings = QuadSettings(abs_tol=1e-13, rel_tol=1e-13)
        for _ in range(50):
            e = random_union(rng, int(rng.integers(1, 5)))
            if e.component_count == 0:
                continue
            total = 0.0
            for lo, hi in e.intervals:
                total += adaptive_quad(gauss_density, lo, hi, settings).value
            assert measure(e) == pytest.approx(total, rel=1e-11, abs=1e-14)


def _branchy_interval_mass(lo, hi):
    # the four-branch form that took each ray and the full line apart
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    if lo == -math.inf and hi == math.inf:
        return 1.0
    if lo == -math.inf:
        return phi(hi)
    if hi == math.inf:
        return phi(-lo)
    if lo + hi > 0.0:
        return phi(-lo) - phi(-hi)
    return phi(hi) - phi(lo)


class TestIntervalMass:
    """The two-branch mirror rule gives the four-branch form's bits."""

    def check(self, pairs):
        assert [sets._interval_mass(lo, hi).hex() for lo, hi in pairs] == [
            _branchy_interval_mass(lo, hi).hex() for lo, hi in pairs
        ]

    def test_rays_and_the_full_line(self):
        ends = np.linspace(-45.0, 45.0, 9_001).tolist() + [
            sign * x for x in (0.0, 5e-324, 1e-300, 8.3, 38.5, 1e154, 1e308) for sign in (1.0, -1.0)
        ]
        self.check([(-math.inf, math.inf)] + [(-math.inf, x) for x in ends] + [(x, math.inf) for x in ends])
        assert sets._interval_mass(-math.inf, math.inf) == 1.0

    def test_random_pairs_mirrored_and_not(self):
        rng = np.random.default_rng(38)
        pairs = np.sort(rng.normal(0.0, 6.0, (100_000, 2)), axis=1).tolist()
        pairs += [(-0.0, 0.0), (-1e308, 1e308), (1e308, 1.7e308), (-1.7e308, -1e308), (8.3, 38.5)]
        mirrored = [(-hi, -lo) for lo, hi in pairs]
        assert sum(lo + hi > 0.0 for lo, hi in pairs) > 40_000
        self.check(pairs + mirrored)


class TestPerimeter:
    def test_halfspace(self):
        assert perimeter(HalfSpace(omega=(1.0,), s=0.6)) == gauss_weight(0.6)

    def test_two_ray_frozen(self):
        assert perimeter(two_ray(A0)) == pytest.approx(PERIM_E0, rel=1e-15)

    def test_whole_line_zero(self):
        assert perimeter(normalize([(-math.inf, math.inf)])) == 0.0

    def test_ball_2_1_frozen(self):
        assert perimeter(CenteredBall(dim=2, radius=1.0)) == pytest.approx(
            BALL21_PERIM, rel=1e-15
        )

    def test_ball_1d_matches_interval(self):
        for r in (0.3, 1.0, 2.5):
            b = CenteredBall(dim=1, radius=r)
            e = normalize([(-r, r)])
            assert perimeter(b) == pytest.approx(perimeter(e), rel=1e-15)
            assert measure(b) == pytest.approx(measure(e), rel=1e-13)

    def test_ball_perimeter_is_measure_derivative(self):
        # sqrt(2 pi) * d(measure)/dR central difference, h = 1e-6
        h = 1e-6
        for dim, radius in [(2, 1.0), (3, 1.5), (7, 2.0)]:
            hi = measure(CenteredBall(dim=dim, radius=radius + h))
            lo = measure(CenteredBall(dim=dim, radius=radius - h))
            deriv = (hi - lo) / (2.0 * h)
            assert perimeter(CenteredBall(dim=dim, radius=radius)) == pytest.approx(
                SQRT_2PI * deriv, rel=1e-8
            )

    def test_slab_equals_profile(self):
        prof = normalize([(-1.0, 0.5)])
        assert perimeter(SlabSet(dim=4, profile=prof)) == perimeter(prof)

    # sqrt(2 pi) times the chi density at r = sqrt(n), from mpmath at 40 digits
    @pytest.mark.parametrize(
        "dim,expected,rel",
        [
            (250, 1.4132710695413162, 1e-12),
            (1000, 1.4139778797848852, 1e-12),
            (100_000, 1.4142112053524551, 1e-9),
        ],
    )
    def test_high_dim_ball_matches_chi_density(self, dim, expected, rel):
        assert perimeter(CenteredBall(dim=dim, radius=math.sqrt(dim))) == pytest.approx(expected, rel=rel)

    def test_ball_is_finite_in_every_dimension(self):
        # the sphere-area form overflowed to inf at dim 250 and raised from dim 299
        for dim in (1, 2, 170, 250, 299, 300, 1000, 10_000, 100_000):
            for radius in (0.5 * math.sqrt(dim), math.sqrt(dim), 2.0 * math.sqrt(dim)):
                ball = CenteredBall(dim=dim, radius=radius)
                assert 0.0 <= perimeter(ball) < 2.0
                assert 0.0 <= measure(ball) <= 1.0
        assert 0.0 < measure(CenteredBall(dim=300, radius=math.sqrt(300.0))) < 1.0


class TestBarycenter:
    def test_halfspace_direction_and_magnitude(self):
        h = HalfSpace(omega=(0.0, 1.0), s=0.0)
        b = barycenter(h)
        assert b.shape == (2,)
        assert b[0] == 0.0
        assert b[1] == pytest.approx(-INV_SQRT_2PI, rel=1e-15)
        assert np.linalg.norm(barycenter(h)) == pytest.approx(INV_SQRT_2PI, rel=1e-15)

    def test_half_line(self):
        e = normalize([(-math.inf, 0.0)])
        assert barycenter(e)[0] == pytest.approx(-INV_SQRT_2PI, rel=1e-15)

    def test_two_ray_exactly_zero(self):
        assert barycenter(two_ray(A0))[0] == 0.0

    def test_whole_line_zero(self):
        assert barycenter(normalize([(-math.inf, math.inf)]))[0] == 0.0

    def test_ball_zero_vector(self):
        b = barycenter(CenteredBall(dim=3, radius=1.2))
        assert b.shape == (3,)
        assert np.all(b == 0.0)

    def test_slab_embeds_on_last_axis(self):
        prof = normalize([(0.0, math.inf)])
        b = barycenter(SlabSet(dim=3, profile=prof))
        assert b.shape == (3,)
        assert b[0] == 0.0 and b[1] == 0.0
        assert b[2] == pytest.approx(INV_SQRT_2PI, rel=1e-15)

    def test_quadrature_oracle_on_random_unions(self):
        rng = np.random.default_rng(515002)
        settings = QuadSettings(abs_tol=1e-13, rel_tol=1e-13)
        for _ in range(50):
            e = random_union(rng, int(rng.integers(1, 5)))
            if e.component_count == 0:
                continue
            total = 0.0
            for lo, hi in e.intervals:
                total += adaptive_quad(lambda x: x * gauss_density(x), lo, hi, settings).value
            assert barycenter(e)[0] == pytest.approx(total, rel=1e-10, abs=1e-13)


class TestMassLevel:
    def test_halfspace_round_trip(self):
        for s in (-2.0, -0.3, 0.0, 1.7):
            assert mass_level(HalfSpace(omega=(1.0,), s=s)) == pytest.approx(s, abs=1e-12)

    def test_two_ray_at_zero(self):
        assert abs(mass_level(two_ray(A0))) <= 1e-14


class TestComplement:
    def test_interval_union(self):
        e = normalize([(-math.inf, -1.0), (1.0, math.inf)])
        assert complement(e).intervals == ((-1.0, 1.0),)

    def test_round_trip(self):
        e = normalize([(-2.0, -1.0), (0.0, 1.5)])
        assert complement(complement(e)).intervals == e.intervals

    def test_measures_add_to_one(self):
        rng = np.random.default_rng(515003)
        for _ in range(25):
            e = random_union(rng, int(rng.integers(1, 5)))
            assert measure(e) + measure(complement(e)) == pytest.approx(1.0, abs=1e-14)

    def test_halfspace(self):
        h = HalfSpace(omega=(0.0, 1.0), s=0.7)
        hc = complement(h)
        assert hc.omega == (0.0, -1.0)
        assert hc.s == -0.7
        assert measure(h) + measure(hc) == pytest.approx(1.0, abs=1e-15)

    def test_slab(self):
        e = SlabSet(dim=2, profile=normalize([(0.0, 1.0)]))
        ec = complement(e)
        assert isinstance(ec, SlabSet)
        assert ec.profile.intervals == ((-math.inf, 0.0), (1.0, math.inf))

    def test_ball_not_representable(self):
        with pytest.raises(ValueError):
            complement(CenteredBall(dim=2, radius=1.0))

    def test_pinned_types_and_errors(self):
        # each family's complement, its type and its values, and the two refusals
        cases = [
            (normalize([(-math.inf, -1.3), (-0.2, 0.45), (1.1, math.inf)]),
             "IntervalUnion1D(intervals=((-1.3, -0.2), (0.45, 1.1)))"),
            (normalize([]), "IntervalUnion1D(intervals=((-inf, inf),))"),
            (SlabSet(dim=5, profile=normalize([(2.5, 7.0), (8.0, math.inf)])),
             "SlabSet(dim=5, profile=IntervalUnion1D(intervals=((-inf, 2.5), (7.0, 8.0))))"),
            (HalfSpace(omega=(0.6, -0.8), s=0.3), "HalfSpace(omega=(-0.6, 0.8), s=-0.3)"),
            (HalfSpace(omega=(0.0, 1.0), s=0.7), "HalfSpace(omega=(-0.0, -1.0), s=-0.7)"),
        ]
        for e, expected in cases:
            c = complement(e)
            assert type(c) is type(e)
            assert repr(c) == expected
            assert complement(c) == e
        with pytest.raises(ValueError, match="^complement of a centered ball is not representable here$"):
            complement(CenteredBall(dim=2, radius=1.0))
        with pytest.raises(TypeError, match="^unsupported set representation: str$"):
            complement("(0, 1)")


class TestSymmDiff:
    def test_identical_halfline_zero(self):
        e = normalize([(-math.inf, 0.3)])
        assert symm_diff_measure(e, HalfSpace(omega=(1.0,), s=0.3)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_halfline_vs_shifted(self):
        e = normalize([(-math.inf, 0.0)])
        got = symm_diff_measure(e, HalfSpace(omega=(1.0,), s=1.0))
        assert got == pytest.approx(PHI_1 - 0.5, rel=1e-14)

    def test_halfline_vs_opposite_direction(self):
        # {x < 0} vs {-x < -1} = {x > 1}: disjoint, masses add
        e = normalize([(-math.inf, 0.0)])
        got = symm_diff_measure(e, HalfSpace(omega=(-1.0,), s=-1.0))
        assert got == pytest.approx(0.5 + PHI_M1, rel=1e-14)

    def test_halfspace_vs_halfspace_same_direction(self):
        a = HalfSpace(omega=(0.0, 1.0), s=0.0)
        h = HalfSpace(omega=(0.0, 1.0), s=2.0)
        assert symm_diff_measure(a, h) == pytest.approx(PHI_2 - 0.5, rel=1e-14)

    def test_halfspace_vs_halfspace_opposite_direction(self):
        a = HalfSpace(omega=(0.0, 1.0), s=1.0)
        h = HalfSpace(omega=(0.0, -1.0), s=0.0)
        # {u < 1} vs {u > 0}: overlap (0, 1), masses PHI_1 and 0.5
        expected = PHI_1 + 0.5 - 2.0 * (PHI_1 - 0.5)
        assert symm_diff_measure(a, h) == pytest.approx(expected, rel=1e-13)

    def test_non_collinear_raises(self):
        a = HalfSpace(omega=(0.0, 1.0), s=0.0)
        h = HalfSpace(omega=(1.0, 0.0), s=0.0)
        with pytest.raises(ValueError, match="collinear"):
            symm_diff_measure(a, h)

    def test_dim_mismatch_raises(self):
        e = normalize([(-math.inf, 0.0)])
        with pytest.raises(ValueError, match="dimension 2 does not match"):
            symm_diff_measure(e, HalfSpace(omega=(0.0, 1.0), s=0.0))

    def test_slab_aligned(self):
        prof = normalize([(-1.0, 1.0)])
        e = SlabSet(dim=3, profile=prof)
        h = HalfSpace(omega=(0.0, 0.0, 1.0), s=0.0)
        expected = symm_diff_measure(prof, HalfSpace(omega=(1.0,), s=0.0))
        assert symm_diff_measure(e, h) == pytest.approx(expected, rel=1e-14)

    def test_slab_misaligned_raises(self):
        e = SlabSet(dim=2, profile=normalize([(-1.0, 1.0)]))
        h = HalfSpace(omega=(1.0, 0.0), s=0.0)
        with pytest.raises(ValueError, match="collinear"):
            symm_diff_measure(e, h)

    def test_ball_vs_center_halfspace(self):
        # cutting through the center leaves exactly half the ball on each side
        b = CenteredBall(dim=2, radius=1.0)
        h = HalfSpace(omega=(1.0, 0.0), s=0.0)
        expected = BALL21_MASS + 0.5 - 2.0 * (BALL21_MASS / 2.0)
        assert symm_diff_measure(b, h) == pytest.approx(expected, abs=1e-10)

    def test_ball_inside_halfspace(self):
        b = CenteredBall(dim=2, radius=1.0)
        h = HalfSpace(omega=(0.0, 1.0), s=2.0)
        assert symm_diff_measure(b, h) == pytest.approx(PHI_2 - BALL21_MASS, rel=1e-13)

    def test_ball_disjoint_from_halfspace(self):
        b = CenteredBall(dim=2, radius=1.0)
        h = HalfSpace(omega=(0.0, 1.0), s=-1.5)
        expected = BALL21_MASS + gauss_cdf(-1.5)
        assert symm_diff_measure(b, h) == pytest.approx(expected, rel=1e-13)

    def test_ball_1d_matches_interval(self):
        b = CenteredBall(dim=1, radius=1.0)
        e = normalize([(-1.0, 1.0)])
        for s in (-0.5, 0.0, 0.8):
            h = HalfSpace(omega=(1.0,), s=s)
            assert symm_diff_measure(b, h) == pytest.approx(
                symm_diff_measure(e, h), rel=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 3, 10, 50, 200])
    @pytest.mark.parametrize("radius", [0.1, 1.0, 3.0, 15.0])
    def test_ball_halves_add_up_to_the_ball(self, dim, radius):
        # {x.omega < s} and {x.omega < -s} cut the ball into mirror pieces
        b = CenteredBall(dim=dim, radius=radius)
        for s in (0.0, 0.3 * radius, 0.9 * radius):
            lower = sets._ball_halfspace_mass(dim, radius, s)
            upper = sets._ball_halfspace_mass(dim, radius, -s)
            assert lower + upper == pytest.approx(measure(b), rel=1e-12, abs=1e-15)

    def test_ball_unconverged_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(sets, "_SLICE_SETTINGS", QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=1))
        b = CenteredBall(dim=3, radius=4.0)
        h = HalfSpace(omega=(0.0, 0.0, 1.0), s=0.4)
        with pytest.raises(ValueError, match=r"dim=3, radius=4\.0, s=0\.4"):
            symm_diff_measure(b, h)

    @pytest.mark.parametrize("dim,radius,s", [(2, 2.46, 0.0), (6, 1.95, 0.2)])
    def test_ball_slice_converges_shallow(self, monkeypatch, dim, radius, s):
        # the slice radius has a square-root edge at t = -R in t, which took
        # bisection 39,975 evaluations at (2, 2.46, 0); in theta it is smooth
        monkeypatch.setattr(sets, "_SLICE_SETTINGS", QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=8))
        lower = sets._ball_halfspace_mass(dim, radius, s)
        upper = sets._ball_halfspace_mass(dim, radius, -s)
        assert lower + upper == pytest.approx(measure(CenteredBall(dim=dim, radius=radius)), rel=1e-12)

    def test_ball_mc_cross_check(self):
        b = CenteredBall(dim=3, radius=1.5)
        h = HalfSpace(omega=(0.0, 0.0, 1.0), s=0.4)
        rng = np.random.default_rng(515005)
        pts = rng.standard_normal((400_000, 3))
        in_b = contains_points(b, pts)
        in_h = contains_points(h, pts)
        xor = in_b ^ in_h
        est = float(np.mean(xor))
        se = math.sqrt(est * (1.0 - est) / len(pts))
        assert abs(symm_diff_measure(b, h) - est) <= 4.0 * se


    #: SHA-256 of the ``float.hex`` values of ``symm_diff_measure`` on the
    #: 400 pairs of ``seeded_profile_pairs``, recorded while the profile
    #: branch still clipped each interval by a scalar loop of its own.
    FROZEN_PROFILE_DIGEST = "cfcf79dc33b2567d6ab1934869bb1a00863dd48308c29186219beefb0053cd5f"

    @staticmethod
    def seeded_profile_pairs():
        """200 seeded profile sets (lines, slabs, half-spaces), each with a
        collinear half-space in both orientations."""
        for i in range(200):
            rng = np.random.default_rng([2026, i])
            k = int(rng.integers(1, 5))
            points = np.sort(rng.normal(0.0, 2.0, 2 * k)).tolist()
            if rng.random() < 0.3:
                points[0] = -math.inf
            if rng.random() < 0.3:
                points[-1] = math.inf
            profile = normalize(list(zip(points[0::2], points[1::2])))
            if i % 4 == 3:
                v = rng.standard_normal(3)
                axis = tuple((v / math.sqrt(sum(c * c for c in v.tolist()))).tolist())
                e = HalfSpace(omega=axis, s=float(rng.normal(0.0, 2.0)))
            elif i % 4 == 2:
                n = int(rng.integers(2, 6))
                e = SlabSet(dim=n, profile=profile)
                axis = (0.0,) * (n - 1) + (1.0,)
            else:
                e, axis = profile, (1.0,)
            cut = float(rng.normal(0.0, 2.0))
            for sign in (1.0, -1.0):
                yield e, HalfSpace(omega=tuple(sign * c for c in axis), s=cut)

    def test_profiles_keep_their_bits(self):
        hexes = [symm_diff_measure(e, h).hex() for e, h in self.seeded_profile_pairs()]
        assert len(hexes) == 400
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == self.FROZEN_PROFILE_DIGEST

    #: ``float.hex`` of ``symm_diff_measure`` of the centered ball B_R in
    #: dimension n against {x_1 < s}, for s = -1, 0.3 and the ball's own mass
    #: level (0.1 where that level is outside (-R, R)), recorded while the
    #: quadrature oracle still had a shortcut for all-finite panels. These
    #: balls are the only package path whose panels are all finite.
    FROZEN_BALLS = {
        (2, 0.5): ('0x1.1ac9413e354c3p-2', '0x1.10d9a3cbfbf00p-1', '0x1.04defef5e70aep-1'),
        (2, 1.5): ('0x1.7508b8ae87843p-1', '0x1.a8278eb3e507ap-2', '0x1.7e9a01bb86184p-2'),
        (2, 3.0): ('0x1.ada5bf87857dcp-1', '0x1.87ebe04f05688p-2', '0x1.0f9335bfb6a40p-6'),
        (2, 8.0): ('0x1.aec4bd120d373p-1', '0x1.87423a677e914p-2', '0x1.8c00000000000p-46'),
        (3, 0.5): ('0x1.84205c8d1086cp-3', '0x1.2fc8a87128354p-1', '0x1.0fa8ddf4a71d4p-1'),
        (3, 1.5): ('0x1.2a247a5b7c43ap-1', '0x1.d6d595a1d5896p-2', '0x1.03f9f8d0e3314p-1'),
        (3, 3.0): ('0x1.aa3af4c2175a4p-1', '0x1.89fb4c3112160p-2', '0x1.794842f4b3520p-5'),
        (3, 8.0): ('0x1.aec4bd120d323p-1', '0x1.87423a677e948p-2', '0x1.6080000000000p-43'),
        (5, 0.5): ('0x1.480a64876474ep-3', '0x1.3bae49adac11dp-1', '0x1.141b21f92b24ap-1'),
        (5, 1.5): ('0x1.5615ca2e62b37p-2', '0x1.1794e520a7d6ap-1', '0x1.6a13ee1c3ba56p-2'),
        (5, 3.0): ('0x1.969090bcedef0p-1', '0x1.9631a77cfae8cp-2', '0x1.54ab16aee8eb8p-3'),
        (5, 8.0): ('0x1.aec4bd120c7d3p-1', '0x1.87423a677f018p-2', '0x1.f4d8000000000p-39'),
        (10, 0.5): ('0x1.44ed2a7abcabfp-3', '0x1.3c5edb566a122p-1', '0x1.14644cb39d17ep-1'),
        (10, 1.5): ('0x1.50fd7bcdb0596p-3', '0x1.3adbc9de1cfe2p-1', '0x1.13dbf3dca0507p-1'),
        (10, 3.0): ('0x1.0c4227d752611p-1', '0x1.f183f86e5044ep-2', '0x1.020e34b8b7a3ap-1'),
        (10, 8.0): ('0x1.aec4bd10881f4p-1', '0x1.87423a686bca0p-2', '0x1.5889380000000p-30'),
        (50, 0.5): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
        (50, 1.5): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
        (50, 3.0): ('0x1.44ed0bb86b872p-3', '0x1.3c5ee2cc2b55ap-1', '0x1.146450751ee09p-1'),
        (50, 8.0): ('0x1.93c8e8cce5a5ap-1', '0x1.991fa39b459bcp-2', '0x1.3ac1eb12b9ec0p-3'),
        (200, 0.5): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
        (200, 1.5): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
        (200, 3.0): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
        (200, 8.0): ('0x1.44ed0bb7cb20cp-3', '0x1.3c5ee2cc40b78p-1', '0x1.1464507526871p-1'),
    }

    @pytest.mark.parametrize("dim, radius", list(FROZEN_BALLS))
    def test_balls_keep_their_bits(self, dim, radius):
        ball = CenteredBall(dim=dim, radius=radius)
        own = mass_level(ball)
        if not -radius < own < radius:
            own = 0.1
        omega = (1.0,) + (0.0,) * (dim - 1)
        hexes = tuple(symm_diff_measure(ball, HalfSpace(omega=omega, s=s)).hex() for s in (-1.0, 0.3, own))
        assert hexes == self.FROZEN_BALLS[dim, radius]


class TestContainsPoints:
    def test_interval_membership(self):
        e = normalize([(0.0, 1.0), (2.0, math.inf)])
        pts = np.array([[-1.0], [0.5], [1.5], [3.0]])
        assert contains_points(e, pts).tolist() == [False, True, False, True]

    def test_halfspace_membership(self):
        h = HalfSpace(omega=(0.0, 1.0), s=0.0)
        pts = np.array([[5.0, -0.1], [5.0, 0.1]])
        assert contains_points(h, pts).tolist() == [True, False]

    def test_slab_membership(self):
        e = SlabSet(dim=2, profile=normalize([(0.0, 1.0)]))
        pts = np.array([[9.0, 0.5], [0.5, 9.0]])
        assert contains_points(e, pts).tolist() == [True, False]

    def test_slab_reads_its_last_coordinate(self):
        # x . e_n is x_n bit for bit, so reading the column changes no membership
        rng = np.random.default_rng(1706)
        for dim in (2, 3, 4, 5):
            e = SlabSet(dim=dim, profile=normalize([(-math.inf, -0.4), (0.2, 0.9), (1.5, math.inf)]))
            pts = rng.standard_normal((20_000, dim))
            along = pts @ np.eye(dim)[-1]
            assert along.tobytes() == pts[:, -1].tobytes()
            assert np.array_equal(contains_points(e, pts), contains_points(e.profile, along[:, None]))

    def test_ball_membership(self):
        b = CenteredBall(dim=2, radius=1.0)
        pts = np.array([[0.5, 0.5], [1.0, 1.0]])
        assert contains_points(b, pts).tolist() == [True, False]

    def test_shape_validation(self):
        e = normalize([(0.0, 1.0)])
        with pytest.raises(ValueError):
            contains_points(e, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            contains_points(e, np.zeros(3))


class TestMcMeasure:
    def test_halfspace_within_4_sigma(self):
        h = HalfSpace(omega=(1.0,), s=0.0)
        est, se = mc_measure(h, n_samples=100_000, seed=99)
        assert se > 0.0
        assert abs(est - 0.5) <= 4.0 * se

    def test_deterministic_for_fixed_seed(self):
        e = normalize([(-1.0, 0.5), (1.0, math.inf)])
        assert mc_measure(e, n_samples=50_000, seed=7) == mc_measure(
            e, n_samples=50_000, seed=7
        )

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            mc_measure(normalize([(0.0, 1.0)]), n_samples=0)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            mc_measure(normalize([(0.0, 1.0)]), n_samples=True)

    def test_memory_does_not_grow_with_dimension(self):
        # a dim-100 half-space draws one scalar x . omega per sample, so the
        # 200,000 draws hold 1.6 MB of floats and their masks, not 200,000 rows
        h = HalfSpace(omega=(0.1,) * 100, s=0.3)
        tracemalloc.start()
        try:
            p, se = mc_measure(h, n_samples=200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # the bits of the estimate when it was drawn in one block
        assert (p.hex(), se.hex()) == ("0x1.3c9e44fa05144p-1", "0x1.1cc033bfb3371p-10")

    @pytest.mark.parametrize(
        "e",
        [CenteredBall(dim=dim, radius=math.sqrt(dim)) for dim in range(2, 11)]
        + [
            SlabSet(dim=4, profile=normalize([(-math.inf, -0.8), (0.1, 1.3)])),
            HalfSpace(omega=(0.48, -0.6, 0.64), s=-0.4),
        ],
        ids=lambda e: f"{type(e).__name__}-{dimension(e)}",
    )
    def test_statistic_and_point_draws_agree_with_measure(self, e):
        # reference: membership of whole points in R^n, the law the drawn statistic stands for
        n = dimension(e)
        rng = np.random.default_rng(1701 + n)
        inside = contains_points(e, rng.standard_normal((200_000, n)))
        ref = float(np.mean(inside))
        ref_se = math.sqrt(ref * (1.0 - ref) / len(inside))
        est, se = mc_measure(e, n_samples=200_000, seed=1702 + n)
        assert abs(ref - measure(e)) <= 6.0 * ref_se
        assert abs(est - measure(e)) <= 6.0 * se

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CenteredBall(dim=100_000, radius=math.sqrt(100_000.0)),
            lambda: CenteredBall(dim=1_000_000, radius=math.sqrt(1_000_000.0 + 1414.0)),
            lambda: HalfSpace(omega=random_unit_vector(1703, 100_000), s=0.7),
        ],
        ids=["ball-1e5", "ball-1e6", "halfspace-1e5"],
    )
    def test_high_dimension_agrees_with_measure(self, make):
        # built in the test, not while the tests are collected
        e = make()
        est, se = mc_measure(e, n_samples=200_000, seed=1704)
        assert 0.05 < measure(e) < 0.95
        assert abs(est - measure(e)) <= 6.0 * se

    def test_high_dimension_slab_builds_no_axis(self):
        # a dim-10^6 axis would be an 8 MB tuple; the estimate is the profile's
        e = SlabSet(dim=1_000_000, profile=normalize([(-math.inf, -0.3), (0.5, 1.2)]))
        tracemalloc.start()
        try:
            n = dimension(e)
            p, se = mc_measure(e, n_samples=10_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert n == 1_000_000
        assert (p.hex(), se.hex()) == ("0x1.2666666666666p-1", "0x1.43f8fe1bc21eep-8")

    def test_one_dimensional_bits_hold(self):
        # pinned from the point sampler, which drew blocks of 200,000 rows of
        # shape (m, 1): a 1-D union reads the same normals in the same order,
        # so 450,001 draws in blocks give the same bits
        e = normalize([(-math.inf, -2.0), (-0.5, 0.25), (3.0, math.inf)])
        p, se = mc_measure(e, n_samples=450_001, seed=11)
        assert (p.hex(), se.hex()) == ("0x1.42b3e0676b51fp-2", "0x1.6b17513c77081p-11")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_blocks_count_as_one_draw(self, seed):
        # 200,001 draws fill four blocks; the hits are those of one draw of n
        n = 200_001
        ball = CenteredBall(dim=7, radius=2.5)
        x = np.random.default_rng(seed).chisquare(7, n)
        assert mc_measure(ball, n_samples=n, seed=seed)[0] == np.count_nonzero(x < 6.25) / n
        profile = normalize([(-math.inf, -1.1), (0.2, 0.9), (2.0, math.inf)])
        x = np.random.default_rng(seed).standard_normal(n)
        inside = (x < -1.1) | ((x > 0.2) & (x < 0.9)) | (x > 2.0)
        p = np.count_nonzero(inside) / n
        for e in (profile, SlabSet(dim=3, profile=profile)):
            assert mc_measure(e, n_samples=n, seed=seed) == (p, math.sqrt(p * (1.0 - p) / n))

    @pytest.mark.parametrize("seed", [True, 1.5])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            mc_measure(normalize([(0.0, 1.0)]), n_samples=10, seed=seed)


class TestBatch:
    MEMBERS = [
        normalize([(-math.inf, -1.3), (-0.2, 0.45), (1.1, math.inf)]),
        two_ray(-9.0),
        HalfSpace(omega=(0.6, -0.8), s=0.3),
        SlabSet(dim=5, profile=normalize([(2.5, 7.0)])),
        CenteredBall(dim=300, radius=17.0),
        normalize([]),
    ]

    def test_rows_are_the_scalar_rows(self):
        columns = sets._rows(sets._batch(self.MEMBERS))
        for i, e in enumerate(self.MEMBERS):
            assert [float(c[i]).hex() for c in columns] == [float(v).hex() for v in sets._row(e)], i

    def test_members_rebuild_the_sets(self):
        batch = sets._batch(self.MEMBERS)
        assert list(sets._members(batch, [5, 4, 3, 1, 0])) == [self.MEMBERS[i] for i in (5, 4, 3, 1, 0)]
        # a half-space row keeps its profile, not its direction
        with pytest.raises(ValueError, match="row 2 is a half-space"):
            list(sets._members(batch))

    def test_huge_finite_endpoints_stay_silent(self):
        # -0.5 x x and lo + hi overflow to +-inf on the batch path as in the
        # scalar floats, with no warning and with the same bits
        members = [
            IntervalUnion1D(intervals=((-1e200, 0.5),)),
            IntervalUnion1D(intervals=((0.0, 1.0), (9e307, 1.7e308))),
            IntervalUnion1D(intervals=((-1.7e308, -9e307), (0.0, 1.0))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = quantity_columns(members)
        for i, e in enumerate(members):
            row = [columns[k][i].hex() for k in ("measure", "perimeter", "b", "excess")]
            assert row == [v.hex() for v in sets._row(e)], i

    def test_empty_batch(self):
        assert all(c.shape == (0,) and c.dtype == float for c in sets._rows(sets._batch(())))

    def test_interval_masses_are_the_scalar_masses(self):
        # rays, the full line, the mirrored branch (lo + hi > 0), its edge
        # lo + hi = 0, and endpoints out to |x| = 40
        grid = np.linspace(-40.0, 40.0, 1601).tolist()
        rng = np.random.default_rng(11)
        bounded = np.sort(rng.normal(0.0, 8.0, (20_000, 2)), axis=1).tolist()
        pairs = (
            [(-math.inf, math.inf)]
            + [(-math.inf, x) for x in grid]
            + [(x, math.inf) for x in grid]
            + [(-x, x) for x in grid if x > 0.0]
            + [(x, x + 1e-9) for x in grid]
            + [(lo, hi) for lo, hi in bounded if lo < hi]
        )
        lo, hi = (np.array(c) for c in zip(*pairs))
        masses = sets._interval_masses(lo, hi)
        assert [m.hex() for m in masses.tolist()] == [sets._interval_mass(a, b).hex() for a, b in pairs]

    def test_clipped_masses_are_the_scalar_clipped_masses(self):
        rng = np.random.default_rng(5)
        members = self.MEMBERS + [random_union(rng, k) for k in range(1, 6) for _ in range(40)]
        batch = sets._batch(members)
        n = len(members)
        rows = np.arange(n) % 7 != 3
        cut = rng.normal(0.0, 2.0, n)
        above = rng.random(n) < 0.5
        clipped = sets._clipped_masses(batch, rows, cut, above)
        for i, e in enumerate(members):
            # the scalar oracle: each interval cut to the window, added left to right
            expected = 0.0
            if rows[i]:
                lo_cut, hi_cut = (-cut[i], math.inf) if above[i] else (-math.inf, cut[i])
                for lo, hi in sets._profile(e)[2]:
                    lo, hi = max(lo, lo_cut), min(hi, hi_cut)
                    if lo < hi:
                        expected += sets._interval_mass(lo, hi)
            assert clipped[i].hex() == expected.hex(), i


class TestJsonDescriptors:
    def test_intervals_round_trip_with_inf(self):
        e = normalize([(-math.inf, -1.0), (0.0, 2.0), (3.0, math.inf)])
        d = set_to_dict(e)
        assert d == {
            "type": "intervals",
            "items": [["-inf", -1.0], [0.0, 2.0], [3.0, "inf"]],
        }
        back = set_from_json(set_to_json(e))
        assert isinstance(back, IntervalUnion1D)
        assert back.intervals == e.intervals

    def test_halfspace_round_trip(self):
        h = HalfSpace(omega=(0.0, 1.0), s=-0.75)
        back = set_from_json(set_to_json(h))
        assert back == h

    def test_slab_round_trip(self):
        for dim in (3, np.int64(3)):
            e = SlabSet(dim=dim, profile=normalize([(-1.0, math.inf)]))
            assert type(e.dim) is int
            back = set_from_json(set_to_json(e))
            assert back == e

    def test_ball_round_trip(self):
        for dim in (4, np.int64(4)):
            b = CenteredBall(dim=dim, radius=1.25)
            assert type(b.dim) is int
            back = set_from_json(set_to_json(b))
            assert back == b

    def test_pinned_text_per_family(self):
        # one descriptor per family, key order included
        cases = [
            (normalize([(-math.inf, -1.3), (-0.2, 0.45), (1.1, math.inf)]),
             '{"type": "intervals", "items": [["-inf", -1.3], [-0.2, 0.45], [1.1, "inf"]]}'),
            (normalize([]), '{"type": "intervals", "items": []}'),
            (HalfSpace(omega=(0.6, -0.8), s=0.3), '{"type": "halfspace", "omega": [0.6, -0.8], "s": 0.3}'),
            (HalfSpace(omega=(-0.0, 1), s=-2), '{"type": "halfspace", "omega": [-0.0, 1.0], "s": -2.0}'),
            (SlabSet(dim=5, profile=normalize([(2.5, 7.0), (8.0, math.inf)])),
             '{"type": "slab", "dim": 5, "profile": [[2.5, 7.0], [8.0, "inf"]]}'),
            (CenteredBall(dim=300, radius=17.0), '{"type": "ball", "dim": 300, "radius": 17.0}'),
        ]
        for e, text in cases:
            assert set_to_json(e) == text
            assert set_from_json(text) == e
        with pytest.raises(TypeError, match="^unsupported set representation: float$"):
            set_to_dict(3.0)

    def test_parse_literal_grammar(self):
        e = set_from_json('{"type": "intervals", "items": [["-inf", 0], [1, 2.5]]}')
        assert isinstance(e, IntervalUnion1D)
        assert e.intervals == ((-math.inf, 0.0), (1.0, 2.5))

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown type"):
            set_from_dict({"type": "polygon"})

    def test_rejects_bad_endpoint_string(self):
        with pytest.raises(ValueError, match="endpoint"):
            set_from_dict({"type": "intervals", "items": [["oo", 1]]})

    def test_rejects_non_list_items(self):
        with pytest.raises(ValueError):
            set_from_dict({"type": "intervals", "items": "nope"})
        with pytest.raises(ValueError):
            set_from_dict({"type": "intervals", "items": [[0, 1, 2]]})

    def test_rejects_int_endpoint_past_the_float_range(self):
        for big in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="^set descriptor: endpoint must be finite, got -?1000"):
                set_from_dict({"type": "intervals", "items": [[-1, big]]})
        # a float literal past the range reads as inf, as "inf" does
        assert set_from_json('{"type": "intervals", "items": [[-1, 1e400]]}') == normalize([(-1.0, math.inf)])

    def test_rejects_bool_endpoint(self):
        with pytest.raises(ValueError):
            set_from_dict({"type": "intervals", "items": [[True, 1]]})

    def test_rejects_bad_halfspace(self):
        with pytest.raises(ValueError):
            set_from_dict({"type": "halfspace", "s": 0.0})
        with pytest.raises(ValueError):
            set_from_dict({"type": "halfspace", "omega": [1.0], "s": "zero"})
        with pytest.raises(ValueError, match="HalfSpace: s must be a real number"):
            set_from_dict({"type": "halfspace", "omega": [1.0], "s": True})

    def test_rejects_bad_slab_and_ball(self):
        with pytest.raises(ValueError):
            set_from_dict({"type": "slab", "dim": "two", "profile": []})
        with pytest.raises(ValueError):
            set_from_dict({"type": "ball", "dim": 2, "radius": "big"})
        with pytest.raises(ValueError, match="CenteredBall: radius must be a real number"):
            set_from_dict({"type": "ball", "dim": 2, "radius": True})
        shapes = {"slab": {"profile": [[0.0, 1.0]]}, "ball": {"radius": 1.0}}
        for kind, name in (("slab", "SlabSet"), ("ball", "CenteredBall")):
            for dim in ({"dim": True}, {"dim": 3.0}, {"dim": "3"}, {}):
                with pytest.raises(ValueError, match=f"{name}: dim must be an integer"):
                    set_from_dict({"type": kind, **dim, **shapes[kind]})

    def test_readme_descriptors_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Set descriptors:\n\n```json\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        assert len(lines) == 4
        for line in lines:
            set_from_json(line)

    def test_invalid_json_text(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            set_from_json("{not json")

    def test_missing_type(self):
        with pytest.raises(ValueError, match="type"):
            set_from_dict({"items": []})
