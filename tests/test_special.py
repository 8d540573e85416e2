"""Closed-form special functions against frozen oracle values and properties.

Frozen constants below were computed with the package's adaptive quadrature
oracle (and, for inverse values, bisection against that oracle) and then
pinned; see test_quadrature.py for the oracle's own validation.
"""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc, log_ndtr, ndtri

import gaussiso
from gaussiso import special
from gaussiso.functionals import FunctionalParams, quantity_columns, stability_params
from gaussiso.optimize import mass_sweep, minimize_penalized_functional
from gaussiso.quadrature import adaptive_quad
from gaussiso.sets import CenteredBall, HalfSpace, IntervalUnion1D, SlabSet, barycenter, two_ray_set
from gaussiso.special import (
    SQRT_2PI,
    _check_real,
    _chi2_cdf_many,
    _chi2_quantile_many,
    _gauss_cdf_inv_many,
    _gauss_cdf_inv_unchecked,
    _gauss_cdf_many,
    _gauss_cdf_unchecked,
    _gauss_weight_many,
    chi2_cdf,
    chi2_quantile,
    gauss_cdf,
    gauss_cdf_inv,
    gauss_density,
    gauss_weight,
    log_gauss_cdf,
)
from gaussiso.stationarity import second_derivative_along_flow
from gaussiso.verify import CheckRecord, SuiteConfig

# Oracle-derived (adaptive quadrature / bisection), frozen.
PHI_MINUS_1 = 0.15865525393145707
PHI_INV_QUARTER = -0.6744897501960817
PM_1_2 = 0.18797975800595532
CHI2_2_1 = 0.3934693402873665


class TestGaussCdf:
    def test_frozen_values(self):
        assert gauss_cdf(0.0) == 0.5
        assert gauss_cdf(-1.0) == pytest.approx(PHI_MINUS_1, rel=1e-15, abs=0.0)
        assert gauss_cdf(-math.inf) == 0.0
        assert gauss_cdf(math.inf) == 1.0

    def test_matches_quadrature_oracle(self):
        # rel err <= 1e-14 against the independent integral route on |s| <= 8
        for s in np.linspace(-8.0, 8.0, 33):
            ref = adaptive_quad(gauss_density, -math.inf, float(s)).value
            assert gauss_cdf(float(s)) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_symmetry_and_monotonicity(self):
        grid = np.linspace(-8.0, 8.0, 201)
        vals = [gauss_cdf(float(s)) for s in grid]
        for s, v in zip(grid, vals):
            assert v + gauss_cdf(float(-s)) == pytest.approx(1.0, abs=1e-15)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            gauss_cdf(math.nan)


class TestGaussCdfInv:
    def test_frozen_value(self):
        # bisection against the quadrature CDF gave -0.6744897501960818 (1 ulp)
        assert gauss_cdf_inv(0.25) == pytest.approx(PHI_INV_QUARTER, abs=5e-16)

    def test_endpoints(self):
        assert gauss_cdf_inv(0.0) == -math.inf
        assert gauss_cdf_inv(1.0) == math.inf

    def test_rejects_outside_unit_interval(self):
        for p in (-0.1, 1.1, math.nan, 2.0):
            with pytest.raises(ValueError):
                gauss_cdf_inv(p)

    def test_round_trip_s(self):
        # right side capped near 5: beyond that the float spacing of p near 1
        # exceeds what 1e-10 recovery in s allows for any implementation
        for s in np.linspace(-8.0, 5.0, 79):
            assert gauss_cdf_inv(gauss_cdf(float(s))) == pytest.approx(float(s), abs=1e-10)
        assert gauss_cdf_inv(gauss_cdf(-2.0)) == pytest.approx(-2.0, abs=1e-10)

    def test_round_trip_p_extremes(self):
        for p in (1e-300, 1e-200, 1e-100, 1e-15, 1e-6, 0.5, 1 - 1e-10, 1 - 1e-16):
            assert gauss_cdf(gauss_cdf_inv(p)) == pytest.approx(p, rel=1e-12)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _masked_gauss_cdf_many(x):
    """``_gauss_cdf_many`` through its infinity mask, whatever ``x`` holds."""
    cdf = (x > 0.0).astype(float)
    at = ~np.isinf(x)
    cdf[at] = 0.5 * special._elementwise(math.erfc, -x[at] / math.sqrt(2.0))
    return cdf


def _masked_gauss_weight_many(x):
    """``_gauss_weight_many`` through its infinity mask, whatever ``x`` holds."""
    weight = np.zeros(len(x))
    at = ~np.isinf(x)
    x = x[at]
    with np.errstate(over="ignore"):
        weight[at] = special._elementwise(math.exp, -0.5 * x * x)
    return weight


class TestVectorCdf:
    """The vector normal CDF, its inverse and the vector weight equal the scalar ones bit for bit."""

    X = np.concatenate([
        np.linspace(-40.0, 40.0, 80_001),
        np.random.default_rng(3).normal(0.0, 6.0, 20_000),
        [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 38.5, -38.5, 40.0, -40.0],
        [1e154, -1e154, 1e308, -1e308],
    ])

    def test_cdf_is_the_scalar_cdf(self):
        assert hexes(_gauss_cdf_many(self.X)) == hexes(gauss_cdf(v) for v in self.X.tolist())
        assert _gauss_cdf_many(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]

    def test_weight_is_the_scalar_weight(self):
        assert hexes(_gauss_weight_many(self.X)) == hexes(gauss_weight(v) for v in self.X.tolist())
        assert _gauss_weight_many(np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]

    def test_nan_goes_through_libm(self):
        # the scalar forms refuse NaN; the twins give what libm gives, beside an infinity
        x = np.array([math.nan, -math.inf, math.nan, math.inf])
        assert hexes(_gauss_cdf_many(x)) == [_gauss_cdf_unchecked(math.nan).hex(), "0x0.0p+0", "nan", "0x1.0000000000000p+0"]
        assert hexes(_gauss_weight_many(x)) == [math.exp(-0.5 * math.nan * math.nan).hex(), "0x0.0p+0", "nan", "0x0.0p+0"]

    @pytest.mark.parametrize(
        "extra",
        [[], [math.nan], [math.inf, -math.inf], [math.nan, -math.inf, math.nan, math.inf]],
        ids=["finite", "nan", "inf", "nan-and-inf"],
    )
    def test_unmasked_path_is_the_masked_path(self, extra):
        # an array with no infinity goes to libm whole, with or without NaN
        x = np.concatenate([self.X[np.isfinite(self.X)], extra])
        assert hexes(_gauss_cdf_many(x)) == hexes(_masked_gauss_cdf_many(x))
        assert hexes(_gauss_weight_many(x)) == hexes(_masked_gauss_weight_many(x))

    def test_empty_arrays(self):
        assert _gauss_cdf_many(np.empty(0)).tolist() == []
        assert _gauss_weight_many(np.empty(0)).tolist() == []

    def test_inverse_is_the_scalar_inverse(self):
        p = np.concatenate([
            np.linspace(0.0, 1.0, 100_001),
            _gauss_cdf_many(np.linspace(-38.0, 8.0, 20_001)),
            [0.0, 1.0, 5e-324, 1e-300, 1e-17, 2.0**-53, 1.0 - 2.0**-53, 0.5],
        ])
        scalar = hexes(gauss_cdf_inv(v) for v in p.tolist())
        assert hexes(_gauss_cdf_inv_many(p)) == scalar
        assert hexes(map(_gauss_cdf_inv_unchecked, p.tolist())) == scalar
        assert _gauss_cdf_inv_many(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, -math.inf])
    def test_inverse_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            _gauss_cdf_inv_many(np.array([0.5, bad]))


class TestLibmAtInfinity:
    """The vector CDF and weight call ``math.erfc`` and ``math.exp`` at no infinite point."""

    @staticmethod
    def libm_arguments(monkeypatch):
        """Every array that reaches ``math.erfc`` or ``math.exp`` through ``_elementwise``, in any module."""
        seen = []
        elementwise = special._elementwise

        def spy(f, x):
            if f in (math.erfc, math.exp):
                seen.append(np.array(x))
            return elementwise(f, x)

        for name, module in list(sys.modules.items()):
            if name.startswith("gaussiso.") and getattr(module, "_elementwise", None) is elementwise:
                monkeypatch.setattr(module, "_elementwise", spy)
        return seen

    def test_paper_weight_minimize_calls_libm_at_no_infinity(self, monkeypatch):
        seen = self.libm_arguments(monkeypatch)
        for s in (0.0, -1.0):
            minimize_penalized_functional(s, stability_params(s), k_max=3)
        assert sum(map(len, seen)) > 1000
        assert sum(np.count_nonzero(np.isinf(x)) for x in seen) == 0

    def test_columns_of_sets_with_rays_call_libm_at_no_infinity(self, monkeypatch):
        inf = math.inf
        sets = [
            IntervalUnion1D(intervals=((-inf, -1.0), (0.5, 2.0))),
            IntervalUnion1D(intervals=((-0.3, inf),)),
            IntervalUnion1D(intervals=((-inf, -2.0), (-1.0, 1.0), (3.0, inf))),
            two_ray_set(-0.5),
            HalfSpace(omega=(0.6, 0.8), s=-0.5),
            SlabSet(dim=3, profile=IntervalUnion1D(intervals=((1.0, inf),))),
            CenteredBall(dim=4, radius=2.0),
        ]
        seen = self.libm_arguments(monkeypatch)
        cols = quantity_columns(sets)
        assert np.isfinite(cols["deficit"]).all()
        assert sum(map(len, seen)) >= 20
        assert sum(np.count_nonzero(np.isinf(x)) for x in seen) == 0


class TestLogGaussCdf:
    def test_matches_direct_log_moderate(self):
        for s in np.linspace(-8.0, 2.0, 51):
            assert log_gauss_cdf(float(s)) == pytest.approx(math.log(gauss_cdf(float(s))), rel=1e-13)

    def test_far_tail_finite(self):
        v = log_gauss_cdf(-40.0)
        assert math.isfinite(v)
        # dominant term -s^2/2 = -800
        assert v == pytest.approx(-800.0, rel=1e-2)


class TestWeightAndDensity:
    def test_weight_values(self):
        assert gauss_weight(0.0) == 1.0
        assert gauss_weight(-1.0) == pytest.approx(math.exp(-0.5), rel=1e-16)
        assert gauss_weight(math.inf) == 0.0
        assert gauss_weight(-math.inf) == 0.0

    def test_density_normalization(self):
        r = adaptive_quad(gauss_density, -math.inf, math.inf)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_density_is_weight_over_sqrt_2pi(self):
        for x in (-3.0, -0.5, 0.0, 1.7):
            assert gauss_density(x) == pytest.approx(gauss_weight(x) / SQRT_2PI, rel=1e-16)


def partial_moment(a: float, b: float) -> float:
    """First Gaussian moment over (a, b): the barycenter of that one interval."""
    return barycenter(IntervalUnion1D(intervals=((a, b),)))[0]


class TestPartialMoment:
    def test_frozen_values(self):
        assert partial_moment(1.0, 2.0) == pytest.approx(PM_1_2, rel=1e-15)
        # left tail moment is minus the half-space barycenter weight
        assert partial_moment(-math.inf, -1.0) == pytest.approx(-0.24197072451914337, rel=1e-15)
        assert partial_moment(-math.inf, math.inf) == 0.0

    def test_symmetric_interval_vanishes(self):
        for a in (0.3, 1.0, 2.5):
            assert partial_moment(-a, a) == 0.0

    def test_antisymmetry(self):
        for a, b in ((-1.3, 0.2), (0.1, 2.2), (-3.0, -1.0)):
            assert partial_moment(a, b) == pytest.approx(-partial_moment(-b, -a), rel=1e-15, abs=1e-18)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            partial_moment(2.0, 1.0)

    def test_against_quadrature_corpus(self):
        # 1000 random intervals: closed form vs independent integral route
        rng = np.random.default_rng(20318)
        for _ in range(1000):
            a, b = np.sort(rng.normal(0.0, 2.0, 2))
            ref = adaptive_quad(lambda x: x * gauss_density(x), float(a), float(b))
            assert ref.converged
            assert partial_moment(float(a), float(b)) == pytest.approx(ref.value, rel=1e-11, abs=1e-13)


class TestChi2:
    def test_frozen_values(self):
        assert chi2_cdf(2, 1.0) == pytest.approx(CHI2_2_1, rel=1e-14)
        assert chi2_cdf(2, 1.0) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-14)
        assert chi2_cdf(1, 4.0) == pytest.approx(2.0 * gauss_cdf(2.0) - 1.0, rel=1e-14)
        assert chi2_cdf(5, 0.0) == 0.0
        assert chi2_cdf(3, math.inf) == 1.0
        assert chi2_cdf(np.int64(3), 1.0) == chi2_cdf(3, 1.0)

    def test_monotone_in_t(self):
        for dim in (1, 2, 7):
            vals = [chi2_cdf(dim, float(t)) for t in np.linspace(0.0, 30.0, 61)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_cdf(2, -0.5)
        with pytest.raises(ValueError):
            chi2_cdf(2.5, 1.0)  # type: ignore[arg-type]

    def test_quantile_round_trip(self):
        for dim in (1, 2, 4, 9):
            for p in (0.01, 0.25, 0.5, 0.9, 0.99):
                assert chi2_cdf(dim, chi2_quantile(dim, p)) == pytest.approx(p, rel=1e-12)

    def test_vector_quantile_is_the_scalar_quantile(self):
        rng = np.random.default_rng(5)
        dims = rng.integers(1, 1001, size=10_000)
        p = np.concatenate([rng.uniform(0.0, 1.0, size=9_996), [0.0, 5e-324, 0.5, 1.0 - 2.0**-53]])
        assert hexes(_chi2_quantile_many(dims, p)) == hexes(chi2_quantile(n, q) for n, q in zip(dims, p.tolist()))

    def test_vector_cdf_is_the_scalar_cdf(self):
        # every dimension a ball slice reads (1 to 11), at the edges and at
        # 5,000 points per dimension spread over the distribution's bulk and tails
        rng = np.random.default_rng(6)
        edges = [0.0, 5e-324, 1e-300, 0.5, 1e300, math.inf]
        for dim in range(1, 12):
            t = np.concatenate([rng.gamma(0.5 * dim, 2.0, size=4_000), rng.uniform(0.0, 200.0, size=1_000), edges])
            assert hexes(_chi2_cdf_many(dim, t)) == hexes(chi2_cdf(dim, x) for x in t.tolist())
        dims = rng.integers(1, 12, size=1_000)
        t = rng.uniform(0.0, 40.0, size=1_000)
        assert hexes(_chi2_cdf_many(dims, t)) == hexes(chi2_cdf(n, x) for n, x in zip(dims.tolist(), t.tolist()))

    def test_against_monte_carlo_norms(self):
        # independent oracle: sums of squares of standard normal draws,
        # cumulative over dimensions so one 1e6-draw block covers dims 1..10
        rng = np.random.default_rng(777001)
        n = 1_000_000
        sq = rng.standard_normal((n, 10)) ** 2
        cum = np.cumsum(sq, axis=1)
        for dim in range(1, 11):
            t = 0.5 + 0.9 * dim
            hits = float(np.mean(cum[:, dim - 1] < t))
            se = math.sqrt(max(hits * (1 - hits), 1e-12) / n)
            assert abs(chi2_cdf(dim, t) - hits) < 4.0 * se


# The scalar forms as they were when each handled its edge points with a
# branch of its own; the branch-free forms must return the same bits.
def _branchy_gauss_cdf(s):
    if math.isinf(s):
        return 0.0 if s < 0.0 else 1.0
    return 0.5 * math.erfc(-s / math.sqrt(2.0))


def _branchy_gauss_cdf_inv(p):
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return float(ndtri(p))


def _branchy_log_gauss_cdf(s):
    if math.isinf(s):
        return -math.inf if s < 0.0 else 0.0
    return float(log_ndtr(s))


def _branchy_gauss_weight(x):
    return 0.0 if math.isinf(x) else math.exp(-0.5 * x * x)


def _branchy_gauss_density(x):
    return 0.0 if math.isinf(x) else math.exp(-0.5 * x * x) / SQRT_2PI


def _branchy_chi2_cdf(dim, t):
    return 1.0 if math.isinf(t) else float(gammainc(0.5 * dim, 0.5 * t))


EDGE_X = [
    sign * x for x in (math.inf, 0.0, 5e-324, 1e-300, 8.3, 38.5, 1e154, 1e308) for sign in (1.0, -1.0)
] + np.linspace(-45.0, 45.0, 90_001).tolist() + np.logspace(-320, 308, 2_000).tolist()
EDGE_P = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0] + np.linspace(0.0, 1.0, 20_001).tolist()


class TestEdgesWithoutBranches:
    """Each scalar form reaches its edge points through the formula its vector
    twin uses: erfc, exp, ndtri and gammainc are exact there, bit for bit
    with the branches they replace."""

    @pytest.mark.parametrize(
        "new, old",
        [
            (gauss_cdf, _branchy_gauss_cdf),
            (log_gauss_cdf, _branchy_log_gauss_cdf),
            (gauss_weight, _branchy_gauss_weight),
            (gauss_density, _branchy_gauss_density),
        ],
        ids=["gauss_cdf", "log_gauss_cdf", "gauss_weight", "gauss_density"],
    )
    def test_reals_match_the_branchy_form(self, new, old):
        assert hexes(map(new, EDGE_X)) == hexes(map(old, EDGE_X))

    def test_inverse_matches_the_branchy_form(self):
        assert hexes(map(gauss_cdf_inv, EDGE_P)) == hexes(map(_branchy_gauss_cdf_inv, EDGE_P))

    def test_log_cdf_at_inf_is_plus_zero(self):
        # log_ndtr(inf) is -0.0; the one branch left keeps the sign bit off
        assert log_gauss_cdf(math.inf).hex() == "0x0.0p+0"

    def test_chi2_at_inf_is_one_in_every_dimension(self):
        dims = sorted({n for k in range(64) for n in (2**k - 1, 2**k, 2**k + 1) if 1 <= n < 2**63} | set(range(1, 2_001)))
        assert dims[-1] == 2**63 - 1
        assert hexes(chi2_cdf(n, math.inf) for n in dims) == hexes(_branchy_chi2_cdf(n, math.inf) for n in dims)


def _flow_step(h):
    # a small velocity keeps steps 1.5 and 2 inside the flow's mass range
    return second_derivative_along_flow(two_ray_set(0.0), stability_params(0.0), np.array([0.01, -0.01]), h=h)


def _record(**kw):
    return CheckRecord(**{"name": "x", "anchor": "y", "samples": 1, "violations": 0, "worst_margin": 0.1, **kw})


# Every real parameter routed through _check_real: (call, a value past the
# site's bound or None, two NumPy scalars the site accepts).
REAL_SITES = {
    "HalfSpace.s": (lambda v: HalfSpace(omega=(1.0,), s=v).s, None, None),
    "HalfSpace.omega": (lambda v: HalfSpace(omega=(v,), s=0.0).omega[0], None, (np.float32(1.0), np.int64(-1))),
    "CenteredBall.radius": (lambda v: CenteredBall(dim=2, radius=v).radius, 0.0, None),
    "FunctionalParams.s": (lambda v: FunctionalParams(s=v, eps=1.0, lambda_pen=1.0).s, None, None),
    "FunctionalParams.eps": (lambda v: FunctionalParams(s=0.0, eps=v, lambda_pen=1.0).eps, -1e-300, None),
    "FunctionalParams.lambda_pen": (
        lambda v: FunctionalParams(s=0.0, eps=1.0, lambda_pen=v).lambda_pen, -1.0, None,
    ),
    "stability_params.s": (lambda v: stability_params(v).s, None, None),
    "SuiteConfig.main_constant": (lambda v: SuiteConfig(main_constant=v).main_constant, 0.0, None),
    "CheckRecord.worst_margin": (lambda v: _record(worst_margin=v).worst_margin, None, None),
    "CheckRecord.wall_time": (lambda v: _record(wall_time=v).wall_time, -1.0, None),
    "second_derivative_along_flow.h": (_flow_step, 0.0, None),
    "mass_sweep.level": (lambda v: mass_sweep([v])[0].s, None, (np.float32(-1.5), np.int64(-2))),
}


def _reference_check_real(value, what, sign=None):
    """``_check_real`` with every input on one path, plain floats included."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if sign is not None and not (x > 0.0 if sign == "positive" else x >= 0.0):
        raise ValueError(f"{what} must be {sign}, got {value!r}")
    return x


class _Real(float):
    pass


CHECK_REAL_INPUTS = [
    0.0, -0.0, 5e-324, 1.5, -1.5, 1.7e308, math.inf, -math.inf, math.nan, _Real(2.5), _Real(-0.0),
    np.float64(-1.5), np.float32(0.25), True, 1, 10**400, "1",
]


class TestCheckReal:
    @pytest.mark.parametrize("sign", [None, "positive", "nonnegative"])
    def test_plain_floats_skip_the_type_test_with_the_same_result(self, sign):
        for value in CHECK_REAL_INPUTS:
            outcomes = []
            for check in (_check_real, _reference_check_real):
                try:
                    x = check(value, "w", sign)
                    outcomes.append((type(x), x.hex()))
                except ValueError as exc:
                    outcomes.append((ValueError, str(exc)))
            assert outcomes[0] == outcomes[1], value

    def test_wording(self):
        assert _check_real(np.float32(0.5), "w") == 0.5
        with pytest.raises(ValueError, match=r"^w must be a real number, got True$"):
            _check_real(True, "w")
        with pytest.raises(ValueError, match=r"^w must be finite, got nan$"):
            _check_real(math.nan, "w")
        with pytest.raises(ValueError, match=r"^w must be finite, got 1000"):
            _check_real(10**400, "w")  # an int float() cannot hold
        with pytest.raises(ValueError, match=r"^w must be positive, got 0$"):
            _check_real(0, "w", "positive")
        with pytest.raises(ValueError, match=r"^w must be nonnegative, got -0.5$"):
            _check_real(-0.5, "w", "nonnegative")
        assert _check_real(0, "w", "nonnegative") == 0.0

    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    @pytest.mark.parametrize("value", [True, "1", None, math.nan, math.inf, -math.inf])
    def test_site_refuses_non_reals(self, site, value):
        with pytest.raises(ValueError):
            REAL_SITES[site][0](value)

    @pytest.mark.parametrize("site", sorted(n for n, (_, bad, _) in REAL_SITES.items() if bad is not None))
    def test_site_refuses_values_past_its_bound(self, site):
        call, bad, _ = REAL_SITES[site]
        with pytest.raises(ValueError, match="positive|nonnegative"):
            call(bad)

    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    def test_site_takes_numpy_scalars_as_floats(self, site):
        call, _, accepted = REAL_SITES[site]
        for value in accepted or (np.float32(1.5), np.int64(2)):
            got = call(value)
            assert type(got) is float
            assert got == call(float(value))


#: The grids of the first-call check: s with -37, 0, 1 and +-inf; p with 0,
#: 1 and Phi(-37); chi-square arguments with 0 and inf.
FIRST_CALL_GRIDS = """
import math
import numpy as np
from gaussiso.special import _gauss_cdf_inv_many, chi2_cdf, chi2_quantile, gauss_cdf, gauss_cdf_inv, log_gauss_cdf
S = [-math.inf, -37.0, 0.0, 1.0, math.inf] + np.linspace(-40.0, 10.0, 5001).tolist()
Q = [0.0, gauss_cdf(-37.0)] + np.linspace(0.0, 1.0, 5001)[:-1].tolist() + np.logspace(-300, -1, 600).tolist()
P = Q + [1.0]
T = [0.0, 1.0, math.inf] + np.linspace(0.0, 100.0, 2001).tolist()
DIMS = (1, 2, 3, 10, 1000)
"""

#: Per lazily bound function: an invalid first call, its message, the grid
#: through the function and the same grid through SciPy as ``sp``.
FIRST_CALLS = {
    "gauss_cdf_inv": (
        "gauss_cdf_inv(1.5)",
        "gauss_cdf_inv: probability must lie in [0, 1], got 1.5",
        "[gauss_cdf_inv(p) for p in P]",
        "[sp.ndtri(p) for p in P]",
    ),
    "_gauss_cdf_inv_many": (
        "_gauss_cdf_inv_many(np.array([0.5, math.nan]))",
        "gauss_cdf_inv: probabilities must lie in [0, 1]",
        "_gauss_cdf_inv_many(np.array(P))",
        "sp.ndtri(np.array(P))",
    ),
    "log_gauss_cdf": (
        "log_gauss_cdf(math.nan)",
        "log_gauss_cdf: argument must not be NaN",
        "[log_gauss_cdf(s) for s in S]",
        "[sp.log_ndtr(s) for s in S]",
    ),
    "chi2_cdf": (
        "chi2_cdf(2, -1.0)",
        "chi2_cdf: t must be >= 0, got -1.0",
        "[chi2_cdf(n, t) for n in DIMS for t in T]",
        "[sp.gammainc(0.5 * n, 0.5 * t) for n in DIMS for t in T]",
    ),
    "chi2_quantile": (
        "chi2_quantile(2, 1.0)",
        "chi2_quantile: probability must lie in [0, 1), got 1.0",
        "[chi2_quantile(n, p) for n in DIMS for p in Q]",
        "[2.0 * sp.gammaincinv(0.5 * n, p) for n in DIMS for p in Q]",
    ),
}


class TestFirstCall:
    """special loads SciPy on the first call that needs it. In a fresh
    interpreter an invalid first call keeps its message and loads nothing;
    the first valid call, through the stub, and every later one, through the
    bound ufunc, equal SciPy's own ufunc bit for bit."""

    @pytest.mark.parametrize("name", sorted(FIRST_CALLS))
    def test_first_call_is_scipy_bit_for_bit(self, name):
        invalid, message, call, reference = FIRST_CALLS[name]
        code = FIRST_CALL_GRIDS + f"""
import sys
def scipy_modules():
    return [m for m in sys.modules if m.startswith("scipy")]
assert scipy_modules() == [], scipy_modules()
try:
    {invalid}
    raise AssertionError("no ValueError")
except ValueError as exc:
    assert str(exc) == {message!r}, str(exc)
assert scipy_modules() == [], scipy_modules()
got = list(map(float, {call}))
assert scipy_modules() != []
import scipy.special as sp
want = list(map(float, {reference}))
assert len(got) > 2000
assert got == want, [(g, w) for g, w in zip(got, want) if g != w][:5]
"""
        src = Path(gaussiso.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 0, out.stderr

    def test_only_special_names_a_stub(self):
        # the other modules reach SciPy's ufuncs through special's functions
        stubs = {"gammainc", "gammaincinv", "log_ndtr", "ndtri"}
        naming = set()
        for path in Path(gaussiso.__file__).resolve().parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                # a Name's id, an Attribute's attr, an import alias's (or a def's) name
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name in stubs:
                    naming.add(path.stem)
        assert naming == {"special"}

    def test_every_bound_ufunc_is_reached_through_a_checked_scalar_function(self):
        # each ufunc that _load_scipy binds is called by a function that the
        # first-call check compares with that ufunc, and no module keeps a
        # _vector_* twin beside the bit-exact forms
        package = Path(gaussiso.__file__).resolve().parent
        functions = {
            node.name: node
            for node in ast.parse((package / "special.py").read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
        bound = {a.name for node in ast.walk(functions["_load_scipy"]) if isinstance(node, ast.ImportFrom) for a in node.names}
        reached = set()
        for name, (*_, reference) in FIRST_CALLS.items():
            called = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)} & bound
            assert called == set(re.findall(r"\bsp\.(\w+)", reference)), name
            reached |= called
        assert reached == bound == {"gammainc", "gammaincinv", "log_ndtr", "ndtri"}
        for path in package.glob("*.py"):
            names = set()
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
            assert sorted(n for n in names if n.startswith("_vector_")) == [], path.name
