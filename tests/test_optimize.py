"""Tests for the minimizer (face search and multistart simplex), the
half-line family, and mass sweep.

Oracles:
- Half-line closed form e^{-s^2/2} + (eps/(4 pi)) e^{-s^2} for the minimum
  value at the stability constants (frozen below).
- Independent root-finding for the two-ray endpoint: bisection of
  2*CDF(a) = CDF(s) where the CDF is computed by adaptive quadrature of the
  density, independent of the closed-form inverse used in the implementation.
- Cancellation-free sweep ratios frozen from the closed forms after the
  plateau behavior was confirmed.
"""

import ast
import importlib
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussiso

from gaussiso import optimize
from gaussiso.functionals import (
    FunctionalParams,
    barycenter,
    max_barycenter_norm,
    penalized_functional,
    stability_params,
)
from gaussiso.optimize import (
    IntervalTemplate,
    MassSweepRow,
    OptimizerSettings,
    _BOUND_MARGIN,
    _MIN_SEPARATION,
    _endpoint_objective,
    _face_search,
    _grid_values,
    _multistart_search,
    _sublevel_bound,
    enumerate_templates,
    mass_sweep,
    minimize_penalized_functional,
)
from gaussiso.quadrature import QuadSettings, adaptive_quad
from gaussiso.sets import (
    IntervalUnion1D,
    half_line_set,
    measure,
    _two_ray_endpoints,
    symmetric_interval_halfwidth,
    two_ray_endpoint,
    two_ray_set,
)
from gaussiso.special import SQRT_2PI, gauss_cdf, gauss_cdf_inv, gauss_density
from gaussiso.stationarity import (
    boundary_points,
    euler_residual,
    lagrange_bound_check,
    second_variation_form,
)

# Frozen oracle values.
A_0 = -0.6744897501960817        # two-ray endpoint at level 0
A_M2 = -2.2776048388094594       # two-ray endpoint at level -2
A_M3 = -3.205154920598933        # two-ray endpoint at level -3
F_HALF_0 = 1.0002015720902075    # minimum value at s = 0, stability weights
F_HALF_M1 = 0.60659178953906     # minimum value at s = -1, stability weights
PERIM_E0 = 1.5930954842106313    # perimeter of the two-ray set at level 0
LAM_0 = 2.8284271247461903       # stability lambda at s = 0
LAM_PHI_M1 = 0.8577638849607074  # lambda(-1) * Phi(-1), profile edge value
DEFICIT_M2 = 0.014144410933699128
SWEEP_RATIOS = {
    -3.0: 1.3146143011346132,
    -5.0: 1.5440681817860369,
    -10.0: 1.6822357344896852,
    -15.0: 1.7122186997384574,
    -20.0: 1.7231180479512438,
}
ASYMPTOTE = 1.7374623212723181   # sqrt(2 pi) * ln 2

FAST = OptimizerSettings(multistarts=12, seed=7)


#: The paper's mass penalty at level -0.5 with eps = 20: the sublevel bound
#: (1.040) does not exceed the faces' best value (1.191), so the simplex search runs.
UNCERTIFIED = FunctionalParams(s=-0.5, eps=20.0, lambda_pen=stability_params(-0.5).lambda_pen)


def certified(params, k_max):
    """Whether the sublevel bound certifies the face search at these weights."""
    faces_best = min(d.final_value for _, d in _face_search(params, k_max))
    return _sublevel_bound(params) > faces_best * (1.0 + _BOUND_MARGIN)


class TestTemplates:
    @pytest.mark.parametrize("k_max, count", [(1, 3), (2, 7), (3, 11), (4, 15), (np.int64(2), 7)])
    def test_enumeration_counts(self, k_max, count):
        assert len(enumerate_templates(k_max)) == count

    def test_component_cap_enforced(self):
        templates = enumerate_templates(3)
        assert all(1 <= t.components <= 3 for t in templates)
        assert len(set(templates)) == len(templates)

    @pytest.mark.parametrize("k_max", [0, 5, -1])
    def test_invalid_cap_rejected(self, k_max):
        with pytest.raises(ValueError, match=r"\[1, 4\]"):
            enumerate_templates(k_max)

    @pytest.mark.parametrize("k_max", [True, 2.5, 2.0, "2", None])
    def test_non_integer_cap_rejected(self, k_max):
        with pytest.raises(ValueError, match="component cap must be an integer"):
            enumerate_templates(k_max)

    CAP_ERRORS = {
        0: "component cap must lie in [1, 4], got 0",
        5: "component cap must lie in [1, 4], got 5",
        2.0: "component cap must be an integer, got 2.0",
        True: "component cap must be an integer, got True",
    }

    @pytest.mark.parametrize(
        "params", [FunctionalParams(s=-1.0, eps=0.5, lambda_pen=2.0), UNCERTIFIED], ids=["face-search", "simplex"]
    )
    @pytest.mark.parametrize("k_max", list(CAP_ERRORS), ids=repr)
    def test_minimize_refuses_a_bad_cap_on_both_paths(self, params, k_max):
        for s in (params.s, params.s + 1.0):  # the cap is refused before the level is compared
            with pytest.raises(ValueError, match=re.escape(self.CAP_ERRORS[k_max]) + "$"):
                minimize_penalized_functional(s, params, k_max=k_max, settings=FAST)

    def test_face_search_builds_no_templates(self, monkeypatch):
        built = []

        def spy(k_max):
            built.append(k_max)
            return enumerate_templates(k_max)

        monkeypatch.setattr(optimize, "enumerate_templates", spy)
        for s in (0.0, -2.0):
            minimize_penalized_functional(s, stability_params(s), k_max=3)
        minimize_penalized_functional(-1.0, FunctionalParams(s=-1.0, eps=6.28, lambda_pen=1.0), k_max=2)
        assert built == []
        minimize_penalized_functional(-0.5, UNCERTIFIED, k_max=2, settings=FAST)
        assert built == [2]

    def test_decode_half_line(self):
        t = IntervalTemplate(left_ray=True, right_ray=False, bounded=0)
        assert t.decode(np.array([-1.5])).intervals == ((-math.inf, -1.5),)

    def test_decode_two_ray(self):
        t = IntervalTemplate(left_ray=True, right_ray=True, bounded=0)
        e = t.decode(np.array([A_0, -A_0]))
        assert e.intervals == ((-math.inf, A_0), (-A_0, math.inf))

    def test_decode_mixed_template(self):
        t = IntervalTemplate(left_ray=True, right_ray=True, bounded=1)
        e = t.decode(np.array([-2.0, -0.5, 0.5, 2.0]))
        assert e.intervals == ((-math.inf, -2.0), (-0.5, 0.5), (2.0, math.inf))
        assert t.dimension == 4
        assert t.components == 3

    def test_decode_rejects_wrong_length(self):
        t = IntervalTemplate(left_ray=True, right_ray=False, bounded=1)
        with pytest.raises(ValueError, match="needs 3 endpoints"):
            t.decode(np.array([0.0, 1.0]))

    def test_decode_rejects_unordered(self):
        t = IntervalTemplate(left_ray=False, right_ray=False, bounded=2)
        with pytest.raises(ValueError):
            t.decode(np.array([0.0, 1.0, 0.5, 2.0]))

    def test_template_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntervalTemplate(left_ray=True, right_ray=False, bounded=-1)
        with pytest.raises(ValueError, match="at least one"):
            IntervalTemplate(left_ray=False, right_ray=False, bounded=0)

    def test_describe_is_informative(self):
        t = IntervalTemplate(left_ray=True, right_ray=True, bounded=2)
        assert t.describe() == "left-ray+bounded+bounded+right-ray"

    @pytest.mark.parametrize("template", enumerate_templates(4), ids=IntervalTemplate.describe)
    def test_endpoint_objective_is_penalized_functional(self, template):
        # the search objective builds no set; on a valid layout it must equal
        # F of the decoded set bit for bit
        rng = np.random.default_rng(8801)
        cases = [
            stability_params(-1.5),
            stability_params(-0.3),
            stability_params(0.8),
            FunctionalParams(s=0.0, eps=10.0, lambda_pen=2.0),
        ]
        checked = 0
        while checked < 40:
            theta = np.sort(rng.normal(0.0, 2.0, template.dimension)).tolist()
            if any(hi - lo <= _MIN_SEPARATION for lo, hi in zip(theta, theta[1:])):
                continue
            params = cases[checked % len(cases)]
            objective = _endpoint_objective(template, params)
            direct = penalized_functional(template.decode(np.array(theta)), params)
            assert objective(theta).hex() == direct.hex(), theta
            checked += 1


class TestSettings:
    def test_defaults(self):
        s = OptimizerSettings()
        assert (s.multistarts, s.seed) == (64, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"multistarts": 0},
            {"seed": -1},
            {"multistarts": 2.5},
            {"multistarts": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerSettings(**kwargs)


class TestTwoRayEndpoint:
    @pytest.mark.parametrize(
        "s, expected", [(0.0, A_0), (-2.0, A_M2), (-3.0, A_M3)]
    )
    def test_frozen_values(self, s, expected):
        assert two_ray_endpoint(s) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
    def test_against_quadrature_bisection(self, s):
        # Independent oracle: solve 2*CDF(a) = CDF(s) with the CDF computed by
        # adaptive quadrature of the density, bisected to 1e-13.
        settings = QuadSettings(abs_tol=1e-14, rel_tol=1e-14, max_depth=60)

        def quad_cdf(x: float) -> float:
            return adaptive_quad(gauss_density, -math.inf, x, settings=settings).value

        target = quad_cdf(s)
        lo, hi = s - 5.0, s
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 2.0 * quad_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        assert two_ray_endpoint(s) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    @pytest.mark.parametrize("s", [-0.25, -1.5, -4.0, -10.0])
    def test_defining_equation_and_ordering(self, s):
        a = two_ray_endpoint(s)
        assert a < s
        assert 2.0 * gauss_cdf(a) == pytest.approx(gauss_cdf(s), rel=1e-12)

    @pytest.mark.parametrize("s", [0.3, 2.0, 8.2])
    def test_positive_levels_solve_the_defining_equations(self, s):
        # the named sets exist at every level: 2 Phi(a) = Phi(s) and
        # Phi(q) - Phi(-q) = Phi(s)
        a = two_ray_endpoint(s)
        q = symmetric_interval_halfwidth(s)
        assert a < 0.0 < q
        assert 2.0 * gauss_cdf(a) == pytest.approx(gauss_cdf(s), rel=1e-12)
        assert gauss_cdf(q) - gauss_cdf(-q) == pytest.approx(gauss_cdf(s), rel=1e-12)

    def test_vector_twin_keeps_the_scalar_bits(self):
        levels = np.concatenate([np.linspace(0.0, -4.0, 97), [-38.0, -40.0, 0.3, 8.2]])
        assert _two_ray_endpoints(levels).tolist() == [two_ray_endpoint(s) for s in levels.tolist()]

    def test_two_ray_set_properties(self):
        e = two_ray_set(-1.0)
        assert measure(e) == pytest.approx(gauss_cdf(-1.0), abs=1e-14)
        assert barycenter(e)[0] == 0.0

    def test_symmetric_interval_halfwidth(self):
        q = symmetric_interval_halfwidth(-1.0)
        e = IntervalUnion1D(intervals=((-q, q),))
        assert measure(e) == pytest.approx(gauss_cdf(-1.0), rel=1e-14)


def half_line_values(params, grid):
    """F of the half-line (-inf, t) at every t of the grid."""
    return np.array([penalized_functional(half_line_set(t), params) for t in grid.tolist()])


class TestHalfLineProfile:
    def test_argmin_at_level(self):
        params = stability_params(-1.0)
        grid = np.linspace(-6.0, 2.0, 8001)  # step 1e-3
        values = half_line_values(params, grid)
        assert grid[np.argmin(values)] == pytest.approx(-1.0, abs=1.0001e-3)

    def test_value_at_level_matches_closed_form(self):
        params = stability_params(-1.0)
        grid = np.linspace(-6.0, 2.0, 8001)
        values = half_line_values(params, grid)
        at_s = values[np.argmin(np.abs(grid + 1.0))]
        assert at_s == pytest.approx(F_HALF_M1, rel=1e-12)

    def test_negative_side_preferred(self):
        params = stability_params(-1.0)
        grid = np.linspace(-6.0, 2.0, 8001)
        values = half_line_values(params, grid)

        def value_at(t):
            return values[np.argmin(np.abs(grid - t))]

        for t in (0.5, 1.0, 2.0):
            assert value_at(-t) < value_at(t)

    def test_far_left_edge_approaches_penalty_limit(self):
        params = stability_params(-1.0)
        grid = np.linspace(-6.0, 2.0, 8001)
        values = half_line_values(params, grid)
        assert abs(values[0] - LAM_PHI_M1) < 1e-6

    def test_level_zero_argmin(self):
        params = stability_params(0.0)
        grid = np.linspace(-4.0, 4.0, 4001)
        values = half_line_values(params, grid)
        assert grid[np.argmin(values)] == pytest.approx(0.0, abs=2.1e-3)


class TestMinimize:
    def test_level_zero_returns_half_line(self):
        out = minimize_penalized_functional(0.0, stability_params(0.0), k_max=2, settings=FAST)
        assert len(out.best_set.intervals) == 1
        lo, hi = out.best_set.intervals[0]
        assert lo == -math.inf
        assert abs(hi) <= 1e-6
        assert out.best_value == pytest.approx(F_HALF_0, rel=1e-9)
        assert out.half_line_optimal
        assert out.target_mass == 0.5
        assert out.achieved_mass == pytest.approx(0.5, abs=1e-9)

    def test_level_minus_one_returns_half_line(self):
        out = minimize_penalized_functional(-1.0, stability_params(-1.0), k_max=3, settings=FAST)
        lo, hi = out.best_set.intervals[0]
        assert lo == -math.inf
        assert hi == pytest.approx(-1.0, abs=1e-6)
        assert out.best_value == pytest.approx(F_HALF_M1, rel=1e-9)
        assert out.half_line_optimal

    def test_deterministic_for_fixed_seed(self):
        first = minimize_penalized_functional(-0.5, stability_params(-0.5), k_max=2, settings=FAST)
        second = minimize_penalized_functional(-0.5, stability_params(-0.5), k_max=2, settings=FAST)
        assert first.best_value == second.best_value
        assert first.best_set.intervals == second.best_set.intervals
        assert [(d.final_value, d.endpoints) for d in first.starts] == [
            (d.final_value, d.endpoints) for d in second.starts
        ]

    def test_half_line_bound_holds(self):
        out = minimize_penalized_functional(-2.0, stability_params(-2.0), k_max=2, settings=FAST)
        assert out.best_value <= out.half_line_value + 1e-12

    def test_per_start_descent(self):
        out = minimize_penalized_functional(-0.5, stability_params(-0.5), k_max=2, settings=FAST)
        assert out.starts
        for diag in out.starts:
            if diag.converged:
                assert diag.final_value <= diag.start_value + 1e-9

    def test_returned_half_line_is_stationary(self):
        params = stability_params(-1.0)
        out = minimize_penalized_functional(-1.0, params, k_max=2, settings=FAST)
        report = euler_residual(out.best_set, params)
        assert report.max_dev < 1e-8
        assert lagrange_bound_check(report, params)

    def test_supercritical_eps_beats_half_line(self):
        # At eps = 10 the barycenter penalty inflates the half-line to
        # 1 + 10/(4 pi) while escaping toward full measure costs only
        # lambda/2; the two-ray set is a genuine local minimum on the way.
        params = FunctionalParams(s=0.0, eps=10.0, lambda_pen=LAM_0)
        out = minimize_penalized_functional(0.0, params, k_max=2, settings=FAST)
        assert not out.half_line_optimal
        assert out.best_value < out.half_line_value - 1e-3
        assert out.best_value == pytest.approx(LAM_0 / 2.0, abs=1e-9)
        assert out.achieved_mass > 0.9  # reported honestly, far from target 0.5
        two_ray_finals = [d.final_value for d in out.starts if d.kind == "two-ray"]
        assert two_ray_finals == [pytest.approx(PERIM_E0, rel=1e-9)]

    def test_simplex_names_no_degenerate_start_at_zero_mass(self):
        # Phi(-38.5) is 0: the kink holds only the empty set, so the simplex
        # starts from no two-ray set (-inf, -inf) u (inf, inf) and no interval
        params = FunctionalParams(s=-38.5, eps=10.0, lambda_pen=1.0)
        searched = _multistart_search(params, enumerate_templates(2), OptimizerSettings(multistarts=2))
        assert [d.kind for _, d in searched] == ["random", "random", "half-line"]
        assert all(math.isfinite(d.final_value) for _, d in searched)

    def test_diagnostics_cover_deterministic_kinds(self):
        out = minimize_penalized_functional(-0.5, UNCERTIFIED, k_max=2, settings=FAST)
        kinds = {d.kind for d in out.starts}
        assert {"half-line", "two-ray", "symmetric-interval", "random"} <= kinds
        assert sum(1 for d in out.starts if d.kind == "random") == FAST.multistarts

    def test_invalid_k_max_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, 4\]"):
            minimize_penalized_functional(0.0, stability_params(0.0), k_max=0, settings=FAST)

    def test_non_finite_level_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            minimize_penalized_functional(math.nan, stability_params(0.0), k_max=2, settings=FAST)

    @pytest.mark.parametrize("params", [stability_params(-0.5), UNCERTIFIED])
    def test_level_must_be_that_of_params(self, params):
        with pytest.raises(ValueError, match="equal params.s = -0.5, got -1.0"):
            minimize_penalized_functional(-1.0, params, k_max=2, settings=FAST)

    # from about 8.9885e307 on, 2 (|s| + 9) or the last grid point overflows
    @pytest.mark.parametrize("s", [9e307, -9e307, 8.98846567431158e307, 8.9885e307, 1.7e308])
    def test_level_whose_face_grids_overflow_is_refused(self, s):
        params = FunctionalParams(s=s, eps=1.0, lambda_pen=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("|s| must be at most 8.98e+307, where the face grids")):
                minimize_penalized_functional(s, params, k_max=3)

    @pytest.mark.parametrize("s", [8.98e307, -8.98e307])
    def test_largest_level_searches_finite_grids(self, s):
        params = FunctionalParams(s=s, eps=1.0, lambda_pen=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = minimize_penalized_functional(s, params, k_max=3)
        assert [d.kind for d in out.starts] == ["below-kink", "above-kink"]
        # every piece ends on its own grid, which spans [-(|s| + 9), |s| + 9]
        assert all(d.converged and abs(x) <= abs(s) + 9.0 for d in out.starts for x in d.endpoints)


class TestEvaluationBudget:
    @pytest.mark.parametrize("budget", [1, 3, 20])
    def test_budget_caps_evaluations_and_convergence(self, budget, monkeypatch):
        monkeypatch.setattr(optimize, "_BUDGET", budget)
        out = minimize_penalized_functional(-0.5, UNCERTIFIED, k_max=2, settings=FAST)
        assert len(out.starts) == 15
        for diag in out.starts:
            assert diag.evaluations <= budget
            # a search stops early only on the step and value tolerances
            assert diag.converged == (diag.evaluations < budget)
            # the starting vertex stays in the simplex until a better one replaces it
            assert diag.final_value <= diag.start_value


class TestRandomStarts:
    # (multistarts, seed, k_max): fewer starts than the 7 templates, 12 = 7 + 5
    # with a remainder, and a seed of two entropy words over 3 templates
    @pytest.mark.parametrize("multistarts, seed, k_max", [(4, 7, 2), (12, 7, 2), (5, 2**32 + 9, 1)])
    def test_start_i_draws_from_default_rng_seed_i(self, monkeypatch, multistarts, seed, k_max):
        starts = []

        def record(objective, x0):
            starts.append(list(x0))
            return list(x0), 0.0, 0, True

        monkeypatch.setattr(optimize, "_nelder_mead", record)
        templates = enumerate_templates(k_max)
        settings = OptimizerSettings(multistarts=multistarts, seed=seed)
        searched = _multistart_search(UNCERTIFIED, templates, settings)
        randoms = [template for template, d in searched if d.kind == "random"]
        assert [template for template, _ in searched[:multistarts]] == randoms
        # each template takes a block of starts, in order; the first `extra` take one more
        per_template, extra = divmod(multistarts, len(templates))
        assert [randoms.count(t) for t in templates] == [per_template + (j < extra) for j in range(len(templates))]
        assert randoms == sorted(randoms, key=templates.index)
        for i, template in enumerate(randoms):
            expected = np.sort(np.random.default_rng([seed, i]).normal(0.0, 2.0, template.dimension))
            assert starts[i] == expected.tolist()


def simplex_best(params, k_max, settings):
    """The lowest value any start of the simplex search reaches."""
    searched = _multistart_search(params, enumerate_templates(k_max), settings)
    return min(d.final_value for _, d in searched)


class TestFaceSearch:
    LEVELS = (0.7, 0.0, -1.0, -3.0)

    @pytest.mark.parametrize("s", LEVELS)
    def test_never_above_the_simplex(self, s):
        # weights from the paper's eps up to 100, with the mass penalty at
        # the paper's value, weak and absent; at eps = 6 with the paper's
        # penalty the symmetric interval (s = 0.7) or the two-ray set (s = -1)
        # beats the half-line. From eps = 2 pi on, the calls that the
        # sublevel bound certifies run the faces alone
        paper = stability_params(s)
        compared = 0
        for i, (eps, lam) in enumerate(
            (eps, lam)
            for eps in (paper.eps, 4.0, 6.0, 2.0 * math.pi, 10.0, 20.0, 100.0)
            for lam in (paper.lambda_pen, 0.3, 0.0)
        ):
            params = FunctionalParams(s=s, eps=eps, lambda_pen=lam)
            k_max = 1 + (i + i // 3) % 3
            if not certified(params, k_max):
                continue
            face = minimize_penalized_functional(s, params, k_max=k_max)
            assert "random" not in {d.kind for d in face.starts}
            simplex = simplex_best(params, k_max, OptimizerSettings(multistarts=11, seed=1))
            assert face.best_value <= simplex + 1e-12, (eps, lam, k_max)
            compared += 1
        assert compared >= 18

    def test_refines_an_asymmetric_two_ray_minimum(self):
        # a minimum inside the two-ray face, off its symmetric set, which only
        # the golden-section refinement reaches
        params = FunctionalParams(s=-0.25, eps=5.75, lambda_pen=3.78)
        out = minimize_penalized_functional(-0.25, params, k_max=2)
        (_, a), (b, _) = out.best_set.intervals
        assert a + b < -1.0
        assert [d.evaluations > 120 for d in out.starts if d.kind == "kink"] == [False, True]
        simplex = simplex_best(params, 2, OptimizerSettings(multistarts=11, seed=1))
        assert out.best_value <= simplex + 1e-12

    def test_both_searches_find_the_symmetric_interval(self):
        # at s > 0 too both searches start from the symmetric interval, which
        # beats the half-line here; its random starts alone leave an 11-start
        # simplex at the half-line's value
        params = FunctionalParams(s=0.7, eps=6.0, lambda_pen=stability_params(0.7).lambda_pen)
        out = minimize_penalized_functional(0.7, params, k_max=1)
        q = gauss_cdf_inv((1.0 + gauss_cdf(0.7)) / 2.0)
        assert out.best_set == IntervalUnion1D(intervals=((-q, q),))
        assert out.best_value < out.half_line_value - 0.05
        simplex = simplex_best(params, 1, OptimizerSettings(multistarts=11, seed=1))
        assert abs(simplex - out.best_value) <= 1e-12

    def test_runs_without_the_simplex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the simplex search ran below eps = 2 pi")

        monkeypatch.setattr(optimize, "_nelder_mead", refuse)
        params = FunctionalParams(s=-0.5, eps=2.0 * math.pi - 1e-9, lambda_pen=1.0)
        out = minimize_penalized_functional(-0.5, params, k_max=3, settings=FAST)
        assert out.best_value <= out.half_line_value + 1e-12

    def test_simplex_runs_exactly_where_the_bound_does_not_certify(self, monkeypatch):
        ran = []
        multistart_search = optimize._multistart_search

        def spy(params, templates, settings):
            ran.append(params)
            return multistart_search(params, templates, settings)

        monkeypatch.setattr(optimize, "_multistart_search", spy)
        cases = [FunctionalParams(s=s, eps=eps, lambda_pen=LAM_0)
                 for s, eps in itertools.product((0.0, 0.7), (2.0 * math.pi, 10.0, 20.0))]
        cases += [UNCERTIFIED, FunctionalParams(s=-0.25, eps=10.0, lambda_pen=stability_params(-0.25).lambda_pen)]
        cases += [stability_params(s) for s in (-4.68, -5.0, 6.0)]
        verdicts = []
        for params in cases:
            ran.clear()
            out = minimize_penalized_functional(params.s, params, k_max=2, settings=FAST)
            verdicts.append(certified(params, 2))
            if verdicts[-1]:
                assert ran == []
                assert {d.kind for d in out.starts} == {"below-kink", "above-kink", "kink"}
            else:
                assert ran == [params]
                assert {d.kind for d in out.starts} == {"random", "half-line", "two-ray", "symmetric-interval"}
        # eps = 2 pi and the paper's weights past it are certified; eps = 10
        # and 20 with the paper's penalty at 0, and the pinned fallbacks, are not
        assert verdicts == [True, False, False, True, True, True, False, False, True, True, True]

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0, -2.0, 0.5, 1.5])
    def test_benchmark_levels_return_the_exact_half_line(self, s):
        # at s > 0 too the ray minimizer is reported as (-inf, s), not as
        # its mirror image (-s, inf)
        params = stability_params(s)
        out = minimize_penalized_functional(s, params, k_max=3, settings=FAST)
        assert out.best_set == half_line_set(s)
        assert out.best_value == penalized_functional(half_line_set(s), params)
        assert out.best_value == out.half_line_value
        assert sum(d.evaluations for d in out.starts) <= 2500

    @pytest.mark.parametrize("k_max, pieces", [(1, 3), (2, 4), (4, 4)])
    def test_one_diagnostic_per_piece(self, k_max, pieces):
        params = stability_params(-1.0)
        searched = _face_search(params, k_max)
        assert [(t.describe(), d.kind) for t, d in searched] == [
            ("left-ray", "below-kink"),
            ("left-ray", "above-kink"),
            ("bounded", "kink"),
            ("left-ray+right-ray", "kink"),
        ][:pieces]
        kink_value = penalized_functional(half_line_set(-1.0), params)
        for template, d in searched:
            assert d.template == template.describe()
            assert d.converged
            assert d.evaluations >= 120
            assert d.final_value <= d.start_value
            # every piece's best endpoints give its final value
            objective = _endpoint_objective(template, params)
            assert objective(list(d.endpoints)) == d.final_value
        # each ray piece starts at the kink point, whose mass is the target
        assert [d.start_value for _, d in searched[:2]] == [kink_value] * 2
        assert [d.endpoints for _, d in searched[:2]] == [(-1.0,), (-1.0,)]
        # the kink faces keep the mass on the target
        for template, d in searched[2:]:
            assert measure(template.decode(np.array(d.endpoints))) == pytest.approx(
                gauss_cdf(-1.0), abs=1e-15
            )

    def test_right_ray_is_the_left_ray_reflected(self):
        # F is invariant under x -> -x, which maps (-x, inf) onto (-inf, x):
        # the two objectives agree bit for bit, so the left ray stands for both
        left = IntervalTemplate(left_ray=True, right_ray=False, bounded=0)
        right = IntervalTemplate(left_ray=False, right_ray=True, bounded=0)
        cases = [
            stability_params(-1.0),
            stability_params(0.7),
            FunctionalParams(s=-0.25, eps=5.75, lambda_pen=3.78),
            FunctionalParams(s=2.0, eps=0.0, lambda_pen=0.0),
            FunctionalParams(s=0.0, eps=10.0, lambda_pen=LAM_0),
        ]
        for params in cases:
            on_left = _endpoint_objective(left, params)
            on_right = _endpoint_objective(right, params)
            for x in np.linspace(-12.0, 12.0, 241).tolist() + [params.s, -40.0, 40.0]:
                assert on_left([x]).hex() == on_right([-x]).hex(), (params, x)

    def test_settings_are_not_read(self):
        params = stability_params(-0.5)
        outs = [
            minimize_penalized_functional(-0.5, params, k_max=3, settings=settings)
            for settings in (FAST, OptimizerSettings(multistarts=1, seed=3))
        ]
        assert outs[0].starts == outs[1].starts
        assert outs[0].best_value == outs[1].best_value

    @pytest.mark.parametrize("s, kink_pieces", [(8.3, 0), (8.2, 1), (-38.4, 2), (-38.5, 0)])
    def test_kink_faces_need_their_symmetric_sets(self, s, kink_pieces):
        # the mass target Phi(s) is 1, 1 - 2^-53, subnormal and 0: at 1 - 2^-53
        # the interval (-q, q) on the kink has q = inf, and at 0 or 1 the
        # kink holds only the empty set or the line
        params = FunctionalParams(s=s, eps=1.0, lambda_pen=1.0)
        out = minimize_penalized_functional(s, params, k_max=2)
        assert sum(d.kind == "kink" for d in out.starts) == kink_pieces
        assert math.isfinite(out.best_value)


class TestSublevelBound:
    """``_sublevel_bound``: B <= F on every set with ``sqrt(2 pi) eps |b| >= 2 pi``,
    attained by the half-lines at +-r when ``|s| > r``."""

    @staticmethod
    def lambdas(s):
        return (0.0, 0.3, stability_params(s).lambda_pen)

    def test_infinite_below_two_pi(self):
        for eps in (0.0, 1.0, math.nextafter(2.0 * math.pi, 0.0)):
            assert _sublevel_bound(FunctionalParams(s=-1.0, eps=eps, lambda_pen=2.0)) == math.inf
        assert _sublevel_bound(FunctionalParams(s=-1.0, eps=2.0 * math.pi, lambda_pen=2.0)) < math.inf

    def test_frozen_supercritical_case(self):
        # s = 0, eps = 10: r = 0.964 >= |s|, and the level s gives B = 1 + pi/10;
        # escaping to the whole line costs Lambda/2 = 1.414 on the faces
        params = FunctionalParams(s=0.0, eps=10.0, lambda_pen=LAM_0)
        assert _sublevel_bound(params) == 1.0 + math.pi / 10.0
        assert min(d.final_value for _, d in _face_search(params, 2)) == LAM_0 / 2.0
        assert not certified(params, 2)

    def test_bound_holds_in_the_excluded_region(self):
        # seeded random templates up to four components, kept where
        # sqrt(2 pi) eps |b| >= 2 pi
        rng = np.random.default_rng(4168)
        templates = enumerate_templates(4)
        checked = 0
        while checked < 600:
            template = templates[rng.integers(len(templates))]
            theta = np.sort(rng.normal(0.0, 1.5, template.dimension)).tolist()
            if any(hi - lo < _MIN_SEPARATION for lo, hi in zip(theta, theta[1:])):
                continue
            s = float(rng.uniform(-8.0, 8.0))
            eps = 2.0 * math.pi * math.exp(float(rng.uniform(0.0, math.log(1e6 / (2.0 * math.pi)))))
            lam = self.lambdas(s)[checked % 3]
            params = FunctionalParams(s=s, eps=eps, lambda_pen=lam)
            e = template.decode(np.array(theta))
            if SQRT_2PI * eps * abs(barycenter(e)[0]) < 2.0 * math.pi:
                continue
            f = penalized_functional(e, params)
            bound = _sublevel_bound(params)
            assert bound <= f, (template, theta, params)
            checked += 1

    @pytest.mark.parametrize("s", [-8.0, -2.5, -0.3, 0.0, 1.2, 6.0])
    def test_attained_by_the_half_lines_at_plus_minus_r(self, s):
        # |b| of the half-line at t is exp(-t^2/2)/sqrt(2 pi), so it lies in
        # the excluded region exactly for |t| <= r, and at t = +-r its
        # barycenter term is pi/eps; the left ray (-inf, t) and its mirror
        # (-t, inf) have equal F
        for eps, lam in itertools.product((2.0 * math.pi, 10.0, 300.0, 1e6), self.lambdas(s)):
            params = FunctionalParams(s=s, eps=eps, lambda_pen=lam)
            r = math.sqrt(2.0 * math.log(eps / (2.0 * math.pi)))
            bound = _sublevel_bound(params)
            at_r = min(penalized_functional(half_line_set(t), params) for t in (-r, r))
            for t in np.linspace(-r, r, 41).tolist():
                assert bound <= penalized_functional(half_line_set(t), params) * (1.0 + 1e-12), (params, t)
            if abs(s) > r:
                assert bound == pytest.approx(at_r, rel=1e-12), params
            else:
                assert bound <= at_r * (1.0 + 1e-12), params


class TestGridBatch:
    """The face grids are priced as one batch, bit for bit with the scalar objective."""

    @staticmethod
    def searched_pieces(monkeypatch, params, k_max):
        seen = []
        search_piece = optimize._search_piece

        def spy(template, kind, objective, endpoints_of, grid, values):
            seen.append((objective, endpoints_of, grid, values))
            return search_piece(template, kind, objective, endpoints_of, grid, values)

        monkeypatch.setattr(optimize, "_search_piece", spy)
        _face_search(params, k_max)
        return seen

    def test_grid_values_are_the_scalar_objective(self, monkeypatch):
        levels = (-37.5, -12.0, -3.0, -1.0, -0.2, 0.0, 0.5, 2.0, 8.25, 30.0)
        weights = itertools.product((0.0, 1.0, 4.0, 6.28), (0.0, 0.7, LAM_0, 40.0))
        cases = [FunctionalParams(s=s, eps=eps, lambda_pen=lam)
                 for s, (eps, lam) in itertools.product(levels, weights)]
        cases += [stability_params(s) for s in (-6.0, -2.0, -1.0, -0.5, 0.0, 1.5)]
        pieces = 0
        for i, params in enumerate(cases):
            for objective, endpoints_of, grid, values in self.searched_pieces(monkeypatch, params, 1 + i % 4):
                assert len(grid) == len(values) == 120
                assert [v.hex() for v in values] == [objective(endpoints_of(t)).hex() for t in grid], params
                pieces += 1
        assert pieces > 3 * len(cases)

    def test_invalid_rows_are_priced_as_the_scalar_objective(self):
        # rows with non-finite endpoints, and rows whose adjacent endpoints
        # fall short of _MIN_SEPARATION once or several times, on every
        # template up to four components, priced in one batch
        params = FunctionalParams(s=-0.4, eps=3.0, lambda_pen=1.5)
        rng = np.random.default_rng(17)
        grids, expected, kinds = [], [], []
        for template in enumerate_templates(4):
            rows = np.sort(rng.normal(0.0, 2.0, (300, template.dimension)), axis=1)
            for row in rows[: 200 if template.dimension > 1 else 0]:
                for j in rng.choice(template.dimension - 1, rng.integers(1, template.dimension), replace=False):
                    row[j + 1] = row[j] + rng.choice([0.0, 1e-9, 5e-9, 1e-8, 2e-8, -1e-3])
            for row in rows[250:]:
                row[rng.integers(template.dimension)] = rng.choice([math.inf, -math.inf, math.nan])
            objective = _endpoint_objective(template, params)
            grids.append((template, list(rows.T)))
            expected.append([objective(row).hex() for row in rows.tolist()])
        values = _grid_values(grids, params)
        assert [[v.hex() for v in piece] for piece in values] == expected
        flat = [v for piece in values for v in piece]
        assert flat.count(2.0 * optimize._ORDER_PENALTY) > 0
        assert sum(optimize._ORDER_PENALTY < v < 2.0 * optimize._ORDER_PENALTY for v in flat) > 0
        assert sum(v < optimize._ORDER_PENALTY for v in flat) > 0

    @pytest.mark.parametrize("k_max, total", [(1, 360), (3, 480)])
    def test_paper_weights_make_no_scalar_call(self, monkeypatch, k_max, total):
        calls = 0
        endpoint_objective = optimize._endpoint_objective

        def counting(template, params):
            objective = endpoint_objective(template, params)

            def counted(theta):
                nonlocal calls
                calls += 1
                return objective(theta)

            return counted

        monkeypatch.setattr(optimize, "_endpoint_objective", counting)
        for s in (0.0, -0.5, -1.0, -2.0):
            out = minimize_penalized_functional(s, stability_params(s), k_max=k_max)
            assert sum(d.evaluations for d in out.starts) == total
        assert calls == 0


class TestHessianClaim:
    """The Hessian of F in ``u = Phi(x)`` that proves the face search complete
    (``optimize`` module docstring), off the mass kink:
    ``H = diag((-2 pi + sqrt(2 pi) eps b nu_i) / w_i) + eps (nu x)(nu x)^T``."""

    STEP = 1e-4

    @staticmethod
    def random_cases(count):
        """``(template, endpoints, params)`` with up to 3 components, endpoints
        in [-2.5, 2.5] at least 0.2 apart, and mass at least 0.02 off Phi(s)."""
        rng = np.random.default_rng(1409_2106)
        templates = enumerate_templates(3)
        cases = []
        while len(cases) < count:
            template = templates[rng.integers(len(templates))]
            x = np.sort(rng.uniform(-2.5, 2.5, template.dimension))
            if np.any(np.diff(x) < 0.2):
                continue
            eps = (0.5, 3.0, 6.0, 10.0)[len(cases) % 4]
            params = FunctionalParams(
                s=float(rng.uniform(-1.5, 1.5)), eps=eps, lambda_pen=float(rng.uniform(0.0, 3.0))
            )
            if abs(measure(template.decode(x)) - gauss_cdf(params.s)) < 0.02:
                continue
            cases.append((template, x.tolist(), params))
        return cases

    @staticmethod
    def hessian(e, params):
        x, nu, w = boundary_points(e)
        b = barycenter(e)[-1]
        diagonal = (-2.0 * math.pi + SQRT_2PI * params.eps * b * nu) / w
        return np.diag(diagonal) + params.eps * np.outer(nu * x, nu * x)

    def central_differences(self, template, x, params):
        objective = _endpoint_objective(template, params)
        u = np.array([gauss_cdf(p) for p in x])

        def f(du):
            return objective([gauss_cdf_inv(a) for a in (u + du).tolist()])

        n, h = len(x), self.STEP
        step = np.eye(n) * h
        fd = np.empty((n, n))
        for i in range(n):
            fd[i, i] = (f(step[i]) - 2.0 * f(0.0 * step[i]) + f(-step[i])) / (h * h)
            for j in range(i + 1, n):
                fd[i, j] = fd[j, i] = (
                    f(step[i] + step[j]) - f(step[i] - step[j])
                    - f(step[j] - step[i]) + f(-step[i] - step[j])
                ) / (4.0 * h * h)
        return fd

    def test_hessian_matches_central_differences(self):
        cases = self.random_cases(120)
        assert len({template for template, _, _ in cases}) == len(enumerate_templates(3))
        for template, x, params in cases:
            hess = self.hessian(template.decode(np.array(x)), params)
            fd = self.central_differences(template, x, params)
            assert np.abs(fd - hess).max() <= 1e-3 * np.abs(hess).max(), (template, x, params)

    def test_at_most_one_nonnegative_eigenvalue_below_two_pi(self):
        checked = 0
        for template, x, params in self.random_cases(120):
            if params.eps < 2.0 * math.pi:
                eigenvalues = np.linalg.eigvalsh(self.hessian(template.decode(np.array(x)), params))
                assert np.count_nonzero(eigenvalues >= 0.0) <= 1, (template, x, params)
                checked += 1
        assert checked == 90

    def test_at_most_one_nonnegative_eigenvalue_past_two_pi_off_the_excluded_region(self):
        # from eps = 2 pi on, the diagonal is negative where sqrt(2 pi) eps |b| < 2 pi:
        # eps is drawn from [2 pi, sqrt(2 pi) / |b|)
        rng = np.random.default_rng(2106)
        for template, x, params in self.random_cases(160):
            e = template.decode(np.array(x))
            eps = float(rng.uniform(2.0 * math.pi, SQRT_2PI / abs(barycenter(e)[-1])))
            params = FunctionalParams(s=params.s, eps=eps, lambda_pen=params.lambda_pen)
            assert 2.0 * math.pi <= eps and SQRT_2PI * eps * abs(barycenter(e)[-1]) < 2.0 * math.pi
            eigenvalues = np.linalg.eigvalsh(self.hessian(e, params))
            assert np.count_nonzero(eigenvalues >= 0.0) <= 1, (template, x, params)

    def test_second_variation_form_is_the_same_derivation(self):
        # a normal velocity phi moves u by D phi / sqrt(2 pi), D = diag(nu_i w_i)
        for template, x, params in self.random_cases(120):
            e = template.decode(np.array(x))
            _, nu, w = boundary_points(e)
            scale = np.diag(nu * w)
            form = second_variation_form(e, params).matrix
            via_hessian = scale @ self.hessian(e, params) @ scale / (2.0 * math.pi)
            assert np.abs(form - via_hessian).max() <= 1e-12 * np.abs(form).max(), (template, x)


class TestImports:
    def test_cli_import_and_help_load_no_scipy(self):
        # nor concurrent.futures, which only run_suite imports, when it runs
        src = Path(gaussiso.__file__).resolve().parent.parent
        code = (
            "import sys, gaussiso; from gaussiso.cli import cli_main; cli_main(['--help']); "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.splitlines()[-1] == "[]"

    def test_no_module_imports_scipy_optimize_or_linalg(self):
        # scipy.special is about half of a fresh process's start-up, so only
        # special names SciPy, and only inside the function that loads it;
        # optimize.py, like every other module, imports no SciPy at all
        for path in Path(gaussiso.__file__).resolve().parent.glob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_functions = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(func)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any(n.startswith(("scipy.optimize", "scipy.linalg")) for n in names), path.name
                if any(n.split(".")[0] == "scipy" for n in names):
                    assert path.name == "special.py", (path.name, node.lineno)
                    assert id(node) in in_functions, (path.name, node.lineno)

    def test_random_generators_come_from_default_rng(self):
        # every single stream is a default_rng, and the batched corpus draws
        # are corpus._Streams: no module builds a bit generator or swaps its state
        imports_of = {}
        for path in Path(gaussiso.__file__).resolve().parent.glob("*.py"):
            imported = imports_of.setdefault(path.stem, set())
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func).split(".")[-1]
                    assert called not in {"Generator", "PCG64"}, (path.name, node.lineno)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    assert node.attr != "state", (path.name, node.lineno)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module or "")
                    imported.update(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[-1] for a in node.names)
        assert sorted(m for m, imported in imports_of.items() if "_ziggurat" in imported) == ["corpus"]
        assert "corpus" not in imports_of["optimize"]

    def test_every_import_is_used(self):
        # an imported name must be read somewhere in its module or be listed
        # in __all__; the package __init__ only re-exports
        package = Path(gaussiso.__file__).resolve().parent
        paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
        for path in paths + sorted(Path(__file__).resolve().parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.asname or a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update(a.asname or a.name for a in node.names)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    used.update(ast.literal_eval(node.value))
            assert sorted(imported - used) == [], path.name

    def test_bool_check_lives_in_one_place(self):
        # a bare isinstance(x, bool) starts a hand-written number check; the
        # package's checks are special._check_integer and special._check_real
        allowed = {
            ("special", "_check_integer"),
            ("special", "_check_real"),
            ("verify", "format_number"),  # renders a bool, checks nothing
        }
        found = set()
        for path in Path(gaussiso.__file__).resolve().parent.glob("*.py"):
            for top in ast.parse(path.read_text(), filename=str(path)).body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and len(node.args) == 2
                        and isinstance(node.args[1], ast.Name)
                        and node.args[1].id == "bool"
                    ):
                        found.add((path.stem, getattr(top, "name", None)))
        assert {("special", "_check_integer"), ("special", "_check_real")} <= found
        assert sorted(found - allowed) == []

    @staticmethod
    def owners(module, matches):
        """Where in ``gaussiso.<module>`` the nodes that ``matches`` lie: the
        top-level function, ``Class.method`` or assigned name around each."""
        path = Path(gaussiso.__file__).resolve().parent / f"{module}.py"
        found = set()
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                units = [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
            elif isinstance(top, ast.Assign):
                units = [(ast.unparse(top.targets[0]), top)]
            else:
                units = [(getattr(top, "name", None), top)]
            for name, unit in units:
                found.update(name for node in ast.walk(unit) if matches(node))
        return found

    def test_family_decision_lives_in_one_place(self):
        # every reader takes (family, dimension, intervals) from _profile
        families = {"IntervalUnion1D", "SlabSet", "HalfSpace", "CenteredBall"}

        def is_family_check(node):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                return False
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            return any(isinstance(k, ast.Name) and k.id in families for k in kinds)

        assert self.owners("sets", is_family_check) == {"_profile", "SlabSet.__post_init__"}

    def test_interval_rules_are_written_once(self):
        # IntervalUnion1D and the flow steps of stationarity check intervals
        # through sets._check_intervals; normalize merges and drops by the
        # tolerance, so that what it builds passes the check
        package = Path(gaussiso.__file__).resolve().parent
        modules = sorted(p.stem for p in package.glob("*.py"))

        def compares_merge_tol(node):
            return isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Name) and x.id == "MERGE_TOL" for x in [node.left, *node.comparators]
            )

        def words_a_rule(node):
            return isinstance(node, ast.Constant) and str(node.value).startswith("IntervalUnion1D: ")

        tolerances = {m: self.owners(m, compares_merge_tol) for m in modules}
        assert {m: owners for m, owners in tolerances.items() if owners} == {"sets": {"_check_intervals", "normalize"}}
        rules = {m: self.owners(m, words_a_rule) for m in modules}
        assert {m: owners for m, owners in rules.items() if owners} == {"sets": {"_check_intervals"}}

    def test_numbers_are_told_apart_in_one_place(self):
        # special's checks decide what a real number or an integer is, and
        # verify only renders numbers; sets reads endpoints and components
        # through those checks, never by float(), which reads True as 1.0
        package = Path(gaussiso.__file__).resolve().parent
        modules = sorted(p.stem for p in package.glob("*.py"))
        number_types = {"bool", "int", "float", "np.integer", "np.floating"}

        def tests_a_number_type(node):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                return False
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            return any(ast.unparse(k) in number_types for k in kinds)

        def calls_float(node):
            return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"

        checks = {m: self.owners(m, tests_a_number_type) for m in modules}
        assert {m: owners for m, owners in checks.items() if owners} == {
            "special": {"_check_integer", "_check_real", "_check_endpoint"},
            "verify": {"format_number", "json_value"},
        }
        readers = {
            "IntervalUnion1D.__post_init__", "HalfSpace.__post_init__", "normalize", "_endpoint_from_json", "half_line_set"
        }
        assert self.owners("sets", calls_float) & readers == set()

    def test_flow_builds_a_set_object_only_where_it_returns_one(self):
        def builds_union(node):
            return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "IntervalUnion1D"

        assert self.owners("stationarity", builds_union) == {"mass_preserving_flow"}

    @pytest.mark.parametrize(
        "callee, weighted, expected",
        [
            # special._elementwise lifts a scalar function onto an array
            ("np.fromiter", False, {"special": {"_elementwise"}}),
            # sets._endpoints flattens (lo, hi) pairs
            ("itertools.chain", False, {"sets": {"_endpoints"}}),
            # sets._row_sums adds a weight column per row; quadrature, below
            # sets, adds its own leaves and rows
            ("np.bincount", True, {"sets": {"_row_sums"}, "quadrature": {"_sum_leaves", "_integrate"}}),
        ],
        ids=["elementwise-lift", "endpoint-layout", "row-sums"],
    )
    def test_shared_helper_is_the_only_copy(self, callee, weighted, expected):
        package = Path(gaussiso.__file__).resolve().parent
        modules = sorted(p.stem for p in package.glob("*.py"))

        def calls(node):
            return (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).startswith(callee)
                and (not weighted or len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))
            )

        found = {m: self.owners(m, calls) for m in modules}
        assert {m: owners for m, owners in found.items() if owners} == expected

    def test_minimize_builds_only_the_set_it_returns(self):
        # the half-line is priced from its endpoint sums, as the faces are
        def builds(names):
            def matches(node):
                return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in names

            return matches

        assert self.owners("optimize", builds({"IntervalUnion1D"})) == {"IntervalTemplate.decode"}
        assert self.owners("optimize", builds({"half_line_set", "two_ray_set", "penalized_functional"})) == set()

    def test_face_templates_are_built_once(self):
        def builds_template(node):
            return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "IntervalTemplate"

        expected = {"enumerate_templates", "_LEFT_RAY", "_BOUNDED", "_TWO_RAY"}
        assert self.owners("optimize", builds_template) == expected

    def test_endpoint_penalty_lives_in_one_place(self):
        def prices(node):
            return (
                isinstance(node, ast.BinOp)
                and any(isinstance(x, ast.Name) and x.id == "_ORDER_PENALTY" for x in (node.left, node.right))
                # the candidate filter reads the penalty, it prices nothing
                and ast.unparse(node) != "_ORDER_PENALTY / 2.0"
            )

        assert self.owners("optimize", prices) == {"_endpoint_objective"}

    def test_target_mass_and_named_sets_are_decided_once(self):
        # FunctionalParams decides Phi(s) once, as params.target, and
        # optimize._named_starts the named sets that both searches start from
        package = Path(gaussiso.__file__).resolve().parent
        modules = sorted(p.stem for p in package.glob("*.py"))

        def takes_target(node):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return False
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
            return "target" in names

        def calls(names, on_level=False):
            def matches(node):
                return (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] in names
                    and (not on_level or any(isinstance(x, ast.Attribute) and x.attr == "s" for x in node.args))
                )

            return matches

        assert {m: self.owners(m, takes_target) for m in modules} == {m: set() for m in modules}
        level_masses = {m: self.owners(m, calls({"gauss_cdf"}, on_level=True)) for m in modules}
        assert {m: owners for m, owners in level_masses.items() if owners} == {
            "functionals": {"FunctionalParams.__post_init__"}
        }
        closed_forms = {"gauss_cdf", "gauss_cdf_inv", "two_ray_endpoint", "symmetric_interval_halfwidth"}
        # _sublevel_bound takes Phi at its own levels +-r, never at s
        assert self.owners("optimize", calls(closed_forms)) == {"_named_starts", "_sublevel_bound", "mass_sweep"}
        # the face maps receive the scalar CDF and its inverse by name
        def passes_by_name(node):
            return isinstance(node, ast.Call) and any(
                isinstance(x, ast.Name) and x.id in closed_forms for x in node.args
            )

        assert self.owners("optimize", passes_by_name) == {"_face_search"}

        # sets owns the two-ray rule 2 Phi(a) = Phi(s), scalar and vector
        def halves_a_level_mass(node):
            return (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2
                and isinstance(node.left, ast.Call)
                and ast.unparse(node.left.func).split(".")[-1] in {"gauss_cdf", "_gauss_cdf_many", "_gauss_cdf_unchecked"}
            )

        endpoints = {m: self.owners(m, halves_a_level_mass) for m in modules}
        assert {m: owners for m, owners in endpoints.items() if owners} == {
            "sets": {"two_ray_endpoint", "_two_ray_endpoints"}
        }

    def test_every_all_entry_exists(self):
        # a stale entry would break `from gaussiso.<module> import *`
        for path in Path(gaussiso.__file__).resolve().parent.glob("[!_]*.py"):
            module = importlib.import_module(f"gaussiso.{path.stem}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert missing == [], path.name


class TestMassSweep:
    def test_frozen_ratios(self):
        rows = mass_sweep(sorted(SWEEP_RATIOS))
        assert [r.s for r in rows] == sorted(SWEEP_RATIOS)
        for row in rows:
            assert row.ratio == pytest.approx(SWEEP_RATIOS[row.s], rel=1e-12)

    def test_deficit_matches_direct_form_at_moderate_levels(self):
        (row,) = mass_sweep([-2.0])
        direct = 2.0 * math.exp(-0.5 * A_M2 * A_M2) - math.exp(-2.0)
        assert row.deficit == pytest.approx(DEFICIT_M2, rel=1e-12)
        assert row.deficit == pytest.approx(direct, rel=1e-12)

    def test_beta_equals_max_barycenter_norm(self):
        rows = mass_sweep([-3.0, -5.0])
        for row in rows:
            assert row.beta == max_barycenter_norm(row.s)

    def test_rows_sorted_and_validated(self):
        rows = mass_sweep([-10.0, -3.0, -5.0])
        assert [r.s for r in rows] == [-10.0, -5.0, -3.0]
        for row in rows:
            assert row.a_s < row.s
            assert row.deficit > 0.0
            assert row.ratio > 0.0

    def test_plateau_and_bound(self):
        rows = {r.s: r for r in mass_sweep(sorted(SWEEP_RATIOS))}
        assert all(r.ratio <= 2.0 for r in rows.values())
        variation = abs(rows[-20.0].ratio / rows[-15.0].ratio - 1.0)
        assert variation < 0.01
        assert abs(rows[-20.0].ratio - ASYMPTOTE) / ASYMPTOTE < 0.02

    def test_ratio_consistent_with_columns(self):
        # ratio = D / (s^-2 beta) exactly, in exact arithmetic; check the
        # cancellation-free evaluation against the column quotient where the
        # columns are representable.
        for row in mass_sweep([-3.0, -5.0, -10.0]):
            quotient = row.deficit / (row.beta / (row.s * row.s))
            assert row.ratio == pytest.approx(quotient, rel=1e-10)

    @pytest.mark.parametrize("bad", [[0.0], [0.5], [-1.0, 1.0]])
    def test_nonnegative_levels_rejected(self, bad):
        with pytest.raises(ValueError, match="negative"):
            mass_sweep(bad)

    def test_underflow_levels_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            mass_sweep([-40.0])

    def test_levels_whose_square_underflows_rejected(self):
        # nearer to 0 than sqrt(smallest normal float) ~ 1.49e-154, s * s
        # underflows and the ratio with it
        with pytest.raises(ValueError, match="ratio column underflows .* above level -1.49e-154, got -1e-300"):
            mass_sweep([-3.0, -1e-300])
        (row,) = mass_sweep([-1e-150])
        assert row.ratio > 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mass_sweep([])

    def test_row_validation(self):
        with pytest.raises(ValueError, match="below the level"):
            MassSweepRow(s=-1.0, a_s=-0.5, deficit=0.1, beta=0.1, ratio=1.0)
        with pytest.raises(ValueError, match="positive"):
            MassSweepRow(s=-1.0, a_s=-1.5, deficit=0.0, beta=0.1, ratio=1.0)
        with pytest.raises(ValueError, match="positive"):
            MassSweepRow(s=-1.0, a_s=-1.5, deficit=0.1, beta=0.1, ratio=-1.0)


class TestHalfLineSet:
    def test_construction(self):
        e = half_line_set(-1.5)
        assert e.intervals == ((-math.inf, -1.5),)
        assert measure(e) == pytest.approx(gauss_cdf(-1.5), abs=1e-15)
