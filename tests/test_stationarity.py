"""Tests for first- and second-order optimality analysis on 1D sets.

Oracles:
- Closed-form residuals on the symmetric two-ray set and half-lines (hand
  algebra from -x*nu + (eps/sqrt(2 pi))*b*x with b = 0 resp. b = -b_s).
- The 2x2 hand reduction of the second-variation form on the symmetric
  two-ray set at level 0: on the zero-average subspace J = -2 phi^2 w
  + (2 eps / pi) a^2 phi^2 w^2, giving the sign-change threshold
  eps = pi/(a^2 w).
- Exact second derivative of the penalized functional along the exact
  mass-preserving flow, derived in closed form:
  d^2F/dt^2 = sum_i (-1 + eps b nu_i / sqrt(2 pi)) phi_i^2 w_i
  + (eps / (2 pi)) (sum_i phi_i x_i w_i)^2, cross-checked by central
  differences.  The form carries the same coefficients, so the tests check
  it against the finite differences directly, on the two-ray family and on
  random interval unions with nonzero barycenter.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaussiso.functionals import (
    FunctionalParams,
    barycenter,
    penalized_functional,
    stability_params,
)
from gaussiso import stationarity
from gaussiso.sets import IntervalUnion1D, measure
from gaussiso.optimize import mass_sweep
from gaussiso.special import SQRT_2PI, _SQRT_MAX, _SQRT_MIN_NORMAL, gauss_cdf, gauss_cdf_inv, gauss_weight
from gaussiso.stationarity import (
    EulerReport,
    QuadraticFormJ,
    boundary_points,
    euler_residual,
    lagrange_bound_check,
    mass_preserving_flow,
    psd_on_zero_average,
    second_derivative_along_flow,
    second_variation_form,
)

# Frozen oracle values (computed once via the stated derivations, then pinned).
A0 = -0.6744897501960817           # two-ray endpoint at level 0: Phi(A0) = 1/4
W0 = 0.7965477421053156            # e^{-A0^2/2}
EPS_0 = 0.0025330295910584444      # stability eps at s = 0
LAM_0 = 2.8284271247461903         # stability lambda at s = 0
EPS_1 = 0.002088129883045452       # stability eps at s = -1
HALFLINE_RESID_M1 = 1.0002015720902075   # -s(1 + eps*b_s/sqrt(2 pi)) at s = -1
J_FORM_E0 = -1.59263001097247            # 2(-w + eps a^2 w^2/pi) at phi = (1,-1), stability eps
MIN_EIG_E0_STABILITY = -0.796315005486235  # -w + eps a^2 w^2/pi at stability eps
MIN_EIG_E0_TWO = 0.3580596186707702      # same at eps = 4 pi
EPS_THRESHOLD = 8.669366296606851        # pi / (a^2 w)


def two_ray_e0() -> IntervalUnion1D:
    return IntervalUnion1D(intervals=((-math.inf, A0), (-A0, math.inf)))


def two_ray(s: float) -> IntervalUnion1D:
    a = gauss_cdf_inv(gauss_cdf(s) / 2.0)
    return IntervalUnion1D(intervals=((-math.inf, a), (-a, math.inf)))


def symmetric_interval(s: float) -> IntervalUnion1D:
    q = gauss_cdf_inv((1.0 + gauss_cdf(s)) / 2.0)
    return IntervalUnion1D(intervals=((-q, q),))


def boundary_data(e: IntervalUnion1D):
    """Boundary locations, normal signs and weights as arrays, and b(E)."""
    return (*boundary_points(e), barycenter(e)[0])


PARAMS_0 = stability_params(0.0)
PARAMS_M1 = stability_params(-1.0)


class TestBoundaryPoints:
    def test_two_ray_points_sorted_with_normals(self):
        x, nu, w = boundary_points(two_ray_e0())
        assert x.tolist() == [A0, -A0]
        assert nu.tolist() == [1.0, -1.0]
        assert w.tolist() == [W0, W0]

    def test_bounded_interval_normals(self):
        x, nu, w = boundary_points(IntervalUnion1D(intervals=((0.0, 1.0),)))
        assert list(zip(x.tolist(), nu.tolist())) == [(0.0, -1.0), (1.0, 1.0)]
        assert w[0] == 1.0
        assert w[1] == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_half_line_single_point(self):
        x, nu, w = boundary_points(IntervalUnion1D(intervals=((-math.inf, -1.0),)))
        assert x.shape == nu.shape == w.shape == (1,)
        assert (x[0], nu[0]) == (-1.0, 1.0)

    def test_full_line_has_no_points(self):
        x, nu, w = boundary_points(IntervalUnion1D(intervals=((-math.inf, math.inf),)))
        assert x.shape == nu.shape == w.shape == (0,)

    def test_normals_alternate_on_multi_interval_set(self):
        e = IntervalUnion1D(intervals=((-2.0, -1.0), (0.0, 1.5), (2.0, math.inf)))
        x, nu, w = boundary_points(e)
        assert nu.tolist() == [-1.0, 1.0, -1.0, 1.0, -1.0]
        assert x.tolist() == sorted(x.tolist())
        assert w.tolist() == [gauss_weight(v) for v in x.tolist()]


class TestEulerResidual:
    def test_two_ray_level_zero_is_critical(self):
        report = euler_residual(two_ray_e0(), PARAMS_0)
        assert report.residuals == (-A0, -A0)
        assert report.lambda_fit == pytest.approx(-A0, abs=1e-15)
        assert report.max_dev < 1e-13

    def test_half_line_residual_matches_closed_form(self):
        e = IntervalUnion1D(intervals=((-math.inf, -1.0),))
        report = euler_residual(e, PARAMS_M1)
        assert len(report.residuals) == 1
        assert report.residuals[0] == pytest.approx(HALFLINE_RESID_M1, rel=1e-15)
        assert report.max_dev < 1e-15

    def test_mismatched_two_piece_set_is_not_stationary(self):
        e = IntervalUnion1D(intervals=((-math.inf, -1.0), (0.0, math.inf)))
        report = euler_residual(e, PARAMS_0)
        assert report.max_dev > 0.1

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0, -2.0, -5.0, -10.0, -20.0])
    def test_two_ray_family_is_stationary_across_levels(self, s):
        report = euler_residual(two_ray(s), stability_params(s))
        assert report.max_dev < 1e-10

    @pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
    def test_symmetric_interval_is_stationary(self, s):
        report = euler_residual(symmetric_interval(s), stability_params(s))
        assert report.max_dev < 1e-13

    def test_report_fields_are_consistent(self):
        e = IntervalUnion1D(intervals=((-1.3, 0.2), (0.9, 2.4)))
        report = euler_residual(e, PARAMS_0)
        _, _, w = boundary_points(e)
        r = np.array(report.residuals)
        assert report.lambda_fit == pytest.approx(float(np.dot(r, w) / w.sum()), abs=1e-15)
        assert report.max_dev == pytest.approx(float(np.max(np.abs(r - report.lambda_fit))), abs=1e-15)

    def test_full_line_rejected(self):
        with pytest.raises(ValueError, match="no finite boundary"):
            euler_residual(IntervalUnion1D(intervals=((-math.inf, math.inf),)), PARAMS_0)

    @pytest.mark.parametrize(
        "intervals", [((40.0, 41.0),), ((-math.inf, -39.0), (39.0, math.inf))]
    )
    def test_underflowing_weights_rejected_without_warning(self, intervals):
        # e^{-x^2/2} is 0.0 at |x| >= 39, so the weighted mean would be 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every finite boundary weight .* underflows to 0"):
                euler_residual(IntervalUnion1D(intervals=intervals), PARAMS_0)

    def test_one_underflowing_weight_is_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = euler_residual(IntervalUnion1D(intervals=((0.0, 40.0),)), PARAMS_0)
        assert math.isfinite(report.lambda_fit)

    def test_report_rejects_empty_residuals(self):
        with pytest.raises(ValueError, match="at least one"):
            EulerReport(residuals=(), lambda_fit=0.0, max_dev=0.0)


class TestLagrangeBound:
    def test_two_ray_level_zero_passes(self):
        report = euler_residual(two_ray_e0(), PARAMS_0)
        assert lagrange_bound_check(report, PARAMS_0)

    def test_half_line_passes(self):
        e = IntervalUnion1D(intervals=((-math.inf, -1.0),))
        report = euler_residual(e, PARAMS_M1)
        assert lagrange_bound_check(report, PARAMS_M1)

    def test_synthetic_violation_fails(self):
        report = EulerReport(
            residuals=(LAM_0 + 1.0,), lambda_fit=LAM_0 + 1.0, max_dev=0.0
        )
        assert not lagrange_bound_check(report, PARAMS_0)

    def test_boundary_slack_is_tight(self):
        at_bound = EulerReport(residuals=(LAM_0,), lambda_fit=LAM_0, max_dev=0.0)
        assert lagrange_bound_check(at_bound, PARAMS_0)
        past = EulerReport(residuals=(LAM_0 + 1e-8,), lambda_fit=LAM_0 + 1e-8, max_dev=0.0)
        assert not lagrange_bound_check(past, PARAMS_0)


class TestSecondVariationForm:
    def test_two_ray_matrix_matches_hand_construction(self):
        form = second_variation_form(two_ray_e0(), PARAMS_0)
        eps = PARAMS_0.eps
        rank_one = eps / (2.0 * math.pi) * A0 * A0 * W0 * W0
        diag = -W0 + rank_one
        off = -rank_one
        expected = np.array([[diag, off], [off, diag]])
        assert np.allclose(form.matrix, expected, rtol=1e-14, atol=0.0)
        assert np.array_equal(form.constraint, np.array([W0, W0]))

    def test_two_ray_value_on_antisymmetric_direction(self):
        form = second_variation_form(two_ray_e0(), PARAMS_0)
        assert form.value(np.array([1.0, -1.0])) == pytest.approx(J_FORM_E0, rel=1e-14)

    def test_zero_eps_form_is_negative_diagonal(self):
        params = FunctionalParams(s=0.0, eps=0.0, lambda_pen=1.0)
        form = second_variation_form(two_ray_e0(), params)
        assert np.array_equal(form.matrix, np.diag([-W0, -W0]))
        rng = np.random.default_rng(20260822)
        for _ in range(5):
            phi = rng.standard_normal(2)
            assert form.value(phi) < 0.0

    def test_matrix_is_exactly_symmetric(self):
        e = IntervalUnion1D(intervals=((-1.3, 0.2), (0.9, 2.4)))
        form = second_variation_form(e, PARAMS_M1)
        assert np.array_equal(form.matrix, form.matrix.T)

    def test_barycenter_coupling_enters_diagonal(self):
        e = IntervalUnion1D(intervals=((0.5, math.inf),))
        b = barycenter(e)[0]
        params = FunctionalParams(s=0.0, eps=3.0, lambda_pen=1.0)
        form = second_variation_form(e, params)
        w = gauss_weight(0.5)
        expected = (-1.0 + 3.0 / SQRT_2PI * b * (-1.0)) * w + 3.0 / (2.0 * math.pi) * (0.5 * w) ** 2
        assert form.matrix[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_full_line_rejected(self):
        with pytest.raises(ValueError, match="no finite boundary"):
            second_variation_form(
                IntervalUnion1D(intervals=((-math.inf, math.inf),)), PARAMS_0
            )

    def test_form_validation_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticFormJ(
                matrix=np.array([[1.0, 2.0], [0.0, 1.0]]), constraint=np.array([1.0, 1.0])
            )
        # each off-diagonal pair is decided as np.allclose(m, m.T, rtol=0,
        # atol=1e-12) decides it, without a RuntimeWarning
        for upper, lower, accepted in [
            (2e-12, 0.0, False),
            (1e-13, 0.0, True),
            (math.inf, math.inf, True),
            (math.inf, -math.inf, False),
            (math.nan, math.nan, False),
        ]:
            m = np.array([[1.0, upper], [lower, 1.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert bool(np.allclose(m, m.T, rtol=0.0, atol=1e-12)) is accepted
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if accepted:
                    QuadraticFormJ(matrix=m, constraint=np.array([1.0, 1.0]))
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        QuadraticFormJ(matrix=m, constraint=np.array([1.0, 1.0]))

    def test_public_constructor_keeps_its_messages(self):
        with pytest.raises(ValueError, match=r"^form matrix must be square, got shape \(2, 3\)$"):
            QuadraticFormJ(matrix=np.zeros((2, 3)), constraint=np.ones(2))
        with pytest.raises(ValueError, match=r"^form matrix must be square, got shape \(4,\)$"):
            QuadraticFormJ(matrix=np.zeros(4), constraint=np.ones(4))
        with pytest.raises(ValueError, match=r"^constraint length \(3,\) does not match matrix size 2$"):
            QuadraticFormJ(matrix=np.eye(2), constraint=np.ones(3))
        with pytest.raises(ValueError, match=r"^constraint length \(2, 1\) does not match matrix size 2$"):
            QuadraticFormJ(matrix=np.eye(2), constraint=np.ones((2, 1)))
        with pytest.raises(ValueError, match=r"^form matrix must be symmetric$"):
            QuadraticFormJ(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]), constraint=np.ones(2))

    def test_form_validation_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="constraint length"):
            QuadraticFormJ(matrix=np.eye(2), constraint=np.array([1.0]))

    def test_value_rejects_wrong_shape(self):
        form = second_variation_form(two_ray_e0(), PARAMS_0)
        with pytest.raises(ValueError, match="length 2"):
            form.value(np.array([1.0, 2.0, 3.0]))


class TestPsdOnZeroAverage:
    def test_two_ray_stability_eps_is_unstable(self):
        form = second_variation_form(two_ray_e0(), PARAMS_0)
        min_eig, witness = psd_on_zero_average(form)
        assert min_eig == pytest.approx(MIN_EIG_E0_STABILITY, rel=1e-12)
        assert min_eig < 0.0
        # Antisymmetric unit witness up to overall sign.
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert witness[0] == pytest.approx(-witness[1], abs=1e-10)

    def test_two_ray_supercritical_eps_is_stable(self):
        params = FunctionalParams(s=0.0, eps=4.0 * math.pi, lambda_pen=PARAMS_0.lambda_pen)
        form = second_variation_form(two_ray_e0(), params)
        min_eig, _ = psd_on_zero_average(form)
        assert min_eig == pytest.approx(MIN_EIG_E0_TWO, rel=1e-12)
        assert min_eig >= 0.0

    def test_sign_change_at_threshold(self):
        lam = PARAMS_0.lambda_pen
        below = second_variation_form(
            two_ray_e0(), FunctionalParams(s=0.0, eps=EPS_THRESHOLD - 1e-6, lambda_pen=lam)
        )
        at = second_variation_form(
            two_ray_e0(), FunctionalParams(s=0.0, eps=EPS_THRESHOLD, lambda_pen=lam)
        )
        above = second_variation_form(
            two_ray_e0(), FunctionalParams(s=0.0, eps=EPS_THRESHOLD + 1e-6, lambda_pen=lam)
        )
        assert psd_on_zero_average(below)[0] < 0.0
        assert abs(psd_on_zero_average(at)[0]) < 1e-12
        assert psd_on_zero_average(above)[0] > 0.0

    @pytest.mark.parametrize(
        "intervals",
        [
            ((-math.inf, A0), (-A0, math.inf)),
            ((-1.3, 0.2), (0.9, 2.4)),
            ((-math.inf, -1.0), (0.0, 1.0)),
            ((-2.0, -1.0), (0.0, 1.5), (2.0, math.inf)),
        ],
    )
    def test_witness_consistency(self, intervals):
        form = second_variation_form(IntervalUnion1D(intervals=intervals), PARAMS_M1)
        min_eig, witness = psd_on_zero_average(form)
        norm_sq = float(np.dot(witness, witness))
        assert abs(form.value(witness) - min_eig * norm_sq) <= 1e-10
        # The witness is admissible: weighted zero average.
        assert abs(float(np.dot(form.constraint, witness))) <= 1e-12

    def test_witness_is_minimal_among_admissible_probes(self):
        e = IntervalUnion1D(intervals=((-math.inf, -1.0), (0.0, 1.0)))
        form = second_variation_form(e, PARAMS_M1)
        min_eig, _ = psd_on_zero_average(form)
        rng = np.random.default_rng(90125)
        c = form.constraint
        for _ in range(50):
            probe = rng.standard_normal(form.size)
            probe -= c * (np.dot(c, probe) / np.dot(c, c))
            rayleigh = form.value(probe) / float(np.dot(probe, probe))
            assert rayleigh >= min_eig - 1e-12

    def test_single_point_is_vacuous(self):
        e = IntervalUnion1D(intervals=((-math.inf, -1.0),))
        form = second_variation_form(e, PARAMS_M1)
        min_eig, witness = psd_on_zero_average(form)
        assert min_eig == math.inf
        assert witness.shape == (1,)
        assert np.array_equal(witness, np.zeros(1))

    def test_underflowed_weights_admit_every_direction(self):
        # both weights e^{-x^2/2} are exactly 0 at x = 39 and 40
        form = second_variation_form(IntervalUnion1D(intervals=((39.0, 40.0),)), PARAMS_0)
        assert not form.constraint.any()
        min_eig, witness = psd_on_zero_average(form)
        assert math.isfinite(min_eig)
        assert min_eig == 0.0
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "intervals, expected",
        [
            # the first weight is exactly 0, the others are not
            (((-40.0, -39.0), (0.5, 1.0)), -0.6950269951067424),
            # squares of every weight underflow
            (((-math.inf, -30.0), (30.0, math.inf)), -3.693883068487256e-196),
            (((-38.5, -30.0), (28.0, 29.0)), -2.394254760949759e-183),
        ],
        ids=["zero-first-weight", "two-ray-at-30", "deep-tail-mix"],
    )
    def test_tail_weights_keep_the_constraint(self, intervals, expected):
        form = second_variation_form(IntervalUnion1D(intervals=intervals), PARAMS_0)
        min_eig, witness = psd_on_zero_average(form)
        assert min_eig == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-15)
        c = form.constraint
        assert abs(float(np.dot(c, witness))) <= 1e-15 * float(np.max(c))


class TestMassPreservingFlow:
    def test_measure_constant_for_zero_average_velocity(self):
        e = two_ray_e0()
        phi = np.array([1.0, -1.0])  # weights are equal, so this has zero average
        for t in (1e-3, 1e-2, 0.1):
            assert measure(mass_preserving_flow(e, phi, t)) == pytest.approx(0.5, abs=1e-15)

    def test_initial_velocity_is_normal_velocity(self):
        e = two_ray_e0()
        phi = np.array([1.0, -1.0])
        h = 1e-6
        plus = mass_preserving_flow(e, phi, h)
        minus = mass_preserving_flow(e, phi, -h)
        # Both boundary points drift in +x at unit speed: nu*phi = +1 at each.
        v_left = (plus.intervals[0][1] - minus.intervals[0][1]) / (2.0 * h)
        v_right = (plus.intervals[1][0] - minus.intervals[1][0]) / (2.0 * h)
        assert v_left == pytest.approx(1.0, abs=1e-8)
        assert v_right == pytest.approx(1.0, abs=1e-8)

    def test_measure_moves_linearly_for_nonzero_average(self):
        e = two_ray_e0()
        phi = np.array([1.0, 0.0])
        t = 0.05
        drift = measure(mass_preserving_flow(e, phi, t)) - measure(e)
        assert drift == pytest.approx(t * W0 / SQRT_2PI, abs=1e-14)

    def test_infinite_endpoints_do_not_move(self):
        e = two_ray_e0()
        flowed = mass_preserving_flow(e, np.array([1.0, -1.0]), 0.01)
        assert flowed.intervals[0][0] == -math.inf
        assert flowed.intervals[1][1] == math.inf

    def test_wrong_velocity_length_rejected(self):
        with pytest.raises(ValueError, match="one velocity per"):
            mass_preserving_flow(two_ray_e0(), np.array([1.0]), 0.01)

    def test_excessive_time_rejected(self):
        e = IntervalUnion1D(intervals=((-math.inf, 3.0),))
        with pytest.raises(ValueError, match="mass range"):
            mass_preserving_flow(e, np.array([1.0]), 1.0)


class TestSecondDerivativeAlongFlow:
    """Cross-checks between finite differences of the functional and the form.

    The exact directional second derivative along the flow is
    sum_i (-1 + eps b nu_i / sqrt(2 pi)) phi_i^2 w_i
      + (eps / (2 pi)) (sum phi_i x_i w_i)^2,
    and the form carries the same coefficients.  The tests check the finite
    difference against this expression and against the form, and pin the
    gap of a unit-coefficient matrix (eps on both terms, no normalization
    factors) to show that the comparison tells the two apart.
    """

    @staticmethod
    def exact_second_derivative(e, params, phi):
        x, nu, w, b = boundary_data(e)
        v = np.asarray(phi, dtype=float)
        local = np.sum((-1.0 + params.eps * b * nu / SQRT_2PI) * v * v * w)
        nonlocal_term = params.eps / (2.0 * math.pi) * float(np.dot(v, x * w)) ** 2
        return float(local + nonlocal_term)

    def test_fd_matches_exact_expression_on_two_ray(self):
        e = two_ray_e0()
        phi = np.array([1.0, -1.0])
        fd = second_derivative_along_flow(e, PARAMS_0, phi)
        assert fd == pytest.approx(self.exact_second_derivative(e, PARAMS_0, phi), rel=1e-6)

    def test_fd_matches_exact_expression_on_asymmetric_interval(self):
        e = IntervalUnion1D(intervals=((-0.3, 1.7),))
        _, _, w = boundary_points(e)
        # Zero-average direction for unequal weights.
        phi = np.array([1.0 / w[0], -1.0 / w[1]])
        params = FunctionalParams(s=0.0, eps=2.5, lambda_pen=3.0)
        fd = second_derivative_along_flow(e, params, phi)
        assert fd == pytest.approx(self.exact_second_derivative(e, params, phi), rel=1e-5)

    @staticmethod
    def unit_coefficient_matrix(e, params):
        x, nu, w, b = boundary_data(e)
        return np.diag((-1.0 + params.eps * b * nu) * w) + params.eps * np.outer(x * w, x * w)

    def test_fd_matches_form_on_symmetric_interval_within_tolerance(self):
        # At a stationary bounded interval the form and the true directional
        # derivative agree far below 1e-3 relative.
        e = symmetric_interval(-1.0)
        form = second_variation_form(e, PARAMS_M1)
        phi = np.array([1.0, -1.0])
        fd = second_derivative_along_flow(e, PARAMS_M1, phi)
        rel_gap = abs(fd - form.value(phi)) / abs(fd)
        assert rel_gap < 1e-3

    @pytest.mark.parametrize(
        "s, expected_gap",
        [(0.0, 0.001544100861967797), (-1.0, 0.0025848908459081095)],
    )
    def test_measured_gap_between_form_and_fd_on_two_ray(self, s, expected_gap):
        # The form matches the finite difference, while the unit-coefficient
        # matrix (eps instead of eps/(2 pi) on the rank-one term) misses it
        # by a relative gap just above 1e-3 at the stability eps values.
        e = two_ray(s)
        params = stability_params(s)
        form = second_variation_form(e, params)
        phi = np.array([1.0, -1.0])
        fd = second_derivative_along_flow(e, params, phi)
        assert abs(fd - form.value(phi)) / abs(fd) < 1e-6
        unit = self.unit_coefficient_matrix(e, params)
        rel_gap = abs(fd - float(phi @ unit @ phi)) / abs(fd)
        assert rel_gap == pytest.approx(expected_gap, rel=1e-3)
        assert rel_gap > 1e-3

    def test_penalty_term_cancels_even_off_target_mass(self):
        # The set's mass differs from the target level, so the penalty is
        # active but constant along the flow; the difference quotient must not
        # see it.
        e = two_ray_e0()
        phi = np.array([1.0, -1.0])
        with_pen = FunctionalParams(s=-1.0, eps=EPS_1, lambda_pen=50.0)
        without_pen = FunctionalParams(s=-1.0, eps=EPS_1, lambda_pen=0.0)
        fd_with = second_derivative_along_flow(e, with_pen, phi)
        fd_without = second_derivative_along_flow(e, without_pen, phi)
        assert fd_with == pytest.approx(fd_without, abs=1e-8)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1.0, -1.0]), h=0.0)

    @pytest.mark.parametrize("h", [1e-300, 1e-160, 5e-324, math.nextafter(_SQRT_MIN_NORMAL, 0.0)])
    def test_step_whose_square_underflows_is_refused(self, h):
        # h * h would be 0 (a division by zero) or subnormal (a curvature of 0.0)
        with pytest.raises(ValueError, match=r"step size must be at least 1\.49e-154, where h \* h underflows"):
            second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1.0, -1.0]), h=h)

    @pytest.mark.parametrize("h", [1e200, 1e300, math.nextafter(_SQRT_MAX, math.inf)])
    def test_step_whose_square_overflows_is_refused(self, h):
        # h * h would be inf, and the curvature 0.0 whatever the flow did
        with pytest.raises(ValueError, match=r"step size must be at most 1\.34e\+154, where h \* h overflows"):
            second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1e-300, -1e-300]), h=h)

    def test_largest_step_is_accepted(self):
        fd = second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1e-300, -1e-300]), h=_SQRT_MAX)
        assert math.isfinite(fd)

    def test_smallest_step_is_the_sweep_bound(self):
        # both bounds are special._SQRT_MIN_NORMAL, sqrt(smallest normal float)
        fd = second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1.0, -1.0]), h=_SQRT_MIN_NORMAL)
        assert math.isfinite(fd)
        mass_sweep([-_SQRT_MIN_NORMAL])
        with pytest.raises(ValueError, match="underflows"):
            mass_sweep([-math.nextafter(_SQRT_MIN_NORMAL, 0.0)])

    def test_one_boundary_pass_per_call(self, monkeypatch):
        calls = []
        boundary = stationarity._boundary

        def counted(e):
            calls.append(e)
            return boundary(e)

        monkeypatch.setattr(stationarity, "_boundary", counted)
        second_derivative_along_flow(two_ray_e0(), PARAMS_0, np.array([1.0, -1.0]))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "intervals, phi, h, rejected",
        [
            # the ray's endpoint leaves the mass range at +h, then at -h
            (((-math.inf, 3.0),), [1.0], 1.0, 1.0),
            (((-math.inf, 3.0),), [-1.0], 1.0, -1.0),
            # the interval closes up at +h, then at -h
            (((0.0, 0.1),), [-1.0, -1.0], 0.5, 0.5),
            (((0.0, 0.1),), [1.0, 1.0], 0.5, -0.5),
        ],
    )
    def test_rejected_step_raises_as_the_flow(self, intervals, phi, h, rejected):
        e = IntervalUnion1D(intervals=intervals)
        phi = np.array(phi)
        with pytest.raises(ValueError) as flow:
            mass_preserving_flow(e, phi, rejected)
        mass_preserving_flow(e, phi, -rejected)
        with pytest.raises(ValueError) as second:
            second_derivative_along_flow(e, PARAMS_0, phi, h=h)
        assert str(second.value) == str(flow.value)


@st.composite
def _set_and_direction(draw):
    """A union of 1-3 intervals with endpoints in [-2.5, 2.5], spaced >= 0.05,
    an optional ray at either end, at least two finite boundary points, and a
    unit-norm weighted zero-average direction on them."""
    k = draw(st.integers(min_value=1, max_value=3))
    ends = sorted(
        draw(
            st.lists(
                st.floats(min_value=-2.5, max_value=2.5),
                min_size=2 * k,
                max_size=2 * k,
            )
        )
    )
    assume(min(np.diff(ends)) >= 0.05)
    intervals = [[ends[2 * i], ends[2 * i + 1]] for i in range(k)]
    if draw(st.booleans()):
        intervals[0][0] = -math.inf
    if draw(st.booleans()):
        intervals[-1][1] = math.inf
    e = IntervalUnion1D(intervals=tuple(tuple(iv) for iv in intervals))
    _, _, w = boundary_points(e)
    assume(len(w) >= 2)
    raw = np.array(
        draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=len(w), max_size=len(w)))
    )
    phi = raw - w * (np.dot(raw, w) / np.dot(w, w))
    norm = float(np.linalg.norm(phi))
    assume(norm >= 1e-3)
    return e, phi / norm


class TestVariationsOnRandomSets:
    """First and second variation against finite differences of F on random
    interval unions, whose barycenter is in general nonzero."""

    @given(_set_and_direction(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_residual_is_first_derivative_along_flow(self, case, eps):
        e, phi = case
        params = FunctionalParams(s=0.0, eps=eps, lambda_pen=1.0)
        x, _, w, b = boundary_data(e)
        first = float(np.dot(euler_residual(e, params).residuals, w * phi))
        h = 1e-4
        fd = (
            penalized_functional(mass_preserving_flow(e, phi, h), params)
            - penalized_functional(mass_preserving_flow(e, phi, -h), params)
        ) / (2.0 * h)
        # Relative to the size of the perimeter and barycenter pieces, which
        # stays away from zero where the two cancel near a critical set.
        scale = float(np.sum(np.abs(x * phi * w))) * (1.0 + eps * abs(b) / SQRT_2PI)
        assert abs(first - fd) <= 1e-6 * scale

    @given(_set_and_direction(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_form_is_second_derivative_along_flow(self, case, eps):
        e, phi = case
        params = FunctionalParams(s=0.0, eps=eps, lambda_pen=1.0)
        form = second_variation_form(e, params)
        fd = second_derivative_along_flow(e, params, phi, h=1e-3)
        scale = abs(fd) + float(np.sum(phi * phi * form.constraint))
        assert abs(form.value(phi) - fd) <= 1e-4 * scale


def _reference_form(e, params):
    """``second_variation_form``'s matrix and constraint in NumPy's element-wise ops."""
    w, _, h, db = stationarity._variation(e, params, "the form")
    return np.diag(h) + params.eps * np.outer(db, db), np.array(w)


def _reference_psd(matrix, constraint):
    """``psd_on_zero_average`` with the Householder basis in NumPy's element-wise ops."""
    k = len(constraint)
    top = max(map(abs, constraint.tolist()))
    if top == 0.0:
        basis = np.eye(k)
    else:
        v = np.ldexp(constraint, -math.frexp(top)[1])
        v[0] += math.copysign(math.sqrt(float(v.dot(v))), v[0])
        basis = (np.eye(k) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]
    reduced = basis.T @ matrix @ basis
    reduced = 0.5 * (reduced + reduced.T)
    values, vectors = np.linalg.eigh(reduced)
    return float(values[0]), basis @ vectors[:, 0]


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def _bit_identity_sets():
    """Seeded unions with rays, and deep-tail sets: weights that underflow,
    all of them or some, weights in the subnormal range, and signed zeros."""
    rng = np.random.default_rng(32)
    intervals = []
    for _ in range(300):
        k = int(rng.integers(1, 4))
        ends = np.sort(rng.uniform(-4.0, 4.0, 2 * k))
        if min(np.diff(ends)) < 1e-3:
            continue
        if rng.random() < 0.3:
            ends[0] = -math.inf
        if rng.random() < 0.3:
            ends[-1] = math.inf
        if not np.isfinite(ends).any():
            continue
        intervals.append(tuple(zip(ends[0::2].tolist(), ends[1::2].tolist())))
    intervals += [
        ((-0.0, 1.0),),
        ((-math.inf, -0.0),),
        ((0.0, math.inf),),
        ((-0.0, 0.5), (38.2, math.inf)),
        ((39.0, 40.0),),
        ((-40.0, -39.0), (39.0, 40.0)),
        ((-math.inf, -38.5), (38.6, math.inf)),
        ((-1e300, -1e299), (5.0, 6.0)),
        ((-2e154, -1.9e154), (1.9e154, 2e154)),
        ((-math.inf, -37.0), (-2.0, 1.0), (36.0, 38.0)),
    ]
    return [IntervalUnion1D(intervals=iv) for iv in intervals]


def _bit_identity_params(e, eps):
    """The stability weights at ``e``'s level for ``eps`` None, else ``eps``
    with the mass penalty 2 at s = -1; None where ``e``'s level is infinite."""
    if eps is not None:
        return FunctionalParams(s=-1.0, eps=eps, lambda_pen=2.0)
    s = gauss_cdf_inv(measure(e))
    return stability_params(s) if math.isfinite(s) else None


class TestBitIdentity:
    """The residual's multiplier, the form and the eigen-solve equal their
    NumPy element-wise forms in every bit."""

    @pytest.mark.parametrize("eps", [None, 0.0, 0.3, 7.0])
    def test_python_float_entries_match_numpy_elementwise(self, eps):
        compared = 0
        for e in _bit_identity_sets():
            params = _bit_identity_params(e, eps)
            if params is None:
                continue
            w, g, _, _ = stationarity._variation(e, params, "the residual")
            if any(w):
                weights = np.array(w)
                expected = float(np.dot(g, weights) / np.sum(weights))
                assert euler_residual(e, params).lambda_fit.hex() == expected.hex()
            form = second_variation_form(e, params)
            matrix, constraint = _reference_form(e, params)
            assert _hexes(form.matrix) == _hexes(matrix)
            assert _hexes(form.constraint) == _hexes(constraint)
            if form.size >= 2:
                lam, witness = psd_on_zero_average(form)
                ref_lam, ref_witness = _reference_psd(matrix, constraint)
                assert lam.hex() == ref_lam.hex()
                assert _hexes(witness) == _hexes(ref_witness)
            compared += 1
        assert compared >= 250

    @pytest.mark.parametrize("eps", [None, 0.0, 0.3, 7.0, 1e300])
    def test_unchecked_form_would_pass_the_checks(self, eps):
        # second_variation_form builds its form without QuadraticFormJ's
        # checks: every matrix is float64, square, finite, exactly symmetric
        # and sized to its constraint, and the checked constructor takes it as it is
        checked = 0
        for e in _bit_identity_sets():
            params = _bit_identity_params(e, eps)
            if params is None:
                continue
            form = second_variation_form(e, params)
            m, c = form.matrix, form.constraint
            assert m.dtype == c.dtype == np.float64
            assert c.ndim == 1
            assert m.shape == (len(c), len(c))
            assert np.isfinite(m).all()
            assert np.array_equal(m, m.T)
            rebuilt = QuadraticFormJ(matrix=m, constraint=c)
            assert rebuilt.matrix is m and rebuilt.constraint is c
            checked += 1
        assert checked >= 250

    def test_boundary_alone_evaluates_the_weight(self):
        # one exp pass per set: _boundary gives the weights and b(E) together
        path = Path(stationarity.__file__)
        callers = set()
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            units = top.body if isinstance(top, ast.ClassDef) else [top]
            for unit in units:
                for node in ast.walk(unit):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr == "exp"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("math", "np")
                    ):
                        callers.add(getattr(unit, "name", None))
        assert callers == {"_boundary"}

    @staticmethod
    def _two_point_forms():
        """Forms with two boundary points, probe-style, and hand-built ones:
        -0.0 and subnormal entries, overflowing products, infinite entries,
        and the all-underflow weights of (39, 40), whose basis is the identity."""
        rng = np.random.default_rng(33)
        forms = []
        while len(forms) < 900:
            a, b = np.sort(rng.normal(0.0, 1.5, 2)).tolist()
            if b - a < 1e-2:
                continue
            for intervals in (((a, b),), ((-math.inf, a), (b, math.inf))):
                e = IntervalUnion1D(intervals=intervals)
                forms += [
                    second_variation_form(e, FunctionalParams(s=-1.0, eps=eps, lambda_pen=2.0))
                    for eps in (0.0, 0.3, 7.0)
                ]
                forms.append(second_variation_form(e, stability_params(gauss_cdf_inv(measure(e)))))
        forms.append(second_variation_form(IntervalUnion1D(intervals=((-0.0, 1.0),)), PARAMS_0))
        underflow = second_variation_form(IntervalUnion1D(intervals=((39.0, 40.0),)), PARAMS_0)
        assert not underflow.constraint.any()
        hand_built = [
            ([[-0.0, -0.0], [-0.0, -0.0]], [0.5, 1.0]),
            ([[0.0, 0.0], [0.0, -5e-324]], [1.0, 0.5]),
            ([[1e308, 1e308], [1e308, 1e308]], [1.0, -1.0]),
            ([[1.0, 0.0], [0.0, 1.7e308]], [1.0, 0.0]),  # r + r overflows
            ([[math.inf, 0.0], [0.0, 1.0]], [1.0, 0.0]),
            ([[-math.inf, 0.0], [0.0, 1.0]], [1.0, 0.5]),
            ([[1.0, 2.0], [2.0, -3.0]], underflow.constraint),
        ]
        forms += [QuadraticFormJ(matrix=np.array(m), constraint=np.array(c)) for m, c in hand_built]
        return forms

    def test_one_column_solve_matches_eigh(self):
        closed = 0
        with warnings.catch_warnings():
            # the hand-built forms overflow, or meet inf * 0, in the projection
            warnings.simplefilter("ignore", RuntimeWarning)
            for form in self._two_point_forms():
                lam, witness = psd_on_zero_average(form)
                ref_lam, ref_witness = _reference_psd(form.matrix, form.constraint)
                assert lam.hex() == ref_lam.hex()
                assert _hexes(witness) == _hexes(ref_witness)
                closed += form.constraint.any() and math.isfinite(lam)
        assert closed >= 900

    @pytest.mark.parametrize("entry", [-0.0, 0.0, 5e-324, -5e-324, -1e300, 0.75, 1.7976931348623157e308])
    def test_eigh_of_one_entry_is_the_entry(self, entry):
        # LAPACK's dsyevd returns A(1,1) and the eigenvector 1 for n = 1,
        # which the closed-form 1x1 solve relies on
        values, vectors = np.linalg.eigh(np.array([[entry]]))
        assert values[0].hex() == entry.hex()
        assert vectors.tolist() == [[1.0]]

    @pytest.mark.parametrize("h", [1e-4, 1e-2, 0.3])
    def test_flow_steps_price_as_the_public_flow(self, h):
        # second_derivative_along_flow prices endpoint pairs, not set
        # objects: it equals the difference of F on mass_preserving_flow's
        # sets in every bit, and a rejected step raises the same text
        rng = np.random.default_rng(34)
        sets = _bit_identity_sets()
        rejected = 0
        for e in sets:
            k = len(e.finite_endpoints)
            phi = rng.normal(size=k)
            try:
                got = second_derivative_along_flow(e, PARAMS_0, phi, h=h)
            except ValueError as exc:
                with pytest.raises(ValueError) as flow:
                    for t in (h, -h):
                        mass_preserving_flow(e, phi, t)
                assert str(exc) == str(flow.value)
                rejected += 1
                continue
            f_plus, f_minus = (penalized_functional(mass_preserving_flow(e, phi, t), PARAMS_0) for t in (h, -h))
            f_zero = penalized_functional(e, PARAMS_0)
            assert got.hex() == ((f_plus - 2.0 * f_zero + f_minus) / (h * h)).hex()
        assert len(sets) - rejected >= 100
        if h == 0.3:
            assert rejected > 0

    @pytest.mark.parametrize("t", [1, -2, np.float64(0.01), np.float32(0.01), np.int64(1)])
    def test_flow_time_keeps_numpy_promotion(self, t):
        # t * phi is taken in NumPy: a float32 time is widened exactly, as a
        # float64 product with phi
        e = IntervalUnion1D(intervals=((-1.0, -0.5), (0.2, 0.9)))
        phi = np.array([0.3, -0.1, 0.2, -0.25]) * 0.1
        assert mass_preserving_flow(e, phi, t) == mass_preserving_flow(e, phi, float(t))
        with pytest.raises(OverflowError):
            mass_preserving_flow(e, phi, 10**400)


class TestEigenSolve:
    """``psd_on_zero_average`` calls ``np.linalg.eigh``'s gufunc under its error
    state, without the wrapper: the same values, vectors and error."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(36)
        for k in range(2, 7):
            for _ in range(300):
                a = rng.normal(size=(k, k)) * 10.0 ** float(rng.integers(-200, 201))
                yield 0.5 * (a + a.T)
            yield np.zeros((k, k))
            yield np.full((k, k), -0.0)
            yield np.diag(np.full(k, 5e-324))
            yield np.diag([math.inf] + [1.0] * (k - 1))
            yield np.diag([math.nan] + [1.0] * (k - 1))  # eigh returns NaN here, not an error

    def test_gufunc_matches_eigh(self):
        for m in self._matrices():
            values, vectors = stationarity._eigh(m)
            ref_values, ref_vectors = np.linalg.eigh(m)
            assert _hexes(values) == _hexes(ref_values)
            assert _hexes(vectors) == _hexes(ref_vectors)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_nan_form_raises_as_eigh(self, k):
        m = np.full((k, k), math.nan)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            np.linalg.eigh(m)
        with pytest.raises(np.linalg.LinAlgError) as got:
            stationarity._eigh(m)
        assert str(got.value) == str(expected.value) == "Eigenvalues did not converge"

    def test_nan_reduced_form_raises_from_psd(self):
        # every entry +inf: the projection meets inf - inf in every entry of
        # the 3x3 reduced form
        form = QuadraticFormJ(matrix=np.full((4, 4), math.inf), constraint=np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                psd_on_zero_average(form)

    def test_only_stationarity_names_the_gufunc_module(self):
        package = Path(stationarity.__file__).resolve().parent
        naming = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (
                    (isinstance(node, ast.Name) and node.id == "_umath_linalg")
                    or (isinstance(node, ast.Attribute) and node.attr == "_umath_linalg")
                    or (isinstance(node, ast.alias) and "_umath_linalg" in (node.name, node.asname))
                    or (isinstance(node, ast.ImportFrom) and "_umath_linalg" in (node.module or ""))
                ):
                    naming.add(path.stem)
        assert naming == {"stationarity"}
