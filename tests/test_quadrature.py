"""Validation of the adaptive quadrature oracle itself.

Exact reference values here come from elementary antiderivatives (polynomials,
exponentials), not from the Gaussian closed forms the oracle is later used to
check, so the two routes stay independent.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from gaussiso import quadrature
from gaussiso.quadrature import QuadResult, QuadSettings, adaptive_quad, adaptive_quad_many


def _lift(f):
    """A scalar integrand applied elementwise, as the batch core expects."""
    return lambda x: np.array([f(v) for v in x.tolist()], dtype=float)


def _singular(x):
    return abs(x) ** -0.5 if x != 0.0 else 0.0


class TestSettings:
    def test_defaults(self):
        s = QuadSettings()
        assert s.abs_tol == 1e-12
        assert s.rel_tol == 1e-12
        assert s.max_depth == 60

    def test_numpy_integer_depth_accepted(self):
        r = adaptive_quad(math.sin, 0.0, 20.0, settings=QuadSettings(max_depth=np.int64(8)))
        assert r == adaptive_quad(math.sin, 0.0, 20.0, settings=QuadSettings(max_depth=8))

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            QuadSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadSettings(rel_tol=-1e-3)
        with pytest.raises(ValueError):
            QuadSettings(max_depth=0)
        with pytest.raises(ValueError):
            QuadSettings(max_depth=True)
        for bad in (True, "1e-3", None):
            with pytest.raises(ValueError, match="abs_tol"):
                QuadSettings(abs_tol=bad)
            with pytest.raises(ValueError, match="rel_tol"):
                QuadSettings(rel_tol=bad)

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    def test_rejects_int_past_the_float_range(self, name):
        # float(10**400) overflows; the check reads it as +inf, not finite
        with pytest.raises(ValueError, match=f"QuadSettings: {name} must be finite"):
            QuadSettings(**{name: 10**400})


class TestFiniteIntervals:
    def test_polynomial_exact(self):
        # GK15 integrates this degree-7 polynomial exactly in one panel
        r = adaptive_quad(lambda x: 7 * x**6 - 3 * x**2 + 1, -1.0, 2.0)
        assert r.converged
        assert r.value == pytest.approx((2.0**7 - 2.0**3 + 2.0) - (-1.0 - (-1.0) + (-1.0)), rel=1e-14)

    def test_oscillatory(self):
        r = adaptive_quad(math.sin, 0.0, 20.0)
        assert r.converged
        assert r.value == pytest.approx(1.0 - math.cos(20.0), abs=1e-11)

    def test_error_estimate_honest(self):
        r = adaptive_quad(lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 10.0)
        truth = (3.0 - math.exp(-10.0) * (math.sin(30.0) * 1.0 + 3.0 * math.cos(30.0))) / 10.0
        assert r.converged
        assert abs(r.value - truth) <= max(1e-12, 10 * r.error + 1e-13)

    def test_degenerate_interval(self):
        r = adaptive_quad(lambda x: 1.0, 1.5, 1.5)
        assert r.value == 0.0 and r.converged

    def test_rejects_reversed_or_nan(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 2.0, 1.0)
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, math.nan, 1.0)


class TestInfiniteIntervals:
    def test_exponential_tail(self):
        r = adaptive_quad(lambda x: math.exp(-x), 0.0, math.inf)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_lower_tail(self):
        r = adaptive_quad(lambda x: math.exp(x), -math.inf, 0.0)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_two_sided(self):
        r = adaptive_quad(lambda x: math.exp(-abs(x)), -math.inf, math.inf)
        assert r.converged
        assert r.value == pytest.approx(2.0, rel=1e-11)

    def test_shifted_lower_endpoint(self):
        r = adaptive_quad(lambda x: math.exp(-(x - 3.0)), 3.0, math.inf)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-12)


class TestConvergenceFlag:
    def test_integrable_singularity_exhausts_small_depth_budget(self):
        settings = QuadSettings(max_depth=8)
        r = adaptive_quad(lambda x: abs(x) ** -0.5 if x != 0.0 else 0.0, 0.0, 1.0, settings)
        assert not r.converged
        # estimate is still in the right ballpark of the true value 2
        assert r.value == pytest.approx(2.0, abs=0.1)

    def test_same_singularity_converges_with_more_depth(self):
        settings = QuadSettings(abs_tol=1e-9, rel_tol=1e-9, max_depth=60)
        r = adaptive_quad(lambda x: abs(x) ** -0.5 if x != 0.0 else 0.0, 0.0, 1.0, settings)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-7)

    def test_result_type(self):
        r = adaptive_quad(lambda x: x * x, 0.0, 1.0)
        assert isinstance(r, QuadResult)
        assert r.evals >= 15


class TestFrozenParity:
    """(value, error, evals, converged) of the one-panel-at-a-time recursion
    that preceded the batched core, recorded from it and frozen. The batch of
    one must reproduce them bit for bit."""

    CASES = {
        "polynomial": (lambda x: 7 * x**6 - 3 * x**2 + 1, -1.0, 2.0, None,
                       (122.99999999999997, 0.0, 15, True)),
        "oscillatory": (math.sin, 0.0, 20.0, None,
                        (0.591917938186608, 2.7576552152908107e-13, 225, True)),
        "damped": (lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 10.0, None,
                   (0.3000023847551365, 4.3851973105264036e-14, 345, True)),
        "upper_tail": (lambda x: math.exp(-x), 0.0, math.inf, None,
                       (1.0, 8.315671564813092e-15, 285, True)),
        "lower_tail": (lambda x: math.exp(x), -math.inf, 0.0, None,
                       (1.0, 8.315671564813092e-15, 285, True)),
        "two_sided": (lambda x: math.exp(-abs(x)), -math.inf, math.inf, None,
                      (2.0, 1.6631343129626184e-14, 570, True)),
        "shifted": (lambda x: math.exp(-(x - 3.0)), 3.0, math.inf, None,
                    (1.0, 8.346788220102948e-15, 285, True)),
        "singular_depth_8": (_singular, 0.0, 1.0, QuadSettings(max_depth=8),
                             (1.9971450993480309, 0.004403121800122631, 465, False)),
        "singular_depth_60": (_singular, 0.0, 1.0,
                              QuadSettings(abs_tol=1e-9, rel_tol=1e-9, max_depth=60),
                              (1.9999999999574585, 7.416027483764705e-11, 4635, True)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical(self, name):
        f, a, b, settings, frozen = self.CASES[name]
        r = adaptive_quad(f, a, b, settings)
        assert (r.value, r.error, r.evals, r.converged) == frozen


class TestBatch:
    LO = [0.0, -math.inf, -math.inf, 3.0, -2.5, 1.5, -0.3, -math.inf, 0.25, -1e-3]
    HI = [20.0, 0.5, math.inf, math.inf, 4.0, 1.5, -0.1, -7.0, math.inf, 1e-3]

    @staticmethod
    def integrand(x):
        return math.exp(-0.5 * x * x) * (1.0 + math.cos(3.0 * x)) + 1e-3 * abs(x) ** 0.3 * math.exp(-abs(x))

    @pytest.mark.parametrize("settings", [None, QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=5)])
    def test_independent_of_batch(self, settings):
        batch = adaptive_quad_many(_lift(self.integrand), self.LO, self.HI, settings)
        singles = [adaptive_quad(self.integrand, a, b, settings) for a, b in zip(self.LO, self.HI)]
        assert batch.value.tolist() == [r.value for r in singles]
        assert batch.error.tolist() == [r.error for r in singles]
        assert batch.evals.tolist() == [r.evals for r in singles]
        assert batch.converged.tolist() == [r.converged for r in singles]

    def test_grouping_is_invisible(self, monkeypatch):
        f = _lift(self.integrand)
        whole = adaptive_quad_many(f, self.LO, self.HI)
        monkeypatch.setattr(quadrature, "_GROUP", 3)
        grouped = adaptive_quad_many(f, self.LO, self.HI)
        for field in ("value", "error", "converged", "evals"):
            assert getattr(grouped, field).tolist() == getattr(whole, field).tolist()

    def test_vectorized_integrand_matches_truth(self):
        r = adaptive_quad_many(lambda x: np.exp(-np.abs(x)), [-math.inf, 0.0, -1.0], [math.inf, math.inf, 2.0])
        assert r.converged.all()
        np.testing.assert_allclose(r.value, [2.0, 1.0, 2.0 - math.exp(-1.0) - math.exp(-2.0)], rtol=1e-12)

    def test_never_evaluates_at_infinity(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.exp(-np.abs(x))

        adaptive_quad_many(f, [-math.inf, 5.0], [math.inf, math.inf])
        assert all(np.isfinite(x).all() for x in seen)

    def test_empty_batch(self):
        r = adaptive_quad_many(lambda x: x, [], [])
        assert r.value.shape == r.error.shape == r.converged.shape == r.evals.shape == (0,)

    def test_degenerate_intervals_cost_nothing(self):
        r = adaptive_quad_many(lambda x: np.ones_like(x), [1.0, -math.inf], [1.0, -math.inf])
        assert r.value.tolist() == [0.0, 0.0]
        assert r.evals.tolist() == [0, 0]
        assert r.converged.all()

    def test_rejects_nan_endpoints(self):
        with pytest.raises(ValueError, match="endpoints must not be NaN"):
            adaptive_quad_many(lambda x: x, [0.0, math.nan], [1.0, 2.0])
        with pytest.raises(ValueError, match="endpoints must not be NaN"):
            adaptive_quad_many(lambda x: x, [0.0, 1.0], [1.0, math.nan])

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match=r"requires a <= b, got a=2\.0 > b=1\.0"):
            adaptive_quad_many(lambda x: x, [0.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"requires a <= b, got a=2\.0 > b=1\.0"):
            adaptive_quad(lambda x: x, 2.0, 1.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="1-D of one shape"):
            adaptive_quad_many(lambda x: x, [0.0, 1.0], [1.0])

    def test_rejects_finite_interval_whose_width_overflows(self):
        # its nodes would be non-finite: f would see them
        seen = []

        def f(x):
            seen.append(x)
            return np.zeros_like(x)

        with pytest.raises(ValueError, match=r"interval \(-1e\+308, 1e\+308\) has an endpoint beyond 8\.988e\+307, where a panel's width or center overflows the float range"):
            adaptive_quad_many(f, [0.0, -1e308], [1.0, 1e308])
        with pytest.raises(ValueError, match="overflows the float range"):
            adaptive_quad(lambda x: 0.0, -1e308, 1e308)
        assert seen == []
        # rays and the whole line have no finite width to overflow
        r = adaptive_quad_many(f, [-1e308, -math.inf, -math.inf, -1e300], [math.inf, 1e308, math.inf, 1e300])
        assert r.converged.all()
        assert all(np.isfinite(x).all() for x in seen)


class TestEndpointRange:
    """A finite interval's endpoints stay within half the float range, so that
    every panel's center and width are finite."""

    def test_rejects_finite_endpoint_whose_panel_centers_overflow(self):
        # (0, 1.7e308) has a finite width, but its right half's lo + hi overflows
        f = lambda x: np.exp(-np.abs(x - 1.6e308) / 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"interval \(0\.0, 1\.7e\+308\) has an endpoint beyond 8\.988e\+307"):
                adaptive_quad_many(f, [0.0], [1.7e308], QuadSettings(max_depth=5))

    def test_half_the_float_range_and_any_ray_anchor_are_accepted(self):
        end = quadrature._MAX_END
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = adaptive_quad_many(np.zeros_like, [-end, 0.0, 1.7e308, -math.inf], [end, end, math.inf, -1.7e308])
        assert r.converged.all()


class TestPanelBudget:
    """No row evaluates more than ``_MAX_PANELS`` panels in one round."""

    @staticmethod
    def f(x):
        return np.exp(-np.abs(x)) / np.sqrt(np.abs(x) + 1e-12)

    SETTINGS = QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=24)

    def test_row_stops_at_the_budget(self, monkeypatch):
        # rounding noise keeps every panel near the peak over its share, so
        # the row's panels double each round until the budget stops them
        widest = []
        gk15 = quadrature._gk15

        def counted(integrand, row, lo, hi):
            widest.append(int(np.bincount(row).max()))
            return gk15(integrand, row, lo, hi)

        monkeypatch.setattr(quadrature, "_gk15", counted)
        r = adaptive_quad_many(self.f, [-math.inf], [1.1951], self.SETTINGS)
        assert max(widest) <= quadrature._MAX_PANELS < 2 * max(widest)
        assert len(widest) < self.SETTINGS.max_depth
        # without the budget the row took 162,795 evaluations
        assert r.evals[0] < 50_000
        assert not r.converged[0]
        # the 1e-12 offset aside, the integral is sqrt(pi) (1 + erf(sqrt(1.1951)))
        assert r.value[0] == pytest.approx(math.sqrt(math.pi) * (1.0 + math.erf(math.sqrt(1.1951))), abs=r.error[0])

    def test_row_stops_as_it_would_alone(self):
        alone = adaptive_quad_many(self.f, [-math.inf], [1.1951], self.SETTINGS)
        # the other rows push every round's total past the budget
        batch = adaptive_quad_many(
            self.f, [0.5, -math.inf, 1.0, -math.inf], [1.0, 1.1951, 2.0, 1.1951], self.SETTINGS
        )
        for field in ("value", "error", "evals"):
            got = getattr(batch, field)
            assert got[1] == got[3] == getattr(alone, field)[0]
        assert batch.converged[[0, 2]].all()


class TestLostMass:
    """A row whose leaves all read 0 although its whole-row estimate did not
    has lost its mass between the nodes, and reads not converged."""

    def test_wide_interval_around_a_peak_is_not_converged(self):
        # the first split puts every node of both halves beyond |x| ~ 43
        r = adaptive_quad_many(_density, [-1e4, -1e3], [1e4, 1e3])
        whole, _ = quadrature._gk15(
            lambda row, t: quadrature._direct(_density, t), np.arange(1), np.array([-1e4]), np.array([1e4])
        )
        assert r.value[0] == 0.0
        assert r.error[0] == abs(whole[0]) > 0.0
        assert r.converged.tolist() == [False, True]
        assert r.value[1] == pytest.approx(1.0, rel=1e-12)
        assert not adaptive_quad(lambda x: math.exp(-0.5 * x * x), -1e4, 1e4).converged

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (np.zeros_like, -1e4, 1e4),   # nothing to lose: the whole-row estimate is 0
            (lambda x: x, -1.0, 1.0),     # the odd parts cancel in every estimate
        ],
        ids=["zero", "odd"],
    )
    def test_zero_integral_still_converges(self, f, lo, hi):
        r = adaptive_quad_many(f, [lo], [hi])
        assert r.value.tolist() == [0.0]
        assert r.error.tolist() == [0.0]
        assert r.converged.all()


def _panel_major_integrand(f, sign, anchor, t):
    """The batched core's integrand before rows were bisected by kind: one
    row of t per panel, with the direct and mapped rows selected by where."""
    direct = sign == 0.0
    u = 1.0 - t
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(direct, t, anchor + sign * (t / u))
    live = direct | ~np.isinf(x)
    if live.all():
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(t.shape)
    else:
        fx = np.zeros_like(t)
        fx[live] = f(x[live])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(direct, fx, np.where(fx == 0.0, 0.0, fx / (u * u)))


def _panel_major_gk15(f, sign, anchor, lo, hi):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = center[:, None] + half[:, None] * quadrature._OFFSETS
    ft = _panel_major_integrand(f, sign[:, None], anchor[:, None], t)
    pairs = np.empty((lo.size, 8))
    pairs[:, 0] = ft[:, 0]
    np.add(ft[:, 1:8], ft[:, 8:], out=pairs[:, 1:])
    kronrod = functools.reduce(np.add, (pairs * quadrature._KRONROD_WEIGHTS).T) * half
    gauss = functools.reduce(np.add, (pairs[:, ::2] * quadrature._GAUSS_WEIGHTS).T) * half
    return kronrod, np.abs(kronrod - gauss)


def _panel_major_integrate(f, lo, hi, settings):
    """``quadrature._integrate`` as it was with panel-major arrays and every
    row of a group bisected together: the reference for the current kernel."""
    nonempty = np.flatnonzero(lo < hi)
    a, b = lo[nonempty], hi[nonempty]
    both = np.isinf(a) & np.isinf(b)
    owner = np.concatenate([nonempty, nonempty[both]])
    row_a = np.concatenate([a, np.zeros(int(both.sum()))])
    row_b = np.concatenate([np.where(both, 0.0, b), b[both]])
    upper, lower = np.isinf(row_b), np.isinf(row_a)
    sign = upper * 1.0 - lower * 1.0
    anchor = np.where(upper, row_a, row_b)
    mapped = upper | lower
    p_lo = np.where(mapped, 0.0, row_a)
    p_hi = np.where(mapped, 1.0, row_b)

    rows = sign.size
    whole, err0 = _panel_major_gk15(f, sign, anchor, p_lo, p_hi)
    tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(whole))
    total_width = p_hi - p_lo
    row = np.arange(rows)
    pan_lo, pan_hi, est, err = p_lo, p_hi, whole, err0
    depth = 0
    leaves = []
    while True:
        budget = tol[row] * ((pan_hi - pan_lo) / total_width[row])
        done = (err <= budget) | (err == 0.0) | (depth >= settings.max_depth)
        leaves.append((row[done], pan_lo[done], est[done], err[done]))
        if done.all():
            break
        split = ~done
        row, pan_lo, pan_hi = row[split], pan_lo[split], pan_hi[split]
        mid = 0.5 * (pan_lo + pan_hi)
        row = np.concatenate([row, row])
        pan_lo, pan_hi = np.concatenate([pan_lo, mid]), np.concatenate([mid, pan_hi])
        est, err = _panel_major_gk15(f, sign[row], anchor[row], pan_lo, pan_hi)
        depth += 1
    leaves = [np.concatenate(c) for c in zip(*leaves)]
    value, error, count = quadrature._sum_leaves(rows, *leaves)
    # a row whose leaves lost all the mass its whole-row estimate saw
    error = np.where((value == 0.0) & (whole != 0.0), np.abs(whole), error)
    evals = 30 * count - 15
    row_converged = error <= np.maximum(settings.abs_tol, settings.rel_tol * np.abs(value))
    n = lo.size
    return (
        np.bincount(owner, value, minlength=n),
        np.bincount(owner, error, minlength=n),
        np.bincount(owner, ~row_converged, minlength=n) == 0,
        np.bincount(owner, evals, minlength=n).astype(np.int64),
    )


def _density(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _oscillating(x):
    return np.exp(-np.abs(x)) * (1.0 + np.cos(3.0 * x))


def _peaked(x):
    """A peak of width 1e-12 at 0, which exhausts a small depth budget."""
    return np.exp(-np.abs(x)) / np.sqrt(np.abs(x) + 1e-12)


class TestKernelKeepsItsBits:
    """The node-major kernel, with the direct and the mapped rows bisected
    apart, against the panel-major kernel that bisected them together."""

    @staticmethod
    def intervals():
        rng = np.random.default_rng(33)
        lo = np.sort(rng.normal(0.0, 3.0, (300, 2)), axis=1)
        lo, hi = lo[:, 0].copy(), lo[:, 1].copy()
        lo[::7] = -math.inf      # left rays
        hi[3::11] = math.inf     # right rays
        hi[5::13] = lo[5::13]    # zero width
        extra = [(-math.inf, math.inf), (-math.inf, -30.0), (38.0, math.inf), (37.0, 39.0),
                 (-40.0, -39.5), (0.0, 0.0), (-math.inf, -math.inf), (2.0, math.inf), (-1e300, 1e300)]
        return np.concatenate([lo, [a for a, _ in extra]]), np.concatenate([hi, [b for _, b in extra]])

    @pytest.mark.parametrize(
        "f, settings",
        [
            (_density, QuadSettings(abs_tol=1e-13, rel_tol=1e-13)),
            (_oscillating, QuadSettings()),
            (_density, QuadSettings(max_depth=4)),
            (_peaked, QuadSettings(max_depth=4)),
        ],
        ids=["density", "oscillating", "density-depth-4", "peaked-depth-4"],
    )
    def test_matches_panel_major_kernel(self, monkeypatch, f, settings):
        lo, hi = self.intervals()
        # the density's x * x overflows at 1e300, alike in both kernels
        with np.errstate(over="ignore"):
            current = adaptive_quad_many(f, lo, hi, settings)
            monkeypatch.setattr(quadrature, "_integrate", _panel_major_integrate)
            reference = adaptive_quad_many(f, lo, hi, settings)
        for field in ("value", "error"):
            assert [x.hex() for x in getattr(current, field).tolist()] == [
                x.hex() for x in getattr(reference, field).tolist()
            ]
        assert current.converged.tolist() == reference.converged.tolist()
        assert current.evals.tolist() == reference.evals.tolist()
        if settings.max_depth == 4:
            assert not current.converged.all()
