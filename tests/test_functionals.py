"""Tests for derived quantities: frozen oracle values, identities, symmetry.

Frozen constants were produced by the independent oracles noted beside them
(quadrature, inverse-CDF bisection, Monte Carlo) and then pinned.
"""

import math
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from gaussiso import functionals
from gaussiso.cli import cli_main
from gaussiso.corpus import mixed_corpus
from gaussiso.functionals import (
    BARYCENTER_ZERO_TOL,
    STABILITY_CONSTANT,
    FunctionalParams,
    excess_identity,
    max_barycenter_norm,
    penalized_functional,
    quantities,
    quantity_columns,
    stability_params,
)
from gaussiso.sets import (
    _BALL,
    CenteredBall,
    HalfSpace,
    IntervalUnion1D,
    SlabSet,
    _members,
    barycenter,
    complement,
    contains_points,
    mass_level,
    measure,
    normalize,
    perimeter,
)
from gaussiso.special import SQRT_2PI, chi2_quantile, gauss_cdf, gauss_weight
from gaussiso.verify import SuiteConfig, run_suite

# gauss_cdf_inv(0.25): the two-ray endpoint at half mass (inverse-CDF oracle)
A0 = -0.6744897501960817
# 2*exp(-A0^2/2) - 1: deficit of that set (quadrature oracle)
DEFICIT_E0 = 0.5930954842106313
# 4*exp(-A0^2/2): its boundary excess (hand count: one disagreeing normal)
EXCESS_E0 = 3.1861909684212626
# 1/sqrt(2 pi) and exp(-1/2)/sqrt(2 pi)
B_MAX_0 = 0.3989422804014327
B_MAX_1 = 0.24197072451914337
# penalization weights at levels 0 and -1 (formula evaluation, cross-checked)
EPS_0 = 0.0025330295910584444
LAM_0 = 2.8284271247461903
EPS_1 = 0.002088129883045452
LAM_1 = 5.406463786766757
# mass level and deficit of the unit ball in the plane (chi-square + inverse-CDF oracles)
S_BALL21 = -0.270288020738736
DEFICIT_BALL21 = 0.5562156172159738
# objective value of the level-0 half-space at matched constants: 1 + EPS_0/(4 pi)
F_HALF_0 = 1.0002015720902075


def two_ray(a: float) -> IntervalUnion1D:
    return IntervalUnion1D(intervals=((-math.inf, a), (-a, math.inf)))


E0 = two_ray(A0)


def random_union(rng: np.random.Generator, k: int) -> IntervalUnion1D:
    pts = np.sort(rng.uniform(-3.5, 3.5, size=2 * k))
    out = normalize([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])
    return out


def random_corpus(seed: int, count: int) -> list[IntervalUnion1D]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        e = random_union(rng, int(rng.integers(1, 5)))
        if e.component_count > 0 and 0.005 < sum(
            gauss_cdf(hi) - gauss_cdf(lo) for lo, hi in e.intervals
        ) < 0.995:
            out.append(e)
    return out


class TestMaxBarycenterNorm:
    def test_frozen_values(self):
        assert max_barycenter_norm(0.0) == pytest.approx(B_MAX_0, rel=1e-15)
        assert max_barycenter_norm(-1.0) == pytest.approx(B_MAX_1, rel=1e-15)

    def test_even_and_limits(self):
        assert max_barycenter_norm(1.3) == max_barycenter_norm(-1.3)
        assert max_barycenter_norm(math.inf) == 0.0

    def test_dominates_barycenter_on_corpus(self):
        for e in random_corpus(616001, 200):
            s = mass_level(e)
            b = abs(barycenter(e)[0])
            assert max_barycenter_norm(s) - b >= -1e-10

    def test_attained_by_halfspace(self):
        h = HalfSpace(omega=(0.0, 1.0), s=-0.8)
        b = float(np.linalg.norm(barycenter(h)))
        assert b == pytest.approx(max_barycenter_norm(-0.8), rel=1e-15)


class TestDeficit:
    def test_halfspace_zero(self):
        for s in (-2.0, 0.0, 1.5):
            assert abs(quantities(HalfSpace(omega=(1.0,), s=s)).deficit) <= 1e-13

    def test_half_line_zero(self):
        assert abs(quantities(normalize([(-math.inf, 0.7)])).deficit) <= 1e-13

    def test_two_ray_frozen(self):
        assert quantities(E0).deficit == pytest.approx(DEFICIT_E0, rel=1e-13)

    def test_ball_frozen(self):
        b = CenteredBall(dim=2, radius=1.0)
        assert mass_level(b) == pytest.approx(S_BALL21, abs=1e-12)
        assert quantities(b).deficit == pytest.approx(DEFICIT_BALL21, rel=1e-12)

    def test_nonnegative_on_corpus(self):
        for e in random_corpus(616002, 300):
            assert quantities(e).deficit >= -1e-10

    def test_complement_invariant(self):
        for e in random_corpus(616003, 100):
            assert quantities(complement(e)).deficit == pytest.approx(
                quantities(e).deficit, rel=1e-11, abs=1e-13
            )


class TestStrongAsymmetry:
    def test_halfspace_zero(self):
        assert abs(quantities(HalfSpace(omega=(0.0, 1.0), s=-1.2)).strong_asymmetry) <= 1e-13

    def test_two_ray_attains_maximum(self):
        # zero barycenter: the asymmetry equals the full ceiling
        assert quantities(E0).strong_asymmetry == pytest.approx(B_MAX_0, rel=1e-13)

    def test_matches_min_over_directions_1d(self):
        for e in random_corpus(616004, 100):
            s = mass_level(e)
            b = barycenter(e)[0]
            bs = max_barycenter_norm(s)
            direct = min(abs(b + bs), abs(b - bs))
            assert quantities(e).strong_asymmetry == pytest.approx(direct, abs=1e-12)

    def test_matches_min_over_direction_grid_2d(self):
        prof = normalize([(-math.inf, -0.5), (1.0, 2.0)])
        e = SlabSet(dim=2, profile=prof)
        s = mass_level(e)
        b = np.concatenate([np.zeros(1), barycenter(prof)])
        bs = max_barycenter_norm(s)
        beta = quantities(e).strong_asymmetry
        thetas = np.linspace(0.0, 2.0 * math.pi, 2001)
        omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        grid_min = float(np.min(np.linalg.norm(b[None, :] + bs * omegas, axis=1)))
        assert grid_min >= beta - 1e-12
        assert grid_min <= beta + bs * (2.0 * math.pi / 2000) ** 2

    def test_complement_invariant(self):
        for e in random_corpus(616005, 100):
            assert quantities(complement(e)).strong_asymmetry == pytest.approx(
                quantities(e).strong_asymmetry, abs=1e-12
            )

    def test_nonnegative_on_corpus(self):
        for e in random_corpus(616006, 200):
            assert quantities(e).strong_asymmetry >= -1e-10


class TestDirectedFraenkel:
    def test_halfspace_zero(self):
        h = HalfSpace(omega=(0.0, 1.0), s=0.4)
        assert quantities(h).directed_fraenkel == pytest.approx(0.0, abs=1e-12)

    def test_zero_barycenter_ceiling(self):
        # b = 0 at level 0: ceiling 2*gauss_cdf(0) = 1
        assert quantities(E0).directed_fraenkel == pytest.approx(1.0, rel=1e-14)

    def test_ball_uses_ceiling(self):
        b = CenteredBall(dim=3, radius=1.5)
        s = mass_level(b)
        assert quantities(b).directed_fraenkel == pytest.approx(2.0 * gauss_cdf(-abs(s)), rel=1e-13)

    def test_mc_cross_check(self):
        e = normalize([(-math.inf, -1.0), (2.0, math.inf)])
        s = mass_level(e)
        # barycenter is negative, so the comparison half-space is (-inf, s)
        assert barycenter(e)[0] < 0.0
        rng = np.random.default_rng(616007)
        pts = rng.standard_normal((400_000, 1))
        in_e = contains_points(e, pts)
        in_h = pts[:, 0] < s
        est = float(np.mean(in_e ^ in_h))
        se = math.sqrt(est * (1.0 - est) / len(pts))
        assert abs(quantities(e).directed_fraenkel - est) <= 4.0 * se

    def test_bounded_by_ceiling_on_corpus(self):
        for e in random_corpus(616008, 200):
            s = mass_level(e)
            assert quantities(e).directed_fraenkel <= 2.0 * gauss_cdf(-abs(s)) + 1e-12

    def test_complement_invariant(self):
        for e in random_corpus(616009, 100):
            assert quantities(complement(e)).directed_fraenkel == pytest.approx(
                quantities(e).directed_fraenkel, abs=1e-12
            )

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            quantities(IntervalUnion1D(intervals=()))


class TestExcess:
    def test_halfspace_zero(self):
        assert quantities(HalfSpace(omega=(1.0,), s=0.3)).excess == 0.0

    def test_two_ray_frozen(self):
        assert quantities(E0).excess == pytest.approx(EXCESS_E0, rel=1e-13)

    def test_hand_count_asymmetric(self):
        # (-inf, 0) u (1, 2): normals -1 at 1; +1 at 0 and 2
        e = normalize([(-math.inf, 0.0), (1.0, 2.0)])
        w_minus = gauss_weight(1.0)
        w_plus = gauss_weight(0.0) + gauss_weight(2.0)
        assert quantities(e).excess == pytest.approx(4.0 * min(w_minus, w_plus), rel=1e-15)

    def test_ball_twice_perimeter(self):
        b = CenteredBall(dim=4, radius=1.3)
        assert quantities(b).excess == pytest.approx(2.0 * perimeter(b), rel=1e-15)

    def test_identity_on_corpus(self):
        for e in random_corpus(616011, 400):
            direct, via = excess_identity(e)
            assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))

    def test_identity_on_slabs_and_balls(self):
        prof = normalize([(-2.0, -0.5), (0.5, math.inf)])
        for e in [
            SlabSet(dim=3, profile=prof),
            CenteredBall(dim=2, radius=1.0),
            CenteredBall(dim=6, radius=2.2),
        ]:
            direct, via = excess_identity(e)
            assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


class TestPenalizedFunctional:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            FunctionalParams(s=math.nan, eps=1.0, lambda_pen=1.0)
        with pytest.raises(ValueError):
            FunctionalParams(s=0.0, eps=-1.0, lambda_pen=1.0)
        with pytest.raises(ValueError):
            FunctionalParams(s=0.0, eps=1.0, lambda_pen=-0.5)

    def test_params_keep_three_fields_and_decide_the_target_once(self):
        # the target mass is an attribute, not a field: the constructor,
        # equality, hashing and repr read s, eps and lambda_pen alone
        params = FunctionalParams(s=-1, eps=0.5, lambda_pen=2)
        assert [f.name for f in fields(params)] == ["s", "eps", "lambda_pen"]
        assert params.target == gauss_cdf(-1.0)
        assert params == FunctionalParams(s=-1.0, eps=0.5, lambda_pen=2.0)
        assert hash(params) == hash(FunctionalParams(s=-1.0, eps=0.5, lambda_pen=2.0))
        assert params != FunctionalParams(s=-1.0, eps=0.5, lambda_pen=2.5)
        assert repr(params) == "FunctionalParams(s=-1.0, eps=0.5, lambda_pen=2.0)"
        assert asdict(params) == {"s": -1.0, "eps": 0.5, "lambda_pen": 2.0}
        assert replace(params, s=0.0).target == 0.5
        with pytest.raises(FrozenInstanceError):
            params.target = 0.5

    def test_matched_halfspace_closed_form(self):
        # at the target level the mass penalty vanishes and
        # F = exp(-s^2/2) + (eps/(4 pi)) exp(-s^2)
        for s in (0.0, -0.5, -1.0, -2.0):
            params = stability_params(s)
            h = HalfSpace(omega=(1.0,), s=s)
            expected = math.exp(-0.5 * s * s) + params.eps / (4.0 * math.pi) * math.exp(
                -s * s
            )
            assert penalized_functional(h, params) == pytest.approx(expected, rel=1e-13)

    def test_matched_halfspace_level0_frozen(self):
        assert penalized_functional(
            HalfSpace(omega=(1.0,), s=0.0), stability_params(0.0)
        ) == pytest.approx(F_HALF_0, rel=1e-14)

    def test_degenerate_params_reduce_to_perimeter(self):
        e = normalize([(-1.0, 2.0)])
        params = FunctionalParams(s=0.0, eps=0.0, lambda_pen=0.0)
        assert penalized_functional(e, params) == perimeter(e)

    def test_mass_penalty_term(self):
        e = normalize([(-math.inf, 0.0)])
        params = FunctionalParams(s=-1.0, eps=0.0, lambda_pen=2.0)
        expected = 1.0 + 2.0 * (0.5 - gauss_cdf(-1.0))
        assert penalized_functional(e, params) == pytest.approx(expected, rel=1e-14)

    def test_lower_bounded_by_perimeter(self):
        params = stability_params(-0.5)
        for e in random_corpus(616012, 100):
            assert penalized_functional(e, params) >= perimeter(e)

    @pytest.mark.parametrize(
        "omega", [(1.0,), (-1.0,), (0.6, 0.8), (0.48, -0.6, 0.64), (0.0, 0.0, 1.0), (0.5, -0.5, 0.5, -0.5)]
    )
    def test_halfspace_equals_one_ray_union(self, omega):
        # a half-space is the one-ray profile (-inf, s) along its unit normal
        for s in (-2.3, -0.4, 0.0, 1.1):
            ray = IntervalUnion1D(intervals=((-math.inf, s),))
            h = HalfSpace(omega=omega, s=s)
            for params in (stability_params(-1.5), FunctionalParams(s=0.3, eps=10.0, lambda_pen=2.0)):
                assert penalized_functional(h, params) == penalized_functional(ray, params)

    def test_equals_set_primitives_bit_for_bit(self):
        params = FunctionalParams(s=-0.7, eps=3.0, lambda_pen=1.5)
        sets = list(random_corpus(616013, 50)) + [
            SlabSet(dim=3, profile=normalize([(-math.inf, -0.5), (0.3, 0.9)])),
            CenteredBall(dim=4, radius=1.7),
        ]
        for e in sets:
            norm_b = float(np.linalg.norm(barycenter(e)))
            mass_gap = abs(measure(e) - gauss_cdf(params.s))
            expected = perimeter(e) + 0.5 * params.eps * norm_b * norm_b + params.lambda_pen * mass_gap
            assert penalized_functional(e, params) == expected


class TestStabilityParams:
    def test_frozen_level0(self):
        p = stability_params(0.0)
        assert p.eps == pytest.approx(EPS_0, rel=1e-15)
        assert p.lambda_pen == pytest.approx(LAM_0, rel=1e-14)

    def test_frozen_level_minus1(self):
        p = stability_params(-1.0)
        assert p.eps == pytest.approx(EPS_1, rel=1e-14)
        assert p.lambda_pen == pytest.approx(LAM_1, rel=1e-13)

    def test_stability_constant_frozen(self):
        assert STABILITY_CONSTANT == pytest.approx(1979.1543560954517, rel=1e-15)

    def test_positive_level_reflects(self):
        p = stability_params(1.0)
        q = stability_params(-1.0)
        assert p.eps == q.eps
        assert p.lambda_pen == q.lambda_pen
        assert p.s == 1.0 and q.s == -1.0

    def test_barycenter_weight_product_bound(self):
        # eps * b_max = 1/(40 pi^2 sqrt(2 pi) (1+s^2)) <= 1/4 everywhere
        for s in np.linspace(-37.0, 0.0, 371):
            p = stability_params(float(s))
            assert p.eps * max_barycenter_norm(float(s)) <= 0.25

    def test_extreme_level_stays_finite(self):
        p = stability_params(-35.0)
        assert math.isfinite(p.lambda_pen) and p.lambda_pen > 0.0
        assert math.isfinite(p.eps)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            stability_params(math.inf)

    def test_rejects_levels_whose_eps_overflows(self):
        # exp(s^2/2) is finite up to |s| = sqrt(2 log(largest float))
        bound = math.sqrt(2.0 * math.log(np.finfo(float).max))
        for s in (bound, -bound):
            p = stability_params(s)
            assert math.isfinite(p.eps) and math.isfinite(p.lambda_pen)
        for s in (-40.0, 40.0, math.nextafter(-bound, -math.inf)):
            with pytest.raises(ValueError, match="must be at most 37.67712072049519"):
                stability_params(s)


class TestQuantityBundle:
    def test_halfspace_bundle(self):
        b = quantities(HalfSpace(omega=(0.0, 1.0), s=-1.0))
        assert b.mass_level == pytest.approx(-1.0, abs=1e-12)
        assert abs(b.deficit) <= 1e-13
        assert abs(b.strong_asymmetry) <= 1e-13
        assert b.directed_fraenkel == pytest.approx(0.0, abs=1e-12)
        assert abs(b.excess) <= 1e-12

    def test_two_ray_bundle_frozen(self):
        b = quantities(E0)
        assert abs(b.mass_level) <= 1e-14
        assert b.deficit == pytest.approx(DEFICIT_E0, rel=1e-13)
        assert b.strong_asymmetry == pytest.approx(B_MAX_0, rel=1e-13)
        assert b.directed_fraenkel == pytest.approx(1.0, rel=1e-13)
        assert b.excess == pytest.approx(EXCESS_E0, rel=1e-13)

    def test_validates_on_corpus(self):
        for e in random_corpus(616013, 100):
            # quantities raises ValueError only on a degenerate or non-finite
            # member; the claims are the suites', checked here at their slack
            q = quantities(e)
            assert q.deficit >= -1e-9 * max(1.0, q.perimeter)
            assert q.strong_asymmetry >= -1e-9 * max(1.0, q.max_barycenter_norm)
            via = 2.0 * q.deficit + 2.0 * SQRT_2PI * q.strong_asymmetry
            assert abs(q.excess - via) <= 1e-10 * max(1.0, abs(via))

    def test_as_dict_round_trip_fields(self):
        d = asdict(quantities(CenteredBall(dim=2, radius=1.0)))
        assert set(d) == {
            "mass_level",
            "measure",
            "perimeter",
            "barycenter",
            "max_barycenter_norm",
            "deficit",
            "strong_asymmetry",
            "directed_fraenkel",
            "excess",
        }
        assert d["barycenter"] == (0.0, 0.0)

    def test_rejects_degenerate_set(self):
        with pytest.raises(ValueError):
            quantities(IntervalUnion1D(intervals=()))


class TestDeficitChain:
    def test_algebraic_identity_on_corpus(self):
        # (eps/2)(bs^2 - |b|^2) == (eps/2)(bs + |b|) * beta
        for e in random_corpus(616014, 200):
            s = mass_level(e)
            params = stability_params(min(s, -s))
            bs = max_barycenter_norm(s)
            nb = abs(barycenter(e)[0])
            beta = quantities(e).strong_asymmetry
            lhs = 0.5 * params.eps * (bs * bs - nb * nb)
            rhs = 0.5 * params.eps * (bs + nb) * beta
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_barycenter_zero_tol_exported(self):
        assert 0.0 < BARYCENTER_ZERO_TOL < 1e-9


class TestQuantityColumns:
    CORPUS = mixed_corpus(1000, 11)

    def test_batch_equals_batches_of_one(self):
        cols = quantity_columns(self.CORPUS)
        for i, e in enumerate(self.CORPUS):
            one = quantity_columns((e,))
            for name, column in cols.items():
                assert float.hex(float(column[i])) == float.hex(float(one[name][0])), (i, name)
            # the scalar readers share the profile pass: same bits; the
            # profile axis is the last coordinate (balls have b = 0)
            scalar = {"measure": measure(e), "perimeter": perimeter(e), "b": barycenter(e)[-1]}
            for name, value in scalar.items():
                assert float.hex(float(cols[name][i])) == float.hex(float(value)), (i, name)

    def test_scalar_readers_are_batches_of_one(self):
        # the bundle of one set reads a batch of one
        cols = quantity_columns(self.CORPUS[::50])
        for i, e in enumerate(self.CORPUS[::50]):
            q = quantities(e)
            assert q.deficit == cols["deficit"][i]
            assert q.strong_asymmetry == cols["beta"][i]
            assert q.directed_fraenkel == cols["alpha_hat"][i]
            assert q.excess == cols["excess"][i]

    def test_empty_batch(self):
        cols = quantity_columns(())
        assert all(column.shape == (0,) for column in cols.values())

    def test_suites_count_a_failing_member(self, monkeypatch):
        # the columns refuse only degenerate or non-finite members, so one
        # member 1e-6 past a bound is counted by the suite that checks it
        config = SuiteConfig(samples=200, seed=42)
        corpus = mixed_corpus(config.samples, config.seed)
        cols = quantity_columns(corpus)
        i = next(
            i for i, e in enumerate(corpus)
            if isinstance(e, IntervalUnion1D) and abs(cols["b"][i]) > 1e-3 and cols["b_max"][i] > 0.1
        )
        member = corpus[i]
        floor = math.exp(-0.5 * cols["s"][i] ** 2)
        via = 2.0 * cols["deficit"][i] + 2.0 * SQRT_2PI * cols["beta"][i]
        faults = {
            "iso": lambda mass, perim, b, excess: (mass, floor - 1e-6, b, excess),
            "barycenter-max": lambda mass, perim, b, excess: (
                mass, perim, math.copysign(cols["b_max"][i] + 1e-6, b), excess
            ),
            "excess-identity": lambda mass, perim, b, excess: (mass, perim, b, via + 1e-6),
        }
        rows = functionals._rows

        def faulty(batch, fault):
            # row i of the corpus batch is member i
            columns = rows(batch)
            assert next(_members(batch, [i])) == member
            for column, value in zip(columns, fault(*(float(c[i]) for c in columns))):
                column[i] = value
            return columns

        for suite, fault in faults.items():
            monkeypatch.setattr(functionals, "_rows", lambda batch, fault=fault: faulty(batch, fault))
            (check,) = run_suite(suite, config).checks
            assert check.violations == 1, suite
            assert check.worst_margin < 0.0, suite
            argv = ["verify", "--suite", suite, "--samples", "200", "--seed", "42"]
            assert cli_main(argv) == 1, suite

    def test_degenerate_member_fails_the_batch(self):
        with pytest.raises(ValueError, match="degenerate"):
            quantity_columns((E0, normalize([(-math.inf, math.inf)])))

    def test_non_finite_member_fails_the_batch(self, monkeypatch):
        # an infinite perimeter (and excess 2P) for one member: such a row
        # used to pass, as inf - inf in the excess identity is NaN
        ball = CenteredBall(dim=4, radius=1.7)
        rows = functionals._rows

        def overflowing(batch):
            mass, perim, b, excess = rows(batch)
            balls = batch.kinds == _BALL
            perim[balls] = excess[balls] = math.inf
            return mass, perim, b, excess

        monkeypatch.setattr(functionals, "_rows", overflowing)
        with pytest.raises(ValueError, match="non-finite deficit inf"):
            quantity_columns((E0, ball))
        quantity_columns((E0,))

    def test_high_dim_ball_has_finite_columns(self):
        # the dim-250 ball at level 0.5 used to overflow its perimeter to inf
        ball = CenteredBall(dim=250, radius=math.sqrt(chi2_quantile(250, gauss_cdf(0.5))))
        cols = quantity_columns((E0, ball))
        assert all(np.isfinite(column).all() for column in cols.values())
        assert cols["s"][1] == pytest.approx(0.5, abs=1e-12)
        assert cols["excess"][1] == 2.0 * cols["perimeter"][1]

    @pytest.mark.parametrize("omega", [(1.0,), (0.0, -1.0), (0.48, -0.6, 0.64)])
    def test_halfspace_is_its_one_ray_profile(self, omega):
        for t in (-2.0, -0.4, 0.0, 1.3):
            h = quantity_columns((HalfSpace(omega=omega, s=t),))
            ray = quantity_columns((normalize([(-math.inf, t)]),))
            assert {k: v.tolist() for k, v in h.items()} == {k: v.tolist() for k, v in ray.items()}

    def test_slab_is_its_profile(self):
        prof = normalize([(-math.inf, -0.5), (0.3, 0.9)])
        slab = quantity_columns((SlabSet(dim=3, profile=prof),))
        alone = quantity_columns((prof,))
        assert {k: v.tolist() for k, v in slab.items()} == {k: v.tolist() for k, v in alone.items()}
