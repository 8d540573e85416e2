"""Tests for the verification suites, margins, and report emission."""

import ast
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gaussiso
from gaussiso import sets, verify
from gaussiso.corpus import _child_seeds, _child_unions, _mixed_batch, mixed_corpus
from gaussiso.functionals import STABILITY_CONSTANT, quantity_columns
from gaussiso.quadrature import _MAX_END, QuadSettings, _chained_quad_many, _sums_from_the_tail, adaptive_quad_many
from gaussiso.sets import IntervalUnion1D, _interval_mass, _mc_measures, mc_measure
from gaussiso.verify import (
    SUITE_NAMES,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    _margins_identity,
    _margins_le,
    emit_report,
    format_number,
    json_value,
    render_report,
    run_suite,
)

EPS_THRESHOLD = 8.669366296606851  # pi/(a^2 w): instability threshold of the two-ray set at level 0

EXPECTED_CHECK_COUNTS = {
    "measure-oracle": 2,
    "iso": 1,
    "barycenter-max": 1,
    "main": 2,
    "strong-vs-standard": 1,
    "alpha-hat-corollary": 1,
    "excess-identity": 1,
    "scalar-functions": 8,
    "stationarity": 6,
}

SMALL = SuiteConfig(samples=300, seed=5)


def _ball_task_count(config: SuiteConfig) -> int:
    """The ball draws' tasks of ``config``: one per distinct law of its Monte Carlo members."""
    return len(verify._ball_draws(config, verify._build_corpus(config)))


# SMALL's 20 Monte Carlo members are balls in 8 dimensions
SMALL_TASKS = 8


def _without_wall_time(report_json: str) -> str:
    payload = json.loads(report_json)
    for check in payload["checks"]:
        check["wall_time"] = 0.0
    return json.dumps(payload, sort_keys=True)


class TestSuiteConfig:
    def test_defaults(self):
        config = SuiteConfig()
        assert config.samples == 10_000
        assert config.seed == 42
        assert config.main_constant == STABILITY_CONSTANT

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"seed": -1},
            {"main_constant": 0.0},
            {"main_constant": math.inf},
            {"main_constant": 1e308},
            {"seed": 1.5},
            {"samples": 2.5},
            {"samples": True},
            {"samples": 300.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    def test_largest_main_constant_keeps_every_number_finite(self):
        report = run_suite("all", SuiteConfig(samples=2000, seed=3, main_constant=1e290))
        render_report(report)  # refuses a non-finite number
        ratio = next(c for c in report.checks if c.name == "minimum-constant-ratio")
        assert math.isfinite(ratio.params["min_ratio"])


class TestCheckRecord:
    def test_margin_sign_must_track_violations(self):
        with pytest.raises(ValueError, match="margin sign"):
            CheckRecord(name="x", anchor="y", samples=3, violations=0, worst_margin=-0.5)
        with pytest.raises(ValueError, match="margin sign"):
            CheckRecord(name="x", anchor="y", samples=3, violations=1, worst_margin=0.5)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            CheckRecord(name="", anchor="y", samples=1, violations=0, worst_margin=0.1)
        with pytest.raises(ValueError, match="nonempty"):
            CheckRecord(name="x", anchor="", samples=1, violations=0, worst_margin=0.1)
        with pytest.raises(ValueError, match="finite"):
            CheckRecord(name="x", anchor="y", samples=1, violations=0, worst_margin=math.nan)
        with pytest.raises(ValueError, match="positive"):
            CheckRecord(name="x", anchor="y", samples=0, violations=0, worst_margin=0.1)

    @pytest.mark.parametrize(
        "counts, match",
        [
            ({"samples": 2.5}, "samples must be an integer"),
            ({"samples": True}, "samples must be an integer"),
            ({"samples": 3.0}, "samples must be an integer"),
            ({"samples": "3"}, "samples must be an integer"),
            ({"violations": True, "worst_margin": -1.0}, "violations must be an integer"),
            ({"violations": 1.0, "worst_margin": -1.0}, "violations must be an integer"),
            ({"violations": -1}, "violations must be nonnegative"),
        ],
    )
    def test_counts_must_be_integers(self, counts, match):
        fields = {"name": "x", "anchor": "y", "samples": 3, "violations": 0, "worst_margin": 0.5}
        with pytest.raises(ValueError, match=match):
            CheckRecord(**{**fields, **counts})

    def test_numpy_integer_counts_accepted(self):
        record = CheckRecord(
            name="x", anchor="y", samples=np.int64(3), violations=np.int64(1), worst_margin=-0.5
        )
        assert record.violations == 1

    @pytest.mark.parametrize(
        "seed, match",
        [("x", "an integer"), (True, "an integer"), (1.5, "an integer"), (-1, "nonnegative")],
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed, match):
        fields = {"name": "x", "anchor": "y", "samples": 1, "violations": 0, "worst_margin": 0.1}
        with pytest.raises(ValueError, match=f"seed must be {match}"):
            CheckRecord(**fields, seed=seed)
        assert CheckRecord(**fields, seed=np.int64(3)).seed == 3


class TestMargins:
    def test_one_sided_formula(self):
        assert _margins_le(1.0, 2.0) == pytest.approx(1.0 + 1e-9 * 2.0, rel=1e-15)
        assert _margins_le(0.5, 0.25) < 0.0

    def test_one_sided_tolerance_floor(self):
        # slack below the tolerance does not count as a violation
        assert _margins_le(5e-10, 0.0) > 0.0
        assert _margins_le(2e-9, 0.0) < 0.0

    def test_identity_formula(self):
        assert _margins_identity(1.0, 1.0) == pytest.approx(1e-10, rel=1e-12)
        assert _margins_identity(1.0, 1.0 + 1e-9) < 0.0


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("does-not-exist", SMALL)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_each_suite_passes(self, name):
        report = run_suite(name, SMALL)
        assert report.suite == name
        assert len(report.checks) == EXPECTED_CHECK_COUNTS[name]
        assert report.total_violations == 0
        for check in report.checks:
            assert check.anchor
            assert check.worst_margin >= 0.0
            assert check.seed == SMALL.seed

    def test_all_concatenates_every_suite(self):
        report = run_suite("all", SMALL)
        assert report.suite == "all"
        assert len(report.checks) == sum(EXPECTED_CHECK_COUNTS.values())
        assert report.total_violations == 0

    def test_minimum_ratio_reported(self):
        report = run_suite("main", SMALL)
        ratio_check = next(c for c in report.checks if c.name == "minimum-constant-ratio")
        assert ratio_check.params["min_ratio"] >= 1.0
        assert ratio_check.params["main_constant"] == STABILITY_CONSTANT

    def test_halved_constant_halves_the_ratio_statistic(self):
        full = run_suite("main", SuiteConfig(samples=400, seed=42))
        half = run_suite(
            "main", SuiteConfig(samples=400, seed=42, main_constant=STABILITY_CONSTANT / 2.0)
        )
        r_full = next(c for c in full.checks if c.name == "minimum-constant-ratio")
        r_half = next(c for c in half.checks if c.name == "minimum-constant-ratio")
        assert r_half.params["min_ratio"] == pytest.approx(
            r_full.params["min_ratio"] / 2.0, rel=1e-12
        )

    def test_drastically_falsified_constant_is_caught(self):
        report = run_suite("main", SuiteConfig(samples=400, seed=42, main_constant=0.05))
        main_check = next(
            c for c in report.checks if c.name == "deficit-controls-strong-asymmetry"
        )
        assert main_check.violations > 0
        assert main_check.worst_margin < 0.0
        assert report.total_violations > 0

    def test_equality_members_present_and_consistent(self):
        iso = run_suite("iso", SuiteConfig(samples=400, seed=42))
        bary = run_suite("barycenter-max", SuiteConfig(samples=400, seed=42))
        n_iso = iso.checks[0].params["equality_members"]
        n_bary = bary.checks[0].params["equality_members"]
        assert n_iso >= 1
        assert n_iso == n_bary  # both counts are the exact half-line members

    def test_determinism_modulo_wall_time(self):
        first = render_report(run_suite("all", SuiteConfig(samples=150, seed=7)))
        second = render_report(run_suite("all", SuiteConfig(samples=150, seed=7)))
        assert _without_wall_time(first) == _without_wall_time(second)

    def test_seed_changes_corpus_margins(self):
        a = run_suite("main", SuiteConfig(samples=200, seed=1))
        b = run_suite("main", SuiteConfig(samples=200, seed=2))
        assert a.checks[0].worst_margin != b.checks[0].worst_margin

    def test_corpus_build_is_outside_check_timers(self, monkeypatch):
        built = []

        def slow_corpus(n, seed):
            time.sleep(1.0)
            built.append((n, seed))
            return _mixed_batch(n, seed)

        monkeypatch.setattr(verify, "_mixed_batch", slow_corpus)
        report = run_suite("iso", SMALL)
        assert built == [(SMALL.samples, SMALL.seed)]
        assert report.checks[0].wall_time < 1.0
        # a grid suite builds no corpus
        run_suite("stationarity", SMALL)
        assert len(built) == 1

    def test_each_check_time_lands_on_that_check(self, monkeypatch):
        def slow_mc_measures(*args, **kwargs):
            time.sleep(0.125)
            return _mc_measures(*args, **kwargs)

        monkeypatch.setattr(verify, "_mc_measures", slow_mc_measures)
        report = run_suite("measure-oracle", SMALL)
        checks = {c.name: c for c in report.checks}
        # SMALL has 20 high-dimensional members in 8 dimensions, one sleep per dimension
        assert _ball_task_count(SMALL) == SMALL_TASKS
        assert checks["highdim-measure-vs-monte-carlo"].samples == 20
        assert checks["highdim-measure-vs-monte-carlo"].wall_time >= 1.0
        assert checks["interval-measure-vs-quadrature"].wall_time < 1.0

    def test_unconverged_oracle_intervals_are_violations(self, monkeypatch):
        # at depth 2 one chained ray is still unconverged, and every estimate
        # matches its closed form within the identity tolerance, so only the
        # unconverged intervals are violations
        monkeypatch.setattr(
            verify, "ORACLE_SETTINGS", QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=2)
        )
        report = run_suite("measure-oracle", SMALL)
        check = next(c for c in report.checks if c.name == "interval-measure-vs-quadrature")
        assert check.violations > 0
        assert check.worst_margin < 0.0

    def test_threshold_check_matches_hand_value(self):
        report = run_suite("stationarity", SMALL)
        check = next(c for c in report.checks if c.name == "instability-threshold-level-zero")
        assert check.params["hand_threshold"] == pytest.approx(EPS_THRESHOLD, rel=1e-14)
        assert abs(check.params["solver_threshold"] - check.params["hand_threshold"]) < 1e-9

    def test_two_ray_criticality_is_exact(self):
        report = run_suite("stationarity", SMALL)
        check = next(c for c in report.checks if c.name == "two-ray-criticality")
        assert check.violations == 0
        # margin = threshold + tolerance when the deviation is exactly zero
        assert check.worst_margin == pytest.approx(1e-10 + 1e-9, rel=1e-6)


class TestCorpusBatch:
    """The suites read the corpus as the batch it is drawn into, not as set objects."""

    # n = 1 and 7 have no ball, n = 100 fewer than 20 high-dimensional members
    @pytest.mark.parametrize("n", [1, 7, 100, 1000, 10_000])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_columns_equal_those_of_the_set_objects(self, n, seed):
        built = verify._build_corpus(SuiteConfig(samples=n, seed=seed)).columns
        expected = quantity_columns(mixed_corpus(n, seed))
        assert built.keys() == expected.keys()
        for name, column in expected.items():
            assert built[name].tobytes() == column.tobytes(), name

    def test_measure_oracle_builds_only_the_monte_carlo_members(self, monkeypatch):
        # the 20 Monte Carlo members are the first 20 balls of the corpus
        self._check_built_members(SMALL, {"CenteredBall": 20}, monkeypatch)

    def test_small_corpus_builds_its_slab_members_too(self, monkeypatch):
        # at 100 samples the corpus has 10 balls, and its 5 slabs, each with its profile, fill the rest
        members = {"CenteredBall": 10, "SlabSet": 5, "IntervalUnion1D": 5}
        self._check_built_members(SuiteConfig(samples=100, seed=5), members, monkeypatch)

    @staticmethod
    def _check_built_members(config, members, monkeypatch):
        built = []
        for cls in (IntervalUnion1D, sets.SlabSet, sets.CenteredBall):
            post_init = cls.__post_init__

            def counted(self, post_init=post_init):
                built.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        report = run_suite("measure-oracle", config)
        assert report.checks[1].samples == members["CenteredBall"] + members.get("SlabSet", 0)
        assert {name: built.count(name) for name in set(built)} == members

    def test_oracle_closed_side_is_the_interval_mass(self, monkeypatch):
        seen = []

        def recorded(a, b, rel=verify.IDENTITY_REL):
            seen.append(np.array(b, dtype=float))
            return _margins_identity(a, b, rel)

        monkeypatch.setattr(verify, "_margins_identity", recorded)
        run_suite("measure-oracle", SMALL)
        members = mixed_corpus(SMALL.samples, SMALL.seed)
        intervals = [iv for e in members if isinstance(e, IntervalUnion1D) for iv in e.intervals]
        assert seen[0].tolist() == [_interval_mass(lo, hi) for lo, hi in intervals]

    def test_batch_wraps_into_the_corpus(self):
        batch = _mixed_batch(400, 3)
        assert tuple(sets._members(batch)) == mixed_corpus(400, 3)
        assert list(sets._members(batch, [399, 0])) == [mixed_corpus(400, 3)[i] for i in (399, 0)]


def _oracle_intervals(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) arrays the measure oracle integrates for a corpus of n members."""
    batch = _mixed_batch(n, seed)
    line = (batch.kinds == verify._LINE)[batch.owners()]
    return batch.points[0::2][line], batch.points[1::2][line]


def _chained_and_alone(lo, hi, settings=verify.ORACLE_SETTINGS):
    """The chained and the per-interval oracle on (lo, hi), the chain's integrand checked and counted."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    points = []

    def density(x):
        assert np.isfinite(x).all()
        points.append(x.size)
        return verify._oracle_density(x)

    # x * x overflows to inf, and the density to 0, beyond about 1.3e154
    with np.errstate(over="ignore"):
        chained = _chained_quad_many(adaptive_quad_many, density, lo, hi, settings)
        alone = adaptive_quad_many(verify._oracle_density, lo, hi, settings)
    assert sum(points) == chained.evals.sum()
    return chained, alone


_BATCH_FIELDS = ("value", "error", "converged", "evals")


class TestChainedOracle:
    """The oracle integrates each side's rays as one chain through their sorted anchors."""

    @staticmethod
    def assert_matches(chained, alone, lo, hi):
        """Everything but a chained ray keeps its bits; a chained ray agrees within 1e-14."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ray = (np.isinf(lo) != np.isinf(hi)) & (np.abs(np.where(np.isinf(lo), hi, lo)) <= _MAX_END)
        for name in _BATCH_FIELDS:
            assert getattr(chained, name)[~ray].tobytes() == getattr(alone, name)[~ray].tobytes(), name
        assert np.all(np.abs(chained.value[ray] - alone.value[ray]) <= 1e-14)
        assert chained.converged.all()

    @pytest.mark.parametrize("seed", [1, 42])
    def test_corpus_intervals_match_the_per_interval_oracle(self, seed):
        lo, hi = _oracle_intervals(10_000, seed)
        chained, alone = _chained_and_alone(lo, hi)
        self.assert_matches(chained, alone, lo, hi)

    def test_corpus_evaluations_are_at_most_a_quarter(self):
        chained, alone = _chained_and_alone(*_oracle_intervals(10_000, 42))
        assert chained.evals.sum() <= 0.25 * alone.evals.sum()

    def test_without_rays_the_batch_is_the_per_interval_oracle(self):
        lo, hi = [-1.0, 0.5, -math.inf, 2.0, -3.0], [0.25, 0.5, math.inf, 7.0, 3.0]
        chained, alone = _chained_and_alone(lo, hi)
        for name in _BATCH_FIELDS:
            assert getattr(chained, name).tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ([-math.inf, -math.inf, -1.0, -math.inf], [0.3, -2.5, 1.0, 4.0]),  # only left rays
            ([0.3, -2.5, -1.0, 4.0], [math.inf, math.inf, 1.0, math.inf]),  # only right rays
            ([1.2], [math.inf]),  # a single right ray
            ([-math.inf], [-0.7]),  # a single left ray
            ([0.5, -math.inf, 0.5, 0.5, -math.inf, 2.0], [math.inf, 1.0, math.inf, math.inf, 1.0, math.inf]),  # duplicates
            ([-math.inf, -math.inf, 1.0, 3.0], [math.inf, 0.0, math.inf, 3.5]),  # with (-inf, inf)
            ([1e308, -math.inf, 0.0], [math.inf, -1e308, math.inf]),  # anchors too far out to chain
        ],
    )
    def test_edge_cases_match_the_per_interval_oracle(self, lo, hi):
        chained, alone = _chained_and_alone(lo, hi)
        self.assert_matches(chained, alone, lo, hi)

    def test_duplicate_anchors_cost_nothing_more(self):
        lo, hi = [0.5, 0.5, 0.5, -math.inf, -math.inf], [math.inf, math.inf, math.inf, 1.0, 1.0]
        chained, alone = _chained_and_alone(lo, hi)
        self.assert_matches(chained, alone, lo, hi)
        # one ray per side carries the tail; its twins' zero-width pieces cost nothing
        assert sorted(chained.evals.tolist()) == [0, 0, 0, alone.evals[0], alone.evals[3]]
        assert len(set(chained.value[:3].tolist())) == 1
        assert chained.value[3] == chained.value[4]

    def test_a_ray_is_its_tail_plus_the_pieces_out_to_it(self):
        chained, _ = _chained_and_alone([2.0, -1.0, 0.5], [math.inf] * 3)
        # the chain's pieces, innermost first, out to the tail beyond 2
        pieces = adaptive_quad_many(
            verify._oracle_density, [-1.0, 0.5, 2.0], [0.5, 2.0, math.inf], verify.ORACLE_SETTINGS
        )
        sums = _sums_from_the_tail(pieces.value)
        assert chained.value.tolist() == [sums[2], sums[0], sums[1]]
        assert chained.evals.tolist() == [pieces.evals[2], pieces.evals[0], pieces.evals[1]]

    def test_a_ray_converges_on_its_accumulated_error(self):
        # at depth 1 a piece left over its tolerance carries its error into
        # every ray inward of it: 20 pieces are unconverged, 308 intervals
        settings = QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=1)
        chained, _ = _chained_and_alone(*_oracle_intervals(SMALL.samples, SMALL.seed), settings)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(chained.value))
        assert not chained.converged.all()
        assert chained.converged.tolist() == (chained.error <= tol).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_chains_sum_within_an_ulp(self, seed):
        # 2,000 terms added plainly from the tail drift 10 to 27 ulps
        x = np.random.default_rng(seed).random(2000) * 1e-3
        exact, acc = [], Fraction(0)
        for term in x[::-1].tolist():
            acc += Fraction(term)
            exact.append(float(acc))
        exact = np.array(exact[::-1])
        assert np.all(np.abs(_sums_from_the_tail(x) - exact) <= np.spacing(exact))


def _shared_stream_slab_draws(seed: int) -> tuple[list[float], list[float]]:
    """The slab check's draws from one stream: |mean| and 6 SE per slab, then per axis.

    ``default_rng([seed, 17])`` draws the 200,000-draw profile column, then
    one transverse column per axis, up to the 4 of the 5-dimensional slab;
    the slab of dimension ``dim`` is the points of its first ``dim - 1``
    columns and the profile column, tested by ``contains_points``.
    """
    diffs = []
    bounds = []
    n_mc = 200_000
    dims = (2, 3, 4, 5)
    profiles = _child_unions(seed, 13, len(dims), (1, 3))
    rng = np.random.default_rng([seed, 17])
    x = rng.standard_normal(n_mc)
    columns = [rng.standard_normal(n_mc) for _ in range(max(dims) - 1)]
    for dim, profile in zip(dims, profiles):
        points = np.column_stack(columns[: dim - 1] + [x])
        inside = sets.contains_points(sets.SlabSet(dim=dim, profile=profile), points)
        for axis in range(dim - 1):
            vals = points[:, axis] * inside
            diffs.append(abs(float(vals.mean())))
            bounds.append(6.0 * float(vals.std()) / math.sqrt(n_mc))
    return diffs, bounds


def _serial_ball_draws(config: SuiteConfig) -> tuple[list[float], list[float]]:
    """The ball draws as one serial loop over the dimensions: |error| and 6 SE per member, in member order.

    Dimension ``dim`` draws 200,000 chi-square variates in blocks of 65,536
    on ``SeedSequence([seed, 11, dim])``, and every member of that dimension
    counts its hits ``x < r^2``; the slabs of a small corpus share the
    standard normals on index 0, tested against their profiles.
    """
    corpus = verify._build_corpus(config)
    batch = corpus.batch
    rows = np.flatnonzero(batch.dims > 1)[:20].tolist()
    members = dict(zip(rows, sets._members(batch, rows)))
    laws = {row: int(batch.dims[row]) if batch.kinds[row] == sets._BALL else 0 for row in rows}
    seeds = _child_seeds(config.seed, 11, 11)
    hits = dict.fromkeys(rows, 0)
    for law in sorted(set(laws.values())):
        rng = np.random.default_rng(int(seeds[law]))
        for start in range(0, 200_000, 65_536):
            m = min(65_536, 200_000 - start)
            x = rng.chisquare(law, m) if law else rng.standard_normal(m)
            for row in rows:
                if laws[row] != law:
                    continue
                e = members[row]
                if law:
                    inside = x < e.radius * e.radius
                else:
                    inside = np.zeros(m, dtype=bool)
                    for lo, hi in e.profile.intervals:
                        inside |= (x > lo) & (x < hi)
                hits[row] += int(np.count_nonzero(inside))
    diffs = []
    bounds = []
    for row in rows:
        p = hits[row] / 200_000
        diffs.append(abs(float(corpus.columns["measure"][row]) - p))
        bounds.append(6.0 * math.sqrt(p * (1.0 - p) / 200_000))
    return diffs, bounds


class TestMonteCarloWorker:
    """The suites' Monte Carlo draws run on one worker thread and leave the report alone."""

    def test_draws_overlap_the_oracle_and_keep_their_own_time(self, monkeypatch):
        # 0.6 s of ball draws run while the oracle sleeps 1 s; the draws' row
        # is charged their 0.6 s, not the moment it waited for them
        def slow_mc_measures(*args, **kwargs):
            time.sleep(0.6 / SMALL_TASKS)
            return _mc_measures(*args, **kwargs)

        quad = verify.adaptive_quad_many

        def slow_quad(*args, **kwargs):
            time.sleep(1.0)
            return quad(*args, **kwargs)

        monkeypatch.setattr(verify, "_mc_measures", slow_mc_measures)
        monkeypatch.setattr(verify, "adaptive_quad_many", slow_quad)
        started = time.perf_counter()
        report = run_suite("measure-oracle", SMALL)
        elapsed = time.perf_counter() - started
        oracle, draws = report.checks
        assert draws.samples == 20
        assert oracle.wall_time >= 1.0
        assert draws.wall_time >= 0.6
        # one after the other they would take at least 1.6 s
        assert elapsed < 1.6

    def test_slow_draws_leave_the_report(self, monkeypatch):
        config = SuiteConfig(samples=300, seed=7)
        plain = render_report(run_suite("all", config))

        def slow_mc_measures(*args, **kwargs):
            time.sleep(0.025)
            return _mc_measures(*args, **kwargs)

        monkeypatch.setattr(verify, "_mc_measures", slow_mc_measures)
        slow = render_report(run_suite("all", config))
        assert _without_wall_time(slow) == _without_wall_time(plain)

    def test_draw_error_raises_from_run_suite(self, monkeypatch):
        class DrawError(Exception):
            pass

        def failing_mc_measures(*args, **kwargs):
            raise DrawError("draw failed")

        monkeypatch.setattr(verify, "_mc_measures", failing_mc_measures)
        before = threading.active_count()
        with pytest.raises(DrawError, match="draw failed"):
            run_suite("all", SMALL)
        assert threading.active_count() == before

    def test_no_thread_outlives_run_suite(self):
        before = threading.active_count()
        for name in ("measure-oracle", "scalar-functions", "all"):
            run_suite(name, SMALL)
            assert threading.active_count() == before, name

    def test_slab_draws_start_before_the_corpus_is_built(self, monkeypatch):
        slab_started = threading.Event()

        def recorded_in_intervals(x, intervals):
            slab_started.set()
            return sets._in_intervals(x, intervals)

        waited = []

        def waiting_batch(n, seed):
            # the slab draws need no corpus, so the worker is on them already
            waited.append(slab_started.wait(timeout=10.0))
            return _mixed_batch(n, seed)

        monkeypatch.setattr(verify, "_in_intervals", recorded_in_intervals)
        monkeypatch.setattr(verify, "_mixed_batch", waiting_batch)
        run_suite("all", SMALL)
        assert waited == [True]

    def test_main_thread_error_cancels_the_queued_draws(self, monkeypatch):
        # the slab draws hold the worker for about 0.5 s (their four profile
        # tests) and the oracle fails at once, so the ball tasks queued
        # behind them never start
        slowed = []

        def slow_in_intervals(x, intervals):
            slowed.append(threading.current_thread() is threading.main_thread())
            time.sleep(0.125)
            return sets._in_intervals(x, intervals)

        draws_started = []

        def recorded_mc_measures(*args, **kwargs):
            draws_started.append(time.perf_counter())
            return _mc_measures(*args, **kwargs)

        raised = []

        def failing_quad(*args, **kwargs):
            raised.append(time.perf_counter())
            raise RuntimeError("oracle failed")

        monkeypatch.setattr(verify, "_in_intervals", slow_in_intervals)
        monkeypatch.setattr(verify, "_mc_measures", recorded_mc_measures)
        monkeypatch.setattr(verify, "adaptive_quad_many", failing_quad)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="oracle failed"):
            run_suite("all", SMALL)
        assert threading.active_count() == before
        assert len(draws_started) < SMALL_TASKS
        assert all(t < raised[0] for t in draws_started)
        # the worker ran the slab task, one profile test per slab
        assert slowed == [False] * len(verify._SLAB_DIMS)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_ball_draws_do_not_depend_on_the_thread(self, seed, monkeypatch):
        self._check_thread_independence(SuiteConfig(samples=300, seed=seed), monkeypatch)

    # below 200 samples the slabs fill the 20 members up, and share one task
    @pytest.mark.parametrize("samples", [100, 150, 199, 200])
    def test_small_corpus_draws_do_not_depend_on_the_thread(self, samples, monkeypatch):
        self._check_thread_independence(SuiteConfig(samples=samples, seed=5), monkeypatch)

    @staticmethod
    def _check_thread_independence(config, monkeypatch):
        tasks = _ball_task_count(config)
        on_main = []
        held = []
        gate = threading.Event()

        def recorded_mc_measures(*args, **kwargs):
            value = _mc_measures(*args, **kwargs)
            on_main.append(threading.current_thread() is threading.main_thread())
            if len(on_main) == tasks:
                gate.set()
            return value

        def held_in_intervals(x, intervals):
            # the worker holds the slab task until the ball tasks ran
            held.append(threading.current_thread() is threading.main_thread())
            gate.wait(timeout=10.0)
            gate.set()  # later slabs do not wait, should the gate have timed out
            return sets._in_intervals(x, intervals)

        quad = verify.adaptive_quad_many

        def held_quad(*args, **kwargs):
            # the oracle waits until the worker ran the ball tasks
            gate.wait(timeout=10.0)
            return quad(*args, **kwargs)

        def run(name=None, value=None):
            on_main.clear()
            gate.clear()
            seen = []

            def recorded_margins_le(a, b):
                seen.append((a, b))
                return _margins_le(a, b)

            with monkeypatch.context() as m:
                m.setattr(verify, "_mc_measures", recorded_mc_measures)
                m.setattr(verify, "_margins_le", recorded_margins_le)
                if name:
                    m.setattr(verify, name, value)
                report = render_report(run_suite("all", config))
            # measure-oracle runs first, and its ball row is the first one-sided check
            diffs, bounds = seen[0]
            return report, [x.hex() for x in diffs], [x.hex() for x in bounds]

        want_diffs, want_bounds = _serial_ball_draws(config)
        plain = run()
        on_the_main_thread = run("_in_intervals", held_in_intervals)
        assert on_main == [True] * tasks
        assert held == [False] * len(verify._SLAB_DIMS)
        on_the_worker = run("adaptive_quad_many", held_quad)
        assert on_main == [False] * tasks
        for report, diffs, bounds in (plain, on_the_main_thread, on_the_worker):
            assert diffs == [x.hex() for x in want_diffs]
            assert bounds == [x.hex() for x in want_bounds]
            assert _without_wall_time(report) == _without_wall_time(plain[0])

    def test_both_threads_share_the_ball_tasks(self, monkeypatch):
        # 8 ball tasks of 0.125 s each and a fast oracle: the main thread
        # takes tasks from the back while the worker runs them from the front
        runs = []

        def slow_mc_measures(*args, **kwargs):
            started = time.perf_counter()
            time.sleep(1.0 / SMALL_TASKS)
            value = _mc_measures(*args, **kwargs)
            runs.append((threading.current_thread() is threading.main_thread(), started, time.perf_counter()))
            return value

        monkeypatch.setattr(verify, "_mc_measures", slow_mc_measures)
        report = run_suite("measure-oracle", SMALL)
        assert report.checks[1].wall_time >= 1.0
        assert sorted({on_main for on_main, _, _ in runs}) == [False, True]
        # the two threads run tasks at once, not one after the other
        main = [(start, end) for on_main, start, end in runs if on_main]
        worker = [(start, end) for on_main, start, end in runs if not on_main]
        assert any(a < d and c < b for a, b in main for c, d in worker)

    def test_each_task_runs_once_under_races(self):
        # the main thread and the worker race for the same futures
        from concurrent.futures import ThreadPoolExecutor

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                tasks = [lambda i=i: ran.append(i) or i * i for i in range(500)]
                with ThreadPoolExecutor(max_workers=1) as worker:
                    values = verify._Draws(worker, tasks).result()
                assert values == [i * i for i in range(500)]
                assert sorted(ran) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    def test_draw_error_on_the_main_thread_keeps_its_type(self, monkeypatch):
        class DrawError(Exception):
            pass

        gate = threading.Event()
        on_main = []
        held = []

        def held_in_intervals(x, intervals):
            # the worker holds the slab task, so the main thread runs the ball tasks
            held.append(threading.current_thread() is threading.main_thread())
            gate.wait(timeout=10.0)
            gate.set()  # later slabs do not wait, should the gate have timed out
            return sets._in_intervals(x, intervals)

        def failing_mc_measures(*args, **kwargs):
            on_main.append(threading.current_thread() is threading.main_thread())
            gate.set()
            raise DrawError("draw failed")

        monkeypatch.setattr(verify, "_in_intervals", held_in_intervals)
        monkeypatch.setattr(verify, "_mc_measures", failing_mc_measures)
        before = threading.active_count()
        with pytest.raises(DrawError, match="draw failed"):
            run_suite("all", SMALL)
        assert on_main == [True]
        assert held == [False] * len(verify._SLAB_DIMS)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 7])
    def test_a_corpus_without_balls_submits_no_ball_task(self, n, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted_start(self):
            started.append(self.name)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        report = run_suite("measure-oracle", SuiteConfig(samples=n, seed=42))
        assert [c.name for c in report.checks] == ["interval-measure-vs-quadrature"]
        assert started == []

    def test_one_worker_and_no_schedule_knob(self):
        # the schedule has one worker and nothing to set: verify builds one
        # ThreadPoolExecutor(max_workers=1) in run_suite, and no module
        # starts a Thread or reads the environment
        for path in Path(gaussiso.__file__).resolve().parent.glob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            # the innermost function around each node, as ast.walk reaches outer ones first
            owner = {
                id(node): func.name
                for func in ast.walk(tree)
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(func)
            }
            pools = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func).split(".")[-1]
                    if called == "ThreadPoolExecutor":
                        pools.append((owner.get(id(node)), ast.unparse(node)))
                    assert called not in {"Thread", "getenv"}, (path.name, node.lineno)
                elif isinstance(node, ast.Attribute):
                    assert node.attr != "environ", (path.name, node.lineno)
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    assert not {a.name for a in node.names} & {"environ", "getenv"}, path.name
            expected = [("run_suite", "ThreadPoolExecutor(max_workers=1)")] if path.name == "verify.py" else []
            assert pools == expected, path.name

    def test_suites_without_draws_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted_start(self):
            started.append(self.name)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for name in SUITE_NAMES:
            if name not in ("measure-oracle", "scalar-functions"):
                run_suite(name, SMALL)
        assert started == []
        run_suite("all", SMALL)
        assert len(started) == 1


class TestSlabDraws:
    """The four slabs draw from one stream: a shared profile column and one transverse column per axis."""

    @pytest.mark.parametrize("seed", [1, 42])
    def test_slab_draws_are_the_shared_stream_draws(self, seed):
        diffs, bounds = verify._slab_draws(SuiteConfig(samples=1, seed=seed))
        want_diffs, want_bounds = _shared_stream_slab_draws(seed)
        assert len(diffs) == 1 + 2 + 3 + 4
        assert [x.hex() for x in diffs] == [x.hex() for x in want_diffs]
        assert [x.hex() for x in bounds] == [x.hex() for x in want_bounds]

    def test_one_generator_draws_a_million_normals_and_builds_no_slab(self, monkeypatch):
        # the profile column and 4 transverse columns: 5 x 200,000, not 14 x 200,000
        generators = []
        drawn = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, size):
                drawn.append(size)
                return self._rng.standard_normal(size)

        def spied_rng(*args):
            generators.append(args)
            return Spy(default_rng(*args))

        def refused(self):
            raise AssertionError("the slab draws built a SlabSet")

        monkeypatch.setattr(np.random, "default_rng", spied_rng)
        monkeypatch.setattr(sets.SlabSet, "__post_init__", refused)
        verify._slab_draws(SuiteConfig(samples=1, seed=3))
        assert generators == [([3, 17],)]
        assert drawn == [200_000] * 5
        assert sum(drawn) == 1_000_000

    # the smallest margin of these seeds, 1.8e-3, is at seed 2
    @pytest.mark.parametrize("seed", [1, 2, 3, 42, 1501, *range(5101, 5111)])
    def test_no_violations(self, seed):
        diffs, bounds = verify._slab_draws(SuiteConfig(samples=1, seed=seed))
        margins = _margins_le(diffs, bounds)
        assert margins.size == 10
        assert np.all(margins > 0.0)

    def test_peak_memory_stays_below_eight_mib(self):
        # one transverse column and one product at a time; the whole
        # transverse block and its products at once would not fit
        tracemalloc.start()
        try:
            verify._slab_draws(SuiteConfig(samples=1, seed=42))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestBallDrawsPerDimension:
    """The Monte Carlo members draw one stream per law: chi-square per ball dimension, one normal stream for slabs."""

    @pytest.mark.parametrize(
        "members",
        [
            [sets.CenteredBall(dim=4, radius=r) for r in (0.5, 1.7, 2.0, 3.9)],
            [sets.CenteredBall(dim=2, radius=1.0)],
            [
                sets.SlabSet(dim=3, profile=IntervalUnion1D(intervals=((-math.inf, -0.5), (0.3, 0.9)))),
                sets.SlabSet(dim=5, profile=IntervalUnion1D(intervals=((0.1, math.inf),))),
                sets.HalfSpace(omega=(0.6, 0.8), s=-0.4),
            ],
        ],
        ids=["balls", "one-ball", "profiles"],
    )
    def test_each_member_is_its_own_mc_measure(self, members):
        # 150,000 draws end in a partial block
        shared = _mc_measures(members, 150_000, 2024)
        alone = [mc_measure(e, n_samples=150_000, seed=2024) for e in members]
        assert [(p.hex(), se.hex()) for p, se in shared] == [(p.hex(), se.hex()) for p, se in alone]

    def test_members_must_share_one_law(self):
        balls = [sets.CenteredBall(dim=3, radius=1.0), sets.CenteredBall(dim=4, radius=1.0)]
        with pytest.raises(ValueError, match="share one law"):
            _mc_measures(balls, 10, 0)
        with pytest.raises(ValueError, match="share one law"):
            _mc_measures([balls[0], sets.SlabSet(dim=3, profile=IntervalUnion1D(intervals=((0.0, 1.0),)))], 10, 0)

    def test_one_chi_square_stream_per_dimension(self, monkeypatch):
        # seed 1501's 20 balls span 8 dimensions: 8 x 200,000 variates, not 20 x 200,000
        drawn = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def chisquare(self, df, size):
                drawn.append((df, size))
                return self._rng.chisquare(df, size)

        monkeypatch.setattr(np.random, "default_rng", lambda *args: Spy(default_rng(*args)))
        config = SuiteConfig(samples=10_000, seed=1501)
        report = run_suite("measure-oracle", config)
        assert report.checks[1].samples == 20
        dims = {df for df, _ in drawn}
        assert len(dims) == 8
        for dim in dims:
            assert sum(size for df, size in drawn if df == dim) == 200_000
        assert sum(size for _, size in drawn) == 8 * 200_000

    @pytest.mark.parametrize("n, balls, slabs", [(100, 10, 5), (150, 15, 5), (199, 19, 1), (200, 20, 0)])
    def test_small_corpora_keep_their_slab_members(self, n, balls, slabs):
        config = SuiteConfig(samples=n, seed=5)
        batch = verify._build_corpus(config).batch
        rows = verify._ball_rows(batch)
        kinds = batch.kinds[rows].tolist()
        assert (kinds.count(sets._BALL), kinds.count(sets._SLAB)) == (balls, slabs)
        # the slabs share one task; every ball dimension has its own
        ball_dims = {int(batch.dims[row]) for row in rows if batch.kinds[row] == sets._BALL}
        assert _ball_task_count(config) == len(ball_dims) + (slabs > 0)
        check = run_suite("measure-oracle", config).checks[1]
        assert (check.samples, check.violations) == (balls + slabs, 0)


@pytest.fixture(scope="module")
def report():
    return run_suite("stationarity", SMALL)


@pytest.fixture(scope="module")
def scale_report():
    return run_suite("all", SuiteConfig(samples=1200, seed=42))


class TestRenderAndEmit:
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64(-math.inf)])
    def test_non_finite_numbers_are_refused(self, x):
        # JSON has no number for them, so no report or CLI output may hold one
        with pytest.raises(ValueError, match="non-finite"):
            format_number(x)
        with pytest.raises(ValueError, match="non-finite"):
            json_value({"x": x})
        assert format_number(-0.0) == "-0"

    def test_csv_layout(self, report):
        text = render_report(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "name,anchor,samples,violations,worst_margin,seed,wall_time"
        assert len(lines) == len(report.checks) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_json_round_trip(self, report):
        payload = json.loads(render_report(report, "json"))
        assert payload["suite"] == "stationarity"
        assert len(payload["checks"]) == len(report.checks)
        for parsed, check in zip(payload["checks"], report.checks):
            assert parsed["name"] == check.name
            assert parsed["anchor"] == check.anchor
            assert parsed["samples"] == check.samples
            assert parsed["violations"] == check.violations
            assert parsed["worst_margin"] == check.worst_margin
            assert parsed["seed"] == check.seed

    def test_seventeen_digit_serialization(self, report):
        text = render_report(report, "json")
        for check in report.checks:
            assert format(check.worst_margin, ".17g") in text

    def test_empty_report_is_header_only_csv(self):
        empty = VerificationReport(suite="none", checks=())
        assert (
            render_report(empty, "csv")
            == "name,anchor,samples,violations,worst_margin,seed,wall_time\n"
        )
        assert json.loads(render_report(empty, "json")) == {"suite": "none", "checks": []}

    def test_hand_built_report_text_is_frozen(self):
        # pinned text: field order, key sorting and number formatting, which a
        # parsed-record comparison cannot see
        hand_built = VerificationReport(
            suite="demo",
            checks=(
                CheckRecord(
                    name="first-check",
                    anchor='a <= b "quoted"',
                    samples=3,
                    violations=0,
                    worst_margin=0.1,
                    params={
                        "levels": "0 -1",
                        "count": 7,
                        "ratio": 1 / 3,
                        "flag": True,
                        "nested": {"z": -2.5e-300, "a": [1, 2.0, False], "m": None},
                    },
                    seed=5,
                    wall_time=0.25,
                ),
                CheckRecord(
                    name="second-check",
                    anchor="x = y",
                    samples=1,
                    violations=1,
                    worst_margin=-1e-12,
                    seed=5,
                    wall_time=1.0,
                ),
            ),
        )
        assert render_report(hand_built, "json") == (
            '{"suite": "demo", "checks": [{"name": "first-check", '
            '"anchor": "a <= b \\"quoted\\"", "samples": 3, "violations": 0, '
            '"worst_margin": 0.10000000000000001, "params": {"count": 7, "flag": true, '
            '"levels": "0 -1", "nested": {"a": [1, 2, false], "m": null, "z": -2.5e-300}, '
            '"ratio": 0.33333333333333331}, "seed": 5, "wall_time": 0.25}, '
            '{"name": "second-check", "anchor": "x = y", "samples": 1, "violations": 1, '
            '"worst_margin": -9.9999999999999998e-13, "params": {}, "seed": 5, '
            '"wall_time": 1}]}\n'
        )
        assert render_report(hand_built, "csv") == (
            "name,anchor,samples,violations,worst_margin,seed,wall_time\n"
            'first-check,a <= b "quoted",3,0,0.10000000000000001,5,0.25\n'
            "second-check,x = y,1,1,-9.9999999999999998e-13,5,1\n"
        )

    def test_numpy_integer_seed_renders_as_int(self):
        def one_check(seed):
            record = CheckRecord(
                name="x", anchor="y", samples=1, violations=0, worst_margin=0.5, seed=seed
            )
            return VerificationReport(suite="x", checks=(record,))

        for format in ("json", "csv"):
            assert render_report(one_check(np.int64(2**60 + 1)), format) == render_report(
                one_check(2**60 + 1), format
            )

    def test_bad_format_rejected(self, report):
        with pytest.raises(ValueError, match="format"):
            render_report(report, "xml")

    def test_comma_in_anchor_rejected_for_csv(self):
        bad = VerificationReport(
            suite="x",
            checks=(
                CheckRecord(
                    name="ok", anchor="claim, with comma", samples=1, violations=0, worst_margin=0.5
                ),
            ),
        )
        with pytest.raises(ValueError, match="comma"):
            render_report(bad, "csv")

    def test_emit_writes_files(self, report, tmp_path):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        emit_report(report, str(json_path), "json")
        emit_report(report, str(csv_path), "csv")
        assert json.loads(json_path.read_text())["suite"] == "stationarity"
        assert csv_path.read_text().startswith("name,anchor,")

    def test_emit_failure_names_the_path(self, report):
        target = "/nonexistent-dir-for-report/report.json"
        with pytest.raises(OSError, match="nonexistent-dir-for-report"):
            emit_report(report, target, "json")


class TestCorpusSuitesAtScale:
    """Medium-size corpus giving every member family a presence."""

    def test_no_violations(self, scale_report):
        assert scale_report.total_violations == 0

    def test_measure_oracle_covers_high_dimensions(self, scale_report):
        mc = next(c for c in scale_report.checks if c.name == "highdim-measure-vs-monte-carlo")
        assert mc.samples == 20
        assert mc.violations == 0

    def test_identity_margins_tight(self, scale_report):
        identity = next(c for c in scale_report.checks if c.name == "boundary-excess-identity")
        # slack is essentially the full identity tolerance: the two sides agree
        # to far better than 1e-10 relative
        assert identity.worst_margin > 9e-11


class TestParamsDescribeTheirInputs:
    """Every ``params`` text is rendered from the value its check reads, never typed beside it."""

    def test_params_follow_the_levels_and_slab_inputs(self, monkeypatch):
        monkeypatch.setattr(verify, "_STATION_LEVELS", (-0.25, -1.5, -2.5))
        monkeypatch.setattr(verify, "_SLAB_FRACTIONS", (0.03, 0.3))
        monkeypatch.setattr(verify, "_SLAB_DIMS", (2, 3))
        monkeypatch.setattr(verify, "_MC_SIGMAS", 7.0)
        checks = {c.name: c for name in ("scalar-functions", "stationarity") for c in run_suite(name, SMALL).checks}
        params = {name: c.params for name, c in checks.items()}
        assert params["slab-widening-gain-nonnegative"] == {"levels": "-0.25 -1.5 -2.5", "t_grid": "[0, 40] with 801 points"}
        assert params["slab-competitor-asymmetry-bound"] == {"levels": "-0.25 -1.5 -2.5", "mass_fractions": "0.03 0.3"}
        assert params["slab-transverse-barycenter-vanishes"] == {
            "oracle": "Monte Carlo moment within 7 standard errors",
            "dims": "2 3",
        }
        assert params["two-ray-criticality"] == {"levels": "-0.25 -1.5 -2.5 -10"}
        assert params["two-ray-negative-mode"] == {"levels": "-0.25 -1.5 -2.5"}
        assert params["half-line-multiplier-bound"] == {"levels": "-0.25 -1.5 -2.5 -10 -20"}
        assert params["boundary-second-moment-bound"] == {"levels": "-0.25 -1.5 -2.5", "families": "two-ray and half-line"}
        # the checks read the values their texts name
        samples = {name: c.samples for name, c in checks.items()}
        assert samples["slab-competitor-asymmetry-bound"] == 3 * 2
        assert samples["slab-transverse-barycenter-vanishes"] == 1 + 2
        assert samples["two-ray-negative-mode"] == 3
        assert samples["half-line-multiplier-bound"] == 5

    def test_grid_text_is_read_from_the_grid(self):
        assert verify._text(np.linspace(-40.0, 0.0, 4001)) == "[-40, 0] with 4001 points"
        assert verify._text((0.0, -0.5, 2, 0.002)) == "0 -0.5 2 0.002"

    def test_no_input_is_typed_twice(self):
        # no text restates a number list, a grid or a sigma multiple, and no
        # seed stream is a bare tag: corpus names every stream of a seed
        tree = ast.parse(Path(verify.__file__).read_text())
        restated = re.compile(r"-?\d+(\.\d+)?( -?\d+(\.\d+)?)+|with \d+ points|within \d+ standard errors")
        texts = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert [t for t in texts if restated.search(t)] == []
        tags = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func).split(".")[-1]
                if called in ("_child_seeds", "_child_unions"):
                    tags.append(node.args[1])
                elif called == "default_rng":
                    tags.extend(ast.walk(node.args[0]))
        assert len(tags) >= 3
        assert [ast.unparse(t) for t in tags if isinstance(t, ast.Constant) and isinstance(t.value, int)] == []
