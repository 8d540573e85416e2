"""End-to-end acceptance checks: one test per shipped guarantee.

Each test exercises a complete guarantee at its stated tolerance and, where a
runtime budget applies, asserts it. Frozen numbers were produced by the
independent oracles noted next to them and pinned afterwards; they act as
regression anchors on top of the inequality/identity assertions.
"""

from __future__ import annotations

import json
import math
import re
import time

import numpy as np
import pytest

from gaussiso import (
    HalfSpace,
    IntervalUnion1D,
    OptimizerSettings,
    RandomSetSpec,
    SlabSet,
    SuiteConfig,
    euler_residual,
    excess_identity,
    half_line_set,
    lagrange_bound_check,
    mass_sweep,
    minimize_penalized_functional,
    mixed_corpus,
    psd_on_zero_average,
    quantity_columns,
    random_interval_union,
    run_suite,
    second_derivative_along_flow,
    second_variation_form,
    stability_params,
    symmetric_interval_halfwidth,
    two_ray_set,
)
from gaussiso.cli import cli_main

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Corpus statistics at samples=10_000, seed=42, frozen from the first run after
# the structural assertions below passed against independent recounts.
MIN_RATIO_10K = 2061.496901360511
EQUALITY_MEMBERS_10K = 537

# Instability threshold in the barycenter coupling strength at level 0:
# hand value pi / (a_0^2 w(a_0)) from the 2x2 reduction on the two-ray set.
EPS_THRESHOLD_HAND = 8.669366296606851

# Two-ray sweep ratios (deficit over s^{-2} * asymmetry), oracle: closed form
# sqrt(2 pi) s^2 D e^{s^2/2} evaluated at bisection-refined endpoints.
SWEEP_RATIOS = {
    -3.0: 1.3146143011346132,
    -5.0: 1.5440681817860369,
    -10.0: 1.6822357344896852,
    -15.0: 1.7122186997384574,
    -20.0: 1.7231180479512438,
}
SWEEP_ASYMPTOTE = SQRT_2PI * math.log(2.0)  # = 1.7374623212723181


def _is_single_ray(union: IntervalUnion1D) -> bool:
    if union.component_count != 1:
        return False
    lo, hi = union.intervals[0]
    return math.isinf(lo) != math.isinf(hi)


def _is_half_line_like(e) -> bool:
    """Geometrically a half-space: a single 1-D ray, a ray-profile slab, or a half-space."""
    if isinstance(e, IntervalUnion1D):
        return _is_single_ray(e)
    if isinstance(e, SlabSet):
        return _is_single_ray(e.profile)
    return isinstance(e, HalfSpace)


@pytest.fixture(scope="module")
def corpus_10k():
    return mixed_corpus(10_000, seed=42)


def test_excess_identity_on_random_and_slab_sets():
    """Direct boundary excess equals 2*deficit + 2*sqrt(2 pi)*asymmetry.

    1000 random 1-D interval unions plus 100 slabs, 1e-10 relative, under 5 s.
    """
    t0 = time.perf_counter()
    members = [
        random_interval_union(RandomSetSpec(k_range=(1, 6), seed=i))
        for i in range(1000)
    ]
    members += [
        SlabSet(
            dim=2 + (j % 4),
            profile=random_interval_union(RandomSetSpec(k_range=(1, 3), seed=10_000 + j)),
        )
        for j in range(100)
    ]
    worst = 0.0
    for e in members:
        direct, via = excess_identity(e)
        gap = abs(direct - via) / max(1.0, abs(via))
        worst = max(worst, gap)
        assert gap <= 1e-10
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_deficit_controls_strong_asymmetry_on_mixed_corpus():
    """beta <= c (1+s^2) D with c = 80 pi^2 sqrt(2 pi): zero violations on 10^4 sets.

    Also reports the corpus minimum of c (1+s^2) D / beta, which must be >= 1;
    the frozen value pins the exact corpus. Under 60 s.
    """
    t0 = time.perf_counter()
    report = run_suite("main", SuiteConfig(samples=10_000, seed=42))
    elapsed = time.perf_counter() - t0
    assert report.total_violations == 0
    ratio_check = next(c for c in report.checks if c.name == "minimum-constant-ratio")
    min_ratio = ratio_check.params["min_ratio"]
    assert min_ratio >= 1.0
    assert min_ratio == pytest.approx(MIN_RATIO_10K, rel=1e-9)
    assert elapsed < 60.0


def test_fraenkel_asymmetry_bounds_on_mixed_corpus():
    """beta >= (e^{s^2/2}/4) alpha_hat^2 and alpha_hat^2 <= c (1+s^2) e^{-s^2/2} D.

    Zero violations over the same 10^4-set corpus for both bounds.
    """
    config = SuiteConfig(samples=10_000, seed=42)
    strong = run_suite("strong-vs-standard", config)
    corollary = run_suite("alpha-hat-corollary", config)
    assert strong.total_violations == 0
    assert corollary.total_violations == 0


def test_isoperimetric_and_barycenter_equality_cases(corpus_10k):
    """P >= e^{-s^2/2} and |b| <= b_s: zero violations, equality exactly on half-space-like members.

    Equality (|slack| < 1e-10) must hold on precisely the corpus members that
    are geometrically half-spaces (single rays and ray-profile slabs), for
    both the perimeter floor and the barycenter ceiling.
    """
    config = SuiteConfig(samples=10_000, seed=42)
    iso = run_suite("iso", config)
    bary = run_suite("barycenter-max", config)
    assert iso.total_violations == 0
    assert bary.total_violations == 0
    assert iso.checks[0].params["equality_members"] == EQUALITY_MEMBERS_10K
    assert bary.checks[0].params["equality_members"] == EQUALITY_MEMBERS_10K

    cols = quantity_columns(corpus_10k)
    half_line_like = 0
    for e, perimeter, s, beta in zip(
        corpus_10k, cols["perimeter"].tolist(), cols["s"].tolist(), cols["beta"].tolist()
    ):
        perimeter_slack = perimeter - math.exp(-s**2 / 2.0)
        barycenter_slack = beta
        expected = _is_half_line_like(e)
        half_line_like += expected
        assert (abs(perimeter_slack) < 1e-10) == expected
        assert (abs(barycenter_slack) < 1e-10) == expected
    assert half_line_like == EQUALITY_MEMBERS_10K


def test_minimizer_returns_half_line_at_each_level():
    """At the shipped weights the search lands on the half-line.

    Levels 0, -0.5, -1, -2 with k_max=3 and 64 starts: a single-ray set at the
    level within 1e-6, objective equal to e^{-s^2/2} + (eps/(4 pi)) e^{-s^2}
    within 1e-9 relative. Under 120 s for all four levels.
    """
    t0 = time.perf_counter()
    for s in (0.0, -0.5, -1.0, -2.0):
        params = stability_params(s)
        outcome = minimize_penalized_functional(
            s, params, k_max=3, settings=OptimizerSettings(multistarts=64, seed=0)
        )
        assert outcome.half_line_optimal
        assert outcome.best_set.component_count == 1
        lo, hi = outcome.best_set.intervals[0]
        assert math.isinf(lo) != math.isinf(hi)
        level = hi if math.isinf(lo) else -lo
        assert abs(level - s) <= 1e-6
        predicted = math.exp(-s * s / 2.0) + params.eps / (4.0 * math.pi) * math.exp(-s * s)
        assert outcome.best_value == pytest.approx(predicted, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0


def test_two_ray_family_criticality_and_instability():
    """The two-ray sets are critical points with a negative second-variation mode.

    Euler residual deviation < 1e-10 at each level; the quadratic form on the
    weighted zero-average subspace has a negative eigenvalue at the shipped
    coupling strength; the instability threshold at level 0 matches the hand
    value pi / (a_0^2 w(a_0)); the half-line multiplier obeys |lambda| <= Lambda.
    """
    for s in (0.0, -1.0, -2.0):
        params = stability_params(s)
        e = two_ray_set(s)
        report = euler_residual(e, params)
        assert report.max_dev < 1e-10
        min_eig, witness = psd_on_zero_average(second_variation_form(e, params))
        assert min_eig < -1e-8
        assert np.isfinite(witness).all()

    suite = run_suite("stationarity", SuiteConfig(samples=10_000, seed=42))
    assert suite.total_violations == 0
    threshold = next(
        c for c in suite.checks if c.name == "instability-threshold-level-zero"
    )
    assert threshold.params["hand_threshold"] == pytest.approx(
        EPS_THRESHOLD_HAND, rel=1e-12
    )
    assert threshold.params["solver_threshold"] == pytest.approx(
        EPS_THRESHOLD_HAND, rel=1e-9
    )

    for s in (0.0, -1.0, -2.0, -5.0):
        params = stability_params(s)
        report = euler_residual(half_line_set(s), params)
        assert lagrange_bound_check(report, params)


def test_mass_sweep_ratio_plateau():
    """The deficit-to-scaled-asymmetry ratio stays below 2 and plateaus.

    At levels -3, -5, -10, -15, -20 the ratio D / (s^{-2} beta) is bounded by
    2.0, varies by less than 1% between -15 and -20, and sits within 1% of the
    limiting value sqrt(2 pi) ln 2.
    """
    rows = mass_sweep(tuple(SWEEP_RATIOS))
    assert [row.s for row in rows] == sorted(SWEEP_RATIOS)
    by_level = {row.s: row.ratio for row in rows}
    for s, frozen in SWEEP_RATIOS.items():
        assert by_level[s] == pytest.approx(frozen, rel=1e-12)
        assert by_level[s] <= 2.0
    plateau = abs(by_level[-15.0] - by_level[-20.0]) / abs(by_level[-20.0])
    assert plateau < 0.01
    assert abs(by_level[-20.0] - SWEEP_ASYMPTOTE) / SWEEP_ASYMPTOTE < 0.01


def test_scalar_function_inequalities():
    """The grid suite over the scalar bounds reports zero violations, under 5 s.

    Covers: the mass-gap function is nonpositive; Lambda^2 + 1 is bounded by
    (9/2) pi^2 (1+s^2); the weight dominates twice the mass; slab widening
    gain and the slab-competitor asymmetry floor; transverse slab barycenter
    components vanish; the coupling-strength product stays below 1/4; the
    half-line objective is bounded by (10/9) e^{-s^2/2}.
    """
    t0 = time.perf_counter()
    report = run_suite("scalar-functions", SuiteConfig(samples=10_000, seed=42))
    elapsed = time.perf_counter() - t0
    assert report.total_violations == 0
    assert len(report.checks) == 8
    assert elapsed < 5.0


def test_second_variation_matches_finite_differences():
    """The algebraic quadratic form tracks central differences of the objective.

    At critical sets, the form evaluated on a weighted zero-average direction
    must agree with the second difference quotient of the objective along the
    exact mass-preserving flow within 1e-3 relative.
    """
    cases = []
    for s in (0.0, -1.0):
        cases.append((two_ray_set(s), stability_params(s)))
    q = symmetric_interval_halfwidth(-1.0)
    cases.append(
        (IntervalUnion1D(intervals=((-q, q),)), stability_params(-1.0))
    )
    phi = np.array([1.0, -1.0])
    for e, params in cases:
        residual = euler_residual(e, params)
        assert residual.max_dev < 1e-8  # only meaningful at critical sets
        form = second_variation_form(e, params)
        assert abs(float(phi @ form.constraint)) < 1e-12  # admissible direction
        algebraic = form.value(phi)
        fd = second_derivative_along_flow(e, params, phi)
        assert algebraic == pytest.approx(fd, rel=1e-3)


def test_reports_are_deterministic_across_runs(tmp_path):
    """Two full verification runs with the same seed emit byte-identical reports.

    The only permitted difference is the wall_time field of each check.
    """
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        code = cli_main(
            ["verify", "--suite", "all", "--seed", "42", "--out", str(path)]
        )
        assert code == 0
    texts = [p.read_text() for p in paths]
    scrubbed = [
        re.sub(r'"wall_time": [^,}\n]+', '"wall_time": 0', t) for t in texts
    ]
    assert scrubbed[0] == scrubbed[1]
    # Sanity: the scrub only touched wall_time values.
    parsed = [json.loads(t) for t in texts]
    for doc in parsed:
        for check in doc["checks"]:
            check["wall_time"] = 0.0
    assert parsed[0] == parsed[1]
