"""Inequality and identity verification suites over set corpora and grids.

Each suite evaluates a family of claims — isoperimetric lower bounds, the
deficit-controls-asymmetry estimate with its explicit constant, asymmetry
comparisons, the boundary-excess identity, auxiliary scalar-function sign
conditions, and stationarity structure of the two-ray family.  A suite only
computes: it is a generator yielding one ``(name, anchor, margins, params)``
row per check.  :func:`run_suite` does the rest.  It looks suites up in one
ordered registry, builds the corpus once (before any timer starts, and only
when a selected suite reads it), times each row from resuming its suite to
the yield, and records the violation count and the worst margin.  The corpus
is built as the batch it is drawn into (``corpus._mixed_batch``), with no set
object per member, and the corpus suites share one evaluation of its
``quantity_columns`` from that batch, which refuses only degenerate or
non-finite members; each claim is decided in its suite alone, so a member
that breaks one is counted there, not refused.  The quadrature oracle reads
the batch's interval endpoints and stored masses, chaining each side's rays
through their sorted anchors; only the Monte Carlo members become set objects.

The two Monte Carlo checks draw on one worker thread that ``run_suite`` owns:
NumPy's generators release the GIL while they fill, so the draws run beside
the corpus build and the quadrature oracle.  The registry names each suite's
draws as a list of tasks.  The slab draws need no corpus and are one task,
submitted before the corpus is built: the four slabs share one stream, a
profile column that each tests against its own profile and one transverse
column per axis.  The ball draws are one task per dimension, submitted once
the batch exists: a dimension's chi-square draws are tested against every
ball of that dimension, so the 20 balls, in dimensions 2 to 10, cost at most
9 streams.  A suite collects its draws where it yields their row: the main
thread then runs the tasks the worker has not started, from the last back,
while the worker goes on from the first, and waits only for the one in
flight.  Each value lands at its task's index, so the draws keep every bit of
the serial loop whichever thread ran them, and the row counts the worker's
share by its duration, not by the wait.

An inequality a <= b counts as violated when a - b > 1e-9 * max(1, |b|); the
recorded margin folds that tolerance in, so it is negative exactly when the
check has violations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np

from .corpus import _STREAM_MC_BALL, _STREAM_MC_SLAB, _STREAM_MC_SLAB_PROFILE, _child_seeds, _child_unions, _mixed_batch
from .functionals import (
    STABILITY_CONSTANT,
    FunctionalParams,
    _batch_columns,
    penalized_functional,
    quantity_columns,
    stability_params,
)
from .quadrature import QuadSettings, _chained_quad_many, adaptive_quad_many
from .sets import (
    _LINE,
    IntervalUnion1D,
    _Batch,
    _in_intervals,
    _mc_law,
    _mc_measures,
    _members,
    half_line_set,
    two_ray_endpoint,
    two_ray_set,
)
from .special import (
    SQRT_2PI,
    _check_integer,
    _check_real,
    _elementwise,
    _gauss_cdf_many,
    gauss_cdf,
    gauss_cdf_inv,
    gauss_weight,
    log_gauss_cdf,
)
from .stationarity import (
    boundary_points,
    euler_residual,
    psd_on_zero_average,
    second_variation_form,
)

__all__ = [
    "SUITE_NAMES",
    "SuiteConfig",
    "CheckRecord",
    "VerificationReport",
    "run_suite",
    "render_report",
    "emit_report",
    "format_number",
    "json_value",
]

#: Relative scale of the violation tolerance for inequality checks.
SLACK_REL = 1e-9

#: Tighter relative tolerance for exact-identity checks.
IDENTITY_REL = 1e-10

#: Quadrature settings of the interval-measure oracle.
ORACLE_SETTINGS = QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=60)

#: Largest ``SuiteConfig.main_constant`` whose bounds and ratios stay finite.
_MAX_MAIN_CONSTANT = 1e290

#: Draws per Monte Carlo estimate, the standard errors a check allows, and the corpus members of
#: dimension above 1 it estimates (balls, and below 200 samples the slabs after them).
_MC_SAMPLES = 200_000
_MC_SIGMAS = 6.0
_MC_MEMBERS = 20

#: Nearer than this to its bound, a member is an equality case of ``iso`` and ``barycenter-max``.
_EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class SuiteConfig:
    """Corpus size, seeding, and the falsification hook.

    ``main_constant`` overrides the explicit constant of the
    deficit-controls-asymmetry estimate; lowering it demonstrates the
    suite's sensitivity through the reported margins.  It is at most
    ``_MAX_MAIN_CONSTANT``: a member's ``(1+s^2) D(E)`` is below 2e4 (|s| is
    below 38.5 wherever Phi(s) > 0, and D(E) <= P(E) <= 12), and the ratio
    check divides it by beta(E) > 1e-12, so every bound and ratio stays
    finite.
    """

    samples: int = 10_000
    seed: int = 42
    main_constant: float = STABILITY_CONSTANT

    def __post_init__(self) -> None:
        _check_integer(self.samples, "samples", 1)
        _check_integer(self.seed, "seed", 0)
        c = _check_real(self.main_constant, "main_constant", "positive")
        if c > _MAX_MAIN_CONSTANT:
            raise ValueError(
                f"main_constant must be at most {_MAX_MAIN_CONSTANT:g}, so that every bound stays finite, got {c!r}"
            )
        object.__setattr__(self, "main_constant", c)


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one verified claim."""

    name: str
    anchor: str
    samples: int
    violations: int
    worst_margin: float
    params: dict = field(default_factory=dict)
    seed: int = 0
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("check name must be nonempty")
        if not self.anchor:
            raise ValueError("check anchor must be nonempty")
        _check_integer(self.samples, "samples", 1)
        _check_integer(self.violations, "violations", 0)
        _check_integer(self.seed, "seed", 0)
        object.__setattr__(self, "worst_margin", _check_real(self.worst_margin, "worst_margin"))
        object.__setattr__(self, "wall_time", _check_real(self.wall_time, "wall_time", "nonnegative"))
        if (self.violations > 0) != (self.worst_margin < 0.0):
            raise ValueError(
                f"margin sign must track violations: {self.violations} violations "
                f"with worst margin {self.worst_margin!r}"
            )


@dataclass(frozen=True)
class VerificationReport:
    """All check records of one suite run."""

    suite: str
    checks: tuple[CheckRecord, ...]

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)


def _text(value) -> str:
    """Report text of a check input: a grid array as its range and size, a tuple as its values, a number as ``g``."""
    if isinstance(value, np.ndarray):
        return f"[{value[0]:g}, {value[-1]:g}] with {len(value)} points"
    if isinstance(value, tuple):
        return " ".join(map(_text, value))
    return format(value, "g")


def _margins_le(a, b) -> np.ndarray:
    """Tolerance-adjusted slack of the claims a_i <= b_i (negative iff violated)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return b - a + SLACK_REL * np.maximum(1.0, np.abs(b))


def _margins_identity(a, b, rel=IDENTITY_REL) -> np.ndarray:
    """Tolerance-adjusted slack of the claims a_i == b_i (negative iff violated)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return rel * np.maximum(1.0, np.abs(b)) - np.abs(a - b)


@dataclass(frozen=True)
class _Corpus:
    """The seeded corpus as one batch and its read-only quantity columns, shared across suites."""

    batch: _Batch
    columns: dict[str, np.ndarray]


def _build_corpus(config: SuiteConfig) -> _Corpus:
    batch = _mixed_batch(config.samples, config.seed)
    columns = _batch_columns(batch)
    for column in columns.values():
        column.flags.writeable = False
    return _Corpus(batch=batch, columns=columns)


class _Draws:
    """One suite's Monte Carlo draws: tasks queued on the worker thread until the suite collects them.

    Collecting them runs on the calling thread, from the last back, every
    task the worker has not started, while the worker goes on from the
    first; then it waits for the one in flight.  Each value lands at its
    task's index, so the values do not depend on which thread ran a task.
    The row that collects them is charged the durations of the tasks the
    worker ran in place of the time it waited for them.
    """

    def __init__(self, worker, tasks: list) -> None:
        self._tasks = tasks
        self._futures = [worker.submit(self._timed, task) for task in tasks]
        self._charge = 0.0

    @staticmethod
    def _timed(task):
        started = time.perf_counter()
        value = task()
        return value, time.perf_counter() - started

    def result(self) -> list:
        """The tasks' values in task order; a task's exception, if one raised, re-raised here."""
        values = [None] * len(self._tasks)
        # the worker runs the tasks from the first on; this thread takes the
        # last one the worker has not started until the two meet
        ours = len(self._tasks)
        while ours and self._futures[ours - 1].cancel():
            ours -= 1
            values[ours] = self._tasks[ours]()
        for i, future in enumerate(self._futures[:ours]):
            started = time.perf_counter()
            values[i], took = future.result()
            self._charge += took - (time.perf_counter() - started)
        return values

    def charge(self) -> float:
        """Seconds to add to the wall time of the row that collected the draws, then 0."""
        charge, self._charge = self._charge, 0.0
        return charge


# ---------------------------------------------------------------------------
# corpus suites: each yields one (name, anchor, margins, params) row per check

_MEASURE_ANCHOR = "gamma(E) = int_E (2 pi)^{-n/2} e^{-|x|^2/2} dx"
_MAIN_ANCHOR = "beta(E) <= c (1+s^2) D(E) with c = 80 pi^2 sqrt(2 pi)"


def _oracle_density(x: np.ndarray) -> np.ndarray:
    """The measure oracle's own vectorized standard normal density."""
    return np.exp(-0.5 * x * x) / SQRT_2PI


def _suite_measure_oracle(config: SuiteConfig, corpus: _Corpus, ball_draws: _Draws):
    batch = corpus.batch
    # the intervals of the members on the line; their closed side is the
    # stored _interval_mass that measure() sums, right-tail mirror included
    line = (batch.kinds == _LINE)[batch.owners()]
    lo = batch.points[0::2][line]
    hi = batch.points[1::2][line]
    closed = batch.masses[line]
    via_quad = _chained_quad_many(adaptive_quad_many, _oracle_density, lo, hi, ORACLE_SETTINGS)
    margins = _margins_identity(via_quad.value, closed)
    # an interval the oracle did not resolve counts as a violation
    margins = np.where(via_quad.converged, margins, np.minimum(margins, -via_quad.error))
    yield (
        "interval-measure-vs-quadrature",
        _MEASURE_ANCHOR,
        margins,
        {"oracle": "adaptive quadrature of the density per interval"},
    )

    estimates = {row: value for task in ball_draws.result() for row, value in task.items()}
    if estimates:
        # the members in row order, which is member order
        rows = sorted(estimates)
        measures = corpus.columns["measure"]
        diffs = [abs(float(measures[row]) - estimates[row][0]) for row in rows]
        bounds = [_MC_SIGMAS * estimates[row][1] for row in rows]
        yield (
            "highdim-measure-vs-monte-carlo",
            _MEASURE_ANCHOR,
            _margins_le(diffs, bounds),
            {"oracle": f"Monte Carlo indicator average within {_text(_MC_SIGMAS)} standard errors"},
        )


def _ball_rows(batch: _Batch) -> list[int]:
    """The Monte Carlo members: the first ``_MC_MEMBERS`` rows of dimension above 1.

    They are balls from 200 samples on; below that the corpus has fewer
    than 20 balls, and the slabs that follow them fill the rest (at 100
    samples, 10 balls and all 5 slabs).
    """
    return np.flatnonzero(batch.dims > 1)[:_MC_MEMBERS].tolist()


def _ball_draws(config: SuiteConfig, corpus: _Corpus) -> list:
    """The ball draws, one task per dimension: ``_mc_measures`` of its members at ``_MC_SAMPLES`` draws.

    The members are grouped by ``sets._mc_law``: a ball's law is its
    dimension, and the slabs of a small corpus share law 0, one standard
    normal ``X . e_n``.  The task of law ``k`` draws on the seed
    ``_child_seeds(seed, _STREAM_MC_BALL, k + 1)[k]``, which does not depend
    on the members, so a dimension's chi-square variates are drawn once and
    tested against each of its balls' squared radii.  Each member's estimate
    is still an indicator average over ``_MC_SAMPLES`` iid draws with its own
    standard error.  A task returns them by corpus row, and the suite turns
    them into |error| and ``_MC_SIGMAS`` SE in member order.  Only these
    members become set objects.
    """
    rows = _ball_rows(corpus.batch)
    groups: dict[int, list] = {}
    for row, e in zip(rows, _members(corpus.batch, rows)):
        groups.setdefault(_mc_law(e), []).append((row, e))
    seeds = _child_seeds(config.seed, _STREAM_MC_BALL, max(groups, default=0) + 1).tolist()
    return [partial(_ball_estimates, groups[law], seeds[law]) for law in sorted(groups)]


def _ball_estimates(pairs: list, seed: int) -> dict[int, tuple[float, float]]:
    """One ball task: the estimate and standard error of each ``(row, member)`` pair, by row."""
    rows, members = zip(*pairs)
    return dict(zip(rows, _mc_measures(members, _MC_SAMPLES, seed)))


def _suite_iso(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    floor = np.exp(-0.5 * cols["s"] ** 2)
    equality = int(np.count_nonzero(np.abs(cols["perimeter"] - floor) < _EQUALITY_TOL))
    yield (
        "isoperimetric-lower-bound",
        "P_gamma(E) >= e^{-s^2/2}",
        _margins_le(floor, cols["perimeter"]),
        {"equality_members": equality},
    )


def _suite_barycenter_max(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    equality = int(np.count_nonzero(cols["b_max"] - cols["b_norm"] < _EQUALITY_TOL))
    yield (
        "barycenter-norm-maximality",
        "|b(E)| <= b_s = e^{-s^2/2}/sqrt(2 pi)",
        _margins_le(cols["b_norm"], cols["b_max"]),
        {"equality_members": equality},
    )


def _suite_main(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    c = config.main_constant
    bound = c * (1.0 + cols["s"] ** 2) * cols["deficit"]
    yield (
        "deficit-controls-strong-asymmetry",
        _MAIN_ANCHOR,
        _margins_le(cols["beta"], bound),
        {"main_constant": c},
    )

    eligible = cols["beta"] > 1e-12
    if np.any(eligible):
        ratios = bound[eligible] / cols["beta"][eligible]
        yield (
            "minimum-constant-ratio",
            _MAIN_ANCHOR,
            _margins_le(np.ones_like(ratios), ratios),
            {"main_constant": c, "min_ratio": float(ratios.min())},
        )


def _suite_strong_vs_standard(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    lower = 0.25 * np.exp(0.5 * cols["s"] ** 2) * cols["alpha_hat"] ** 2
    yield (
        "strong-asymmetry-dominates-directed",
        "beta(E) >= (e^{s^2/2}/4) alpha_hat(E)^2",
        _margins_le(lower, cols["beta"]),
        {},
    )


def _suite_alpha_hat_corollary(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    c = config.main_constant
    bound = c * (1.0 + cols["s"] ** 2) * np.exp(-0.5 * cols["s"] ** 2) * cols["deficit"]
    yield (
        "deficit-controls-directed-asymmetry",
        "alpha_hat(E)^2 <= c (1+s^2) e^{-s^2/2} D(E)",
        _margins_le(cols["alpha_hat"] ** 2, bound),
        {"main_constant": c},
    )


def _suite_excess_identity(config: SuiteConfig, corpus: _Corpus):
    cols = corpus.columns
    via = 2.0 * cols["deficit"] + 2.0 * SQRT_2PI * cols["beta"]
    yield (
        "boundary-excess-identity",
        "excess(E) = 2 D(E) + 2 sqrt(2 pi) beta(E)",
        _margins_identity(cols["excess"], via),
        {},
    )


# ---------------------------------------------------------------------------
# grid suites (corpus-independent)

#: The slab gain's and the stationarity suite's levels; the slab competitors take the first five.
_STATION_LEVELS = (0.0, -0.5, -1.0, -2.0, -3.0, -5.0)

#: The slab competitors' removed mass, as fractions of the smaller side's, and
#: the dimensions of the slabs whose transverse barycenter is drawn.
_SLAB_FRACTIONS = (0.002, 0.01, 0.05, 0.2, 0.5)
_SLAB_DIMS = (2, 3, 4, 5)


def _slab_gain(s: float, t: np.ndarray) -> np.ndarray:
    """Gain of widening the matched slab: nonnegative for every t >= 0, s <= 0."""
    delta = gauss_cdf(s) - _gauss_cdf_many(s - t)
    linear = gauss_weight(s) - np.exp(-0.5 * (s - t) ** 2) + SQRT_2PI * s * delta
    return linear - 0.5 * math.exp(0.5 * s * s) * (SQRT_2PI * delta) ** 2


def _slab_draws(config: SuiteConfig) -> tuple[list[float], list[float]]:
    """Monte Carlo transverse barycenter of a random slab per ``_SLAB_DIMS``: |mean| and ``_MC_SIGMAS`` SE per axis.

    Gauss space is a product measure, so the slabs share one stream, as the
    balls of one dimension do: the profile column ``x``, which each slab
    tests against its own profile, then one transverse column per axis.
    Each row still has ``_MC_SAMPLES`` iid draws and its own standard error;
    the rows come slab by slab, then axis by axis.  ``run_suite`` submits
    this one task before the corpus is built, since it needs none.
    """
    profiles = _child_unions(config.seed, _STREAM_MC_SLAB_PROFILE, len(_SLAB_DIMS), (1, 3))
    rng = np.random.default_rng([config.seed, _STREAM_MC_SLAB])
    x = rng.standard_normal(_MC_SAMPLES)
    insides = [_in_intervals(x, profile.intervals) for profile in profiles]
    del x
    # one column at a time, times one slab's membership at a time, bounds the memory
    rows = {}
    for axis in range(max(_SLAB_DIMS) - 1):
        column = rng.standard_normal(_MC_SAMPLES)
        for i, (dim, inside) in enumerate(zip(_SLAB_DIMS, insides)):
            if axis < dim - 1:
                vals = column * inside
                rows[i, axis] = abs(float(vals.mean())), _MC_SIGMAS * float(vals.std()) / math.sqrt(_MC_SAMPLES)
    diffs, bounds = zip(*(rows[key] for key in sorted(rows)))
    return list(diffs), list(bounds)


def _suite_scalar_functions(config: SuiteConfig, slab_draws: _Draws):
    s_deep = np.linspace(-40.0, 0.0, 4001)
    weight = np.exp(-0.5 * s_deep**2)
    phi = _gauss_cdf_many(s_deep)
    g = weight + (SQRT_2PI * s_deep - math.pi) * phi
    yield (
        "mass-gap-function-nonpositive",
        "e^{-s^2/2} + (sqrt(2 pi) s - pi) Phi(s) <= 0 for s <= 0",
        _margins_le(g, np.zeros_like(g)),
        {"grid": _text(s_deep)},
    )

    log_lam = 0.5 * math.log(2.0) - 0.5 * s_deep**2 - _elementwise(log_gauss_cdf, s_deep)
    lam = np.exp(log_lam)
    yield (
        "penalty-weight-square-bound",
        "Lambda^2 + 1 <= (9/2) pi^2 (1+s^2)",
        _margins_le(lam**2 + 1.0, 4.5 * math.pi**2 * (1.0 + s_deep**2)),
        {"grid": _text(s_deep)},
    )

    yield (
        "weight-dominates-twice-mass",
        "e^{-s^2/2} >= 2 Phi(s) for s <= 0",
        _margins_le(2.0 * phi, weight),
        {"grid": _text(s_deep)},
    )

    t_grid = np.linspace(0.0, 40.0, 801)
    gain_margins = [_margins_le(np.zeros_like(t_grid), _slab_gain(s, t_grid)) for s in _STATION_LEVELS]
    yield (
        "slab-widening-gain-nonnegative",
        "int_{s-t}^{s} (s-x) e^{-x^2/2} dx >= (e^{s^2/2}/2) (int_{s-t}^{s} e^{-x^2/2} dx)^2",
        np.concatenate(gain_margins),
        {"levels": _text(_STATION_LEVELS), "t_grid": _text(t_grid)},
    )

    lowers = []
    competitors = []
    levels = _STATION_LEVELS[:5]
    for s in levels:
        mass = gauss_cdf(s)
        for fraction in _SLAB_FRACTIONS:
            m = fraction * min(mass, 1.0 - mass)
            below = gauss_cdf_inv(mass - m)
            above = gauss_cdf_inv(mass + m)
            competitors.append(IntervalUnion1D(intervals=((-math.inf, below), (s, above))))
            lowers.append(math.sqrt(math.pi / 2.0) * math.exp(0.5 * s * s) * m * m)
    cols = quantity_columns(competitors)
    # the construction keeps the barycenter on the negative side, so the
    # strong asymmetry equals the moment gap the bound controls
    if np.any(cols["b"] > 0.0):
        worst = competitors[int(np.argmax(cols["b"]))]
        raise RuntimeError(f"slab competitor {worst.intervals} has positive barycenter")
    yield (
        "slab-competitor-asymmetry-bound",
        "beta(F) >= sqrt(pi/2) e^{s^2/2} gamma(E minus H)^2",
        _margins_le(lowers, cols["beta"]),
        {"levels": _text(levels), "mass_fractions": _text(_SLAB_FRACTIONS)},
    )

    ((diffs, bounds),) = slab_draws.result()
    yield (
        "slab-transverse-barycenter-vanishes",
        "b(E).e_j = 0 for every axis transverse to a slab",
        _margins_le(diffs, bounds),
        {"oracle": f"Monte Carlo moment within {_text(_MC_SIGMAS)} standard errors", "dims": _text(_SLAB_DIMS)},
    )

    product = np.exp(-np.log(40.0 * math.pi**2 * (1.0 + s_deep**2)) - math.log(SQRT_2PI))
    yield (
        "penalty-times-barycenter-small",
        "eps |b| <= eps b_s <= 1/4",
        _margins_le(product, np.full_like(product, 0.25)),
        {"grid": _text(s_deep)},
    )

    s_mid = np.linspace(-5.0, 0.0, 501)
    values = np.array(
        [penalized_functional(half_line_set(s), stability_params(s)) for s in s_mid]
    )
    yield (
        "half-line-objective-bound",
        "F(H_s) <= (10/9) e^{-s^2/2}",
        _margins_le(values, (10.0 / 9.0) * np.exp(-0.5 * s_mid**2)),
        {"grid": _text(s_mid)},
    )


# ---------------------------------------------------------------------------
# stationarity suite (structured families)

_J_ANCHOR = (
    "J[phi] = sum_i (-1 + (eps/sqrt(2 pi)) b nu_i) phi_i^2 w_i "
    "+ (eps/(2 pi)) (sum_i phi_i x_i w_i)^2 on zero-average phi"
)


def _suite_stationarity(config: SuiteConfig):
    devs = []
    levels = _STATION_LEVELS + (-10.0,)
    for s in levels:
        report = euler_residual(two_ray_set(s), stability_params(s))
        devs.append(report.max_dev)
    yield (
        "two-ray-criticality",
        "-(x.nu) + (eps/sqrt(2 pi)) (b.x) = lambda on the boundary",
        _margins_le(devs, np.full(len(devs), 1e-10)),
        {"levels": _text(levels)},
    )

    min_eigs = []
    witness_margins = []
    for s in _STATION_LEVELS:
        params = stability_params(s)
        e = two_ray_set(s)
        form = second_variation_form(e, params)
        min_eig, witness = psd_on_zero_average(form)
        min_eigs.append(min_eig)
        norm_sq = float(np.dot(witness, witness))
        witness_margins.append(
            _margins_identity(form.value(witness), min_eig * norm_sq)
        )
        witness_margins.append(
            _margins_identity(float(np.dot(witness, form.constraint)), 0.0)
        )
    yield (
        "two-ray-negative-mode",
        _J_ANCHOR + " attains negative values at the stability eps",
        _margins_le(min_eigs, np.full(len(min_eigs), -1e-8)),
        {"levels": _text(_STATION_LEVELS)},
    )

    yield "negative-mode-witness-consistency", _J_ANCHOR, np.array(witness_margins), {}

    a0 = two_ray_endpoint(0.0)
    hand_threshold = math.pi / (a0 * a0 * gauss_weight(a0))
    lo_eps, hi_eps = 6.0, 12.0
    e0 = two_ray_set(0.0)
    base = stability_params(0.0)
    for _ in range(60):
        mid = 0.5 * (lo_eps + hi_eps)
        probe = FunctionalParams(s=0.0, eps=mid, lambda_pen=base.lambda_pen)
        min_eig, _ = psd_on_zero_average(second_variation_form(e0, probe))
        if min_eig < 0.0:
            lo_eps = mid
        else:
            hi_eps = mid
    solver_threshold = 0.5 * (lo_eps + hi_eps)
    yield (
        "instability-threshold-level-zero",
        _J_ANCHOR + " changes sign in eps at pi/(a^2 w)",
        _margins_identity(solver_threshold, hand_threshold, rel=1e-9),
        {"hand_threshold": hand_threshold, "solver_threshold": solver_threshold},
    )

    lam_abs = []
    lam_bounds = []
    levels = _STATION_LEVELS + (-10.0, -20.0)
    for s in levels:
        params = stability_params(s)
        report = euler_residual(half_line_set(s), params)
        lam_abs.append(abs(report.lambda_fit))
        lam_bounds.append(params.lambda_pen)
    yield (
        "half-line-multiplier-bound",
        "|lambda| <= Lambda",
        _margins_le(lam_abs, lam_bounds),
        {"levels": _text(levels)},
    )

    moments = []
    bounds = []
    for s in _STATION_LEVELS:
        for e in (two_ray_set(s), half_line_set(s)):
            x, _, w = boundary_points(e)
            moments.append(float(np.sum(x * x * w)))
            bounds.append(20.0 * math.pi**2 * (1.0 + s * s) * math.exp(-0.5 * s * s))
    yield (
        "boundary-second-moment-bound",
        "int over the boundary of (x.omega)^2 dH_gamma <= 20 pi^2 (1+s^2) e^{-s^2/2}",
        _margins_le(moments, bounds),
        {"levels": _text(_STATION_LEVELS), "families": "two-ray and half-line"},
    )


# ---------------------------------------------------------------------------
# registry, dispatch and emission

#: Every suite in report order: its row generator, whether it reads the
#: corpus, and the tasks of the Monte Carlo draws it collects, if any, as a
#: function of its inputs.
_SUITES = {
    "measure-oracle": (_suite_measure_oracle, True, _ball_draws),
    "iso": (_suite_iso, True, None),
    "barycenter-max": (_suite_barycenter_max, True, None),
    "main": (_suite_main, True, None),
    "strong-vs-standard": (_suite_strong_vs_standard, True, None),
    "alpha-hat-corollary": (_suite_alpha_hat_corollary, True, None),
    "excess-identity": (_suite_excess_identity, True, None),
    "scalar-functions": (_suite_scalar_functions, False, lambda config: [partial(_slab_draws, config)]),
    "stationarity": (_suite_stationarity, False, None),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, config: SuiteConfig = SuiteConfig()) -> VerificationReport:
    """Run one named suite (or ``all``) and return its report.

    The selected suites' Monte Carlo draws are tasks on one worker thread,
    which runs them in the order they are submitted.  Draws that need no
    corpus (``scalar-functions``' one slab task, a stream its four slabs
    share) are submitted before the corpus is built, so the worker starts at
    once; the ball draws of ``measure-oracle``, one task per dimension,
    follow once the batch exists and overlap the quadrature oracle.  A suite
    collects its draws where it yields their row: the main thread runs the
    tasks the worker has not started, from the last back, waits for the one
    in flight, and re-raises a task's exception there.  Only selected suites
    submit draws, so a suite without any starts no thread.  On return or on
    an exception the pending tasks are cancelled and the worker is joined.

    Each check's ``wall_time`` runs from resuming its suite's generator to
    the end of its record, so it covers that check's own work only,
    including the tasks the main thread ran for it; the row that collects
    draws counts the durations of the tasks the worker ran in place of the
    time it waited for them.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES + ('all',))}"
        )
    # imported here, since concurrent.futures adds about 6 ms to start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            checks = _run_checks(SUITE_NAMES if name == "all" else (name,), config, worker)
        except BaseException:
            # no row will collect the tasks still queued; the with block joins the worker
            worker.shutdown(cancel_futures=True)
            raise
    return VerificationReport(suite=name, checks=tuple(checks))


def _run_checks(names: tuple[str, ...], config: SuiteConfig, worker) -> list[CheckRecord]:
    selected = {n: _SUITES[n] for n in names}
    # draws that need no corpus are submitted first, so the worker is busy while it is built
    jobs = {
        n: _Draws(worker, draws(config))
        for n, (_, reads_corpus, draws) in selected.items()
        if draws and not reads_corpus
    }
    # the corpus is built before any check's timer starts
    corpus = _build_corpus(config) if any(s[1] for s in selected.values()) else None
    suites = []
    for suite_name, (suite, reads_corpus, draws) in selected.items():
        inputs = (config, corpus) if reads_corpus else (config,)
        if draws and reads_corpus:
            jobs[suite_name] = _Draws(worker, draws(*inputs))
        job = jobs.get(suite_name)
        suites.append((suite(*inputs, job) if job else suite(*inputs), job))
    checks: list[CheckRecord] = []
    for rows, job in suites:
        started = time.perf_counter()
        for check, anchor, margins, params in rows:
            margins = np.asarray(margins, dtype=float).ravel()
            if margins.size == 0:
                raise ValueError(f"check {check} evaluated no samples")
            checks.append(
                CheckRecord(
                    name=check,
                    anchor=anchor,
                    samples=int(margins.size),
                    violations=int(np.count_nonzero(margins < 0.0)),
                    worst_margin=float(margins.min()),
                    params=params,
                    seed=config.seed,
                    wall_time=time.perf_counter() - started + (job.charge() if job else 0.0),
                )
            )
            # the next check's time starts as the for loop resumes the suite
            started = time.perf_counter()
    return checks


def format_number(x) -> str:
    """A bool, int or finite float as report text: floats with 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"JSON has no number for the non-finite {x!r}")
    return format(x, ".17g")


def json_value(value) -> str:
    """Deterministic JSON text with numbers as in format_number.

    Dict keys are sorted; a dataclass instance keeps its fields in
    declaration order.
    """
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, int, np.integer, float)):
        return format_number(value)
    if is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(
            f"{json.dumps(f.name)}: {json_value(getattr(value, f.name))}" for f in fields(value)
        )
        return "{" + inner + "}"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {json_value(value[k])}" for k in sorted(value)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(json_value(v) for v in value) + "]"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_report(report: VerificationReport, format: str = "json") -> str:
    """Serialize the report as JSON or CSV text with 17-significant-digit numbers."""
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if format == "json":
        return json_value(report) + "\n"
    lines = ["name,anchor,samples,violations,worst_margin,seed,wall_time"]
    for c in report.checks:
        if "," in c.name or "," in c.anchor:
            raise ValueError(f"comma in check name or anchor breaks the CSV layout: {c.name!r}")
        lines.append(
            f"{c.name},{c.anchor},{c.samples},{c.violations},"
            f"{format_number(c.worst_margin)},{c.seed},{format_number(c.wall_time)}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, path: str, format: str = "json") -> None:
    """Write the report to ``path`` as JSON or CSV with 17-significant-digit numbers."""
    body = render_report(report, format)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
