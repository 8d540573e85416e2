"""The benchmark's three workloads.

Each workload builds its inputs from the run seed alone, runs untraced
iterations through the program's command-line entry point or public API, and
checks every output it gets back.  Its traced replay calls the same layers
one public function at a time, inside spans, and returns that workload's
per-layer metrics.  Only the CLI and public names the package keeps are used,
so the package can be rewritten underneath without editing this file.

- ``verify-corpus``: ``gaussiso verify --suite all`` over a seeded corpus,
  the batched throughput path (corpus, quantities, quadrature oracle, Monte
  Carlo, report).
- ``minimize-levels``: ``gaussiso minimize`` at four mass levels, where the
  same set layers run one small set at a time inside an optimizer loop.
- ``stationarity-probe``: the stationarity layer on random interval unions,
  small dense linear algebra per set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from gaussiso import (
    CenteredBall,
    CheckRecord,
    HalfSpace,
    IntervalUnion1D,
    OptimizerSettings,
    SlabSet,
    SuiteConfig,
    VerificationReport,
    barycenter,
    euler_residual,
    mass_level,
    mc_measure,
    measure,
    minimize_penalized_functional,
    mixed_corpus,
    penalized_functional,
    perimeter,
    psd_on_zero_average,
    quantities,
    render_report,
    run_suite,
    second_derivative_along_flow,
    second_variation_form,
    set_from_dict,
    stability_params,
    symm_diff_measure,
)
from gaussiso.cli import cli_main
from gaussiso.quadrature import QuadSettings, adaptive_quad
from gaussiso.special import gauss_cdf, gauss_cdf_inv, gauss_density

#: Corpus members of one ``verify-corpus`` iteration.
CORPUS_SIZE = 10_000

#: The mass levels the minimizer's acceptance test covers.  Each level runs
#: three times, each call with its own optimizer seed and one random start per
#: template of up to three components (11 templates).  The optimizer's work
#: differs from start to start; over run seeds 601-615, the objective
#: evaluations of one iteration spread (IQR/median) 0.033 with twelve distinct
#: optimizer seeds, against 0.073 when the four levels shared three seeds.
MINIMIZE_LEVELS = (0.0, -0.5, -1.0, -2.0)
MINIMIZE_STARTS = 11
MINIMIZE_CALLS_PER_LEVEL = 3

#: Interval unions of one ``stationarity-probe`` iteration.
PROBE_SETS = 2000

#: Settings of the measure-oracle check in ``verify``.
ORACLE_SETTINGS = QuadSettings(abs_tol=1e-13, rel_tol=1e-13, max_depth=60)

#: ``verify`` compares the first 20 high-dimensional members with Monte Carlo
#: at 200k samples each.
MC_MEMBERS = 20
MC_SAMPLES = 200_000

#: One-dimensional sets per workload on which the shared layer calls are timed.
LAYER_SAMPLE = 2000

#: Ball members on which the quadrature-backed symmetric difference is timed;
#: one call costs about 10 ms.
SYMM_DIFF_BALLS = 20

#: Repeats of the loops over endpoints that time the special functions.
SPECIAL_REPEATS = 5

#: Relative tolerance of the witness identities of the stationarity probe.
WITNESS_TOL = 1e-9

#: Tolerances of the minimize gate.
ENDPOINT_TOL = 1e-6
VALUE_REL_TOL = 1e-9

_STREAM_MINIMIZE = 1
_STREAM_PROBE = 2
_STREAM_SAMPLE = 3
_STREAM_MC = 11

#: Failures written to stderr per run before the rest are only counted.
_MAX_REPORTED = 5


def child_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def draw_unions(seed: int, stream: int, n: int) -> list[tuple[tuple[float, float], ...]]:
    """``n`` random interval unions as tuples of (lo, hi) pairs.

    Each has 1-3 components, a left ray with probability 1/2 when it has at
    least two (so every set keeps two finite boundary points), finite
    endpoints in [-5, 5] at least 1e-2 apart, and Gaussian measure in
    (0.01, 0.99).  The draw uses NumPy and SciPy alone, so no change to the
    package can change the inputs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    out = []
    while len(out) < n:
        k = int(rng.integers(1, 4))
        left_ray = k > 1 and bool(rng.random() < 0.5)
        points = np.sort(rng.normal(0.0, 1.5, size=2 * k - left_ray))
        if np.abs(points).max() > 5.0 or np.any(np.diff(points) < 1e-2):
            continue
        bounds = np.concatenate(([-np.inf], points)) if left_ray else points
        lo, hi = bounds[0::2], bounds[1::2]
        if not 0.01 < float(np.sum(ndtr(hi) - ndtr(lo))) < 0.99:
            continue
        out.append(tuple(zip(lo.tolist(), hi.tolist())))
    return out


class Failures:
    """Writes the first few failures of a run to stderr."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.count = 0

    def report(self, message: str) -> None:
        self.count += 1
        if self.count <= _MAX_REPORTED:
            sys.stderr.write(f"{self.workload}: fail: {message}\n")


def _median_us(tracer, name: str) -> float:
    return statistics.median(tracer.durations_ns(name)) / 1e3


def probe_one_dim(tracer, sample: list[IntervalUnion1D]) -> dict[str, float]:
    """Time the special functions and the 1-D set layers on ``sample``."""
    points = [x for e in sample for x in e.finite_endpoints]
    probabilities = [gauss_cdf(x) for x in points]
    for _ in range(SPECIAL_REPEATS):
        with tracer.span("special.gauss_cdf"):
            for x in points:
                gauss_cdf(x)
        with tracer.span("special.gauss_cdf_inv"):
            for p in probabilities:
                gauss_cdf_inv(p)
    params = [stability_params(mass_level(e)) for e in sample]
    for fn in (measure, perimeter, barycenter):
        for e in sample:
            tracer.call(f"sets.{fn.__name__}", fn, e)
    for e, p in zip(sample, params):
        tracer.call("functionals.penalized_functional", penalized_functional, e, p)
    return {
        "special.gauss_cdf.ns": statistics.median(tracer.durations_ns("special.gauss_cdf")) / len(points),
        "special.gauss_cdf_inv.ns": statistics.median(tracer.durations_ns("special.gauss_cdf_inv")) / len(points),
        "sets.measure.us": _median_us(tracer, "sets.measure"),
        "sets.perimeter.us": _median_us(tracer, "sets.perimeter"),
        "sets.barycenter.us": _median_us(tracer, "sets.barycenter"),
        "functionals.penalized_functional.us": _median_us(tracer, "functionals.penalized_functional"),
    }


# ---------------------------------------------------------------------------
# verify-corpus


def _scrubbed_digest(check: dict) -> str:
    kept = {k: v for k, v in check.items() if k != "wall_time"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


class VerifyCorpus:
    """``gaussiso verify --suite all --samples N --seed S --out FILE``.

    A check fails when it has violations, or when its record with
    ``wall_time`` scrubbed differs from the first iteration's.
    """

    name = "verify-corpus"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.report_path = out_dir / f"verify-corpus-{seed}-{os.getpid()}.json"
        self.argv = ["verify", "--suite", "all", "--samples", str(CORPUS_SIZE), "--seed", str(seed)]
        self.failures = Failures(self.name)
        self.report_text = ""
        self._first: list[str] | None = None
        self._corpus = ()

    def fingerprint(self) -> str:
        return " ".join(self.argv)

    def iteration(self, index: int) -> tuple[list[float], list[bool]]:
        """One timed unit: the CLI call."""
        self.report_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli_main(self.argv + ["--out", str(self.report_path)])
            elapsed = [time.perf_counter() - started]
        expected = len(self._first) if self._first else 1
        if code not in (0, 1) or not self.report_path.exists():
            self.failures.report(f"iteration {index} exited with code {code}")
            return elapsed, [False] * expected
        self.report_text = self.report_path.read_text(encoding="utf-8")
        checks = json.loads(self.report_text)["checks"]
        digests = [_scrubbed_digest(c) for c in checks]
        if self._first is None:
            self._first = digests
        if len(digests) != len(self._first):
            self.failures.report(f"iteration {index} has {len(digests)} checks, not {len(self._first)}")
            return elapsed, [False] * max(len(digests), len(self._first))
        ok = []
        for check, digest, first in zip(checks, digests, self._first):
            good = check["violations"] == 0 and digest == first and code == 0
            if not good:
                self.failures.report(f"check {check['name']} at iteration {index} (exit code {code})")
            ok.append(good)
        return elapsed, ok

    def replay(self, tracer) -> tuple[dict[str, float], list[bool]]:
        """The CLI's layer order, one public call at a time."""
        n, seed = CORPUS_SIZE, self.seed
        with tracer.span("corpus.mixed_corpus") as index:
            corpus = mixed_corpus(n, seed)
        self._corpus = corpus
        metrics = {
            "corpus.mixed_corpus.us_per_set": tracer.duration_ns(index) / 1e3 / len(corpus),
            "corpus.mixed_corpus.sets": len(corpus),
        }
        # the corpus is ordered by kind, so grouping keeps the CLI's order
        kinds = {"intervals": IntervalUnion1D, "ball": CenteredBall, "slab": SlabSet}
        for kind, cls in kinds.items():
            members = [e for e in corpus if isinstance(e, cls)]
            with tracer.span(f"functionals.quantities.{kind}") as index:
                for e in members:
                    quantities(e)
            metrics[f"functionals.quantities.us_per_set.{kind}"] = (
                tracer.duration_ns(index) / 1e3 / max(1, len(members))
            )

        intervals = [iv for e in corpus if isinstance(e, IntervalUnion1D) for iv in e.intervals]
        with tracer.span("quadrature.adaptive_quad") as index:
            results = [adaptive_quad(gauss_density, lo, hi, settings=ORACLE_SETTINGS) for lo, hi in intervals]
        metrics["quadrature.adaptive_quad.us_per_interval"] = tracer.duration_ns(index) / 1e3 / len(intervals)
        metrics["quadrature.adaptive_quad.evals_per_interval"] = sum(r.evals for r in results) / len(intervals)
        metrics["quadrature.intervals"] = len(intervals)
        metrics["quadrature.nonconverged"] = sum(1 for r in results if not r.converged)

        high_dim = [e for e in corpus if isinstance(e, (CenteredBall, SlabSet))][:MC_MEMBERS]
        with tracer.span("sets.mc_measure") as index:
            estimates = [
                mc_measure(e, n_samples=MC_SAMPLES, seed=child_seed(seed, _STREAM_MC, i))
                for i, e in enumerate(high_dim)
            ]
        metrics["sets.mc_measure.s"] = tracer.duration_ns(index) / 1e9

        config = SuiteConfig(samples=n, seed=seed)
        ok = []
        for suite in ("scalar-functions", "stationarity"):
            with tracer.span(f"verify.run_suite.{suite}") as index:
                report = run_suite(suite, config)
            metrics[f"verify.run_suite.{suite}.s"] = tracer.duration_ns(index) / 1e9
            ok += [c.violations == 0 for c in report.checks]

        # render the CLI's last report again from its parsed records; the
        # 17-digit serializer must reproduce the file byte for byte
        parsed = json.loads(self.report_text)
        full = VerificationReport(
            suite=parsed["suite"], checks=tuple(CheckRecord(**c) for c in parsed["checks"])
        )
        with tracer.span("verify.render_report") as index:
            text = render_report(full, "json")
        metrics["verify.render_report.ms"] = tracer.duration_ns(index) / 1e6
        metrics["verify.checks"] = len(full.checks)
        metrics["verify.violations"] = full.total_violations

        ok.append(text == self.report_text)
        if text != self.report_text:
            self.failures.report("render_report does not reproduce the CLI report")
        for e, (est, err) in zip(high_dim, estimates):
            ok.append(abs(measure(e) - est) <= 6.0 * err)
        return metrics, ok

    def probe(self, tracer) -> dict[str, float]:
        sample = [e for e in self._corpus if isinstance(e, IntervalUnion1D)][:LAYER_SAMPLE]
        metrics = probe_one_dim(tracer, sample)
        for ball in [e for e in self._corpus if isinstance(e, CenteredBall)][:SYMM_DIFF_BALLS]:
            axis = HalfSpace(omega=(1.0,) + (0.0,) * (ball.dim - 1), s=mass_level(ball))
            tracer.call("sets.symm_diff_measure.ball", symm_diff_measure, ball, axis)
        metrics["sets.symm_diff_measure.us.ball"] = _median_us(tracer, "sets.symm_diff_measure.ball")
        return metrics

    def close(self) -> None:
        self.report_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# minimize-levels


def half_line_ok(s: float, eps: float, best_set, best_value: float, optimal: bool) -> bool:
    """The minimizer returned a half-line at level ``s`` with its exact value.

    Either ray qualifies: (-inf, x) has level x and (x, inf) has level -x, and
    both orientations minimize (at s = 0 they tie exactly).  The value is
    F(H_s) = e^{-s^2/2} + (eps/2) |b|^2 with |b| = e^{-s^2/2} / sqrt(2 pi).
    """
    if not (optimal and isinstance(best_set, IntervalUnion1D) and len(best_set.intervals) == 1):
        return False
    lo, hi = best_set.intervals[0]
    if math.isinf(lo) == math.isinf(hi):
        return False
    level = hi if math.isinf(lo) else -lo
    expected = math.exp(-0.5 * s * s) + eps / (4.0 * math.pi) * math.exp(-s * s)
    return abs(level - s) <= ENDPOINT_TOL and abs(best_value - expected) <= VALUE_REL_TOL * expected


class MinimizeLevels:
    """``gaussiso minimize --s=S --kmax 3 --starts 11 --seed X``, three calls per level.

    Each call's optimizer seed X is drawn from the run seed, so every
    iteration, and the traced replay, runs the same start sets.
    """

    name = "minimize-levels"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.calls = [
            (s, child_seed(seed, _STREAM_MINIMIZE, i * MINIMIZE_CALLS_PER_LEVEL + j))
            for i, s in enumerate(MINIMIZE_LEVELS)
            for j in range(MINIMIZE_CALLS_PER_LEVEL)
        ]
        self.argvs = [
            ["minimize", f"--s={s}", "--kmax", "3", "--starts", str(MINIMIZE_STARTS), "--seed", str(x)]
            for s, x in self.calls
        ]
        self.failures = Failures(self.name)
        self.sample = [
            IntervalUnion1D(intervals=iv) for iv in draw_unions(seed, _STREAM_SAMPLE, LAYER_SAMPLE)
        ]
        self._minimize_ns = 0
        self._evaluations = 0

    def fingerprint(self) -> str:
        return json.dumps([self.argvs, [e.intervals for e in self.sample]])

    def iteration(self, index: int) -> tuple[list[float], list[bool]]:
        """One timed unit per CLI call."""
        sinks = [io.StringIO() for _ in self.argvs]
        codes = []
        elapsed = []
        for argv, sink in zip(self.argvs, sinks):
            with contextlib.redirect_stdout(sink):
                started = time.perf_counter()
                codes.append(cli_main(argv))
                elapsed.append(time.perf_counter() - started)
        ok = []
        for (s, _), code, sink in zip(self.calls, codes, sinks):
            good = False
            if code == 0:
                out = json.loads(sink.getvalue())
                good = half_line_ok(s, out["eps"], set_from_dict(out["best_set"]),
                                    out["best_value"], out["half_line_optimal"])
            if not good:
                self.failures.report(f"level {s} at iteration {index} (exit code {code})")
            ok.append(good)
        return elapsed, ok

    def replay(self, tracer) -> tuple[dict[str, float], list[bool]]:
        ok = []
        starts = []
        for s, x in self.calls:
            settings = OptimizerSettings(multistarts=MINIMIZE_STARTS, seed=x)
            params = tracer.call("functionals.stability_params", stability_params, s)
            with tracer.span("optimize.minimize_penalized_functional") as index:
                outcome = minimize_penalized_functional(s, params, k_max=3, settings=settings)
            self._minimize_ns += tracer.duration_ns(index)
            starts += outcome.starts
            good = half_line_ok(s, params.eps, outcome.best_set, outcome.best_value,
                                outcome.half_line_optimal)
            if not good:
                self.failures.report(f"replayed level {s}")
            ok.append(good)
        self._evaluations = sum(d.evaluations for d in starts)
        metrics = {
            "optimize.starts": len(starts),
            "optimize.evaluations": self._evaluations,
            "optimize.converged_ratio": sum(1 for d in starts if d.converged) / len(starts),
            "optimize.us_per_eval": self._minimize_ns / 1e3 / self._evaluations,
        }
        return metrics, ok

    def probe(self, tracer) -> dict[str, float]:
        metrics = probe_one_dim(tracer, self.sample)
        objective_us = self._evaluations * metrics["functionals.penalized_functional.us"]
        metrics["optimize.objective_share"] = objective_us / (self._minimize_ns / 1e3)
        return metrics

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# stationarity-probe


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _probe_set(e: IntervalUnion1D, call):
    """The stationarity calls on one set; returns (form, lambda_min, witness, flow_rejected)."""
    s = call("sets.mass_level", mass_level, e)
    params = call("functionals.stability_params", stability_params, s)
    call("stationarity.euler_residual", euler_residual, e, params)
    form = call("stationarity.second_variation_form", second_variation_form, e, params)
    lam, witness = call("stationarity.psd_on_zero_average", psd_on_zero_average, form)
    try:
        call("stationarity.second_derivative_along_flow", second_derivative_along_flow, e, params, witness)
    except ValueError:
        return form, lam, witness, True
    return form, lam, witness, False


class StationarityProbe:
    """The stationarity layer on random interval unions drawn from the seed.

    A set fails when a call raises (a flow rejection included), or when the
    witness w breaks w.M.w = lambda_min or w.constraint = 0.
    """

    name = "stationarity-probe"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.failures = Failures(self.name)
        self.sets = [IntervalUnion1D(intervals=iv) for iv in draw_unions(seed, _STREAM_PROBE, PROBE_SETS)]

    def fingerprint(self) -> str:
        return json.dumps([e.intervals for e in self.sets])

    def _run(self, call) -> tuple[list, list[float]]:
        """The calls on every set; returns the results and each set's wall time."""
        results = []
        walls = []
        for e in self.sets:
            started = time.perf_counter()
            try:
                results.append(_probe_set(e, call))
            except Exception as exc:  # a raising call fails this set; the run goes on
                self.failures.report(f"{e.intervals}: {type(exc).__name__}: {exc}")
                results.append(None)
            walls.append(time.perf_counter() - started)
        return results, walls

    def _check(self, e: IntervalUnion1D, result) -> bool:
        if result is None:
            return False
        form, lam, witness, rejected = result
        if rejected:
            self.failures.report(f"{e.intervals}: the flow rejected the witness")
            return False
        good = (
            abs(form.value(witness) - lam) <= WITNESS_TOL * max(1.0, abs(lam))
            and abs(float(witness @ form.constraint)) <= WITNESS_TOL * max(1.0, float(np.linalg.norm(form.constraint)))
        )
        if not good:
            self.failures.report(f"{e.intervals}: witness identities broken")
        return good

    def iteration(self, index: int) -> tuple[list[float], list[bool]]:
        """One timed unit per set: its stationarity calls."""
        results, walls = self._run(_direct)
        return walls, [self._check(e, r) for e, r in zip(self.sets, results)]

    def replay(self, tracer) -> tuple[dict[str, float], list[bool]]:
        results, _ = self._run(tracer.call)
        metrics = {
            f"stationarity.{name}.us": _median_us(tracer, f"stationarity.{name}")
            for name in ("euler_residual", "second_variation_form", "psd_on_zero_average",
                         "second_derivative_along_flow")
        }
        metrics["stationarity.flow_rejected"] = sum(1 for r in results if r is not None and r[3])
        return metrics, [self._check(e, r) for e, r in zip(self.sets, results)]

    def probe(self, tracer) -> dict[str, float]:
        return probe_one_dim(tracer, self.sets[:LAYER_SAMPLE])

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (VerifyCorpus, MinimizeLevels, StationarityProbe)}
