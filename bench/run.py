"""Benchmark of the gaussiso package, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py``.  A run builds its inputs from
``--seed``, runs one untimed warm-up iteration, then times iterations for
``--seconds`` seconds.  Every iteration's outputs are checked; the result
counts the checked operations (``attempted``) and those that failed.

``--trace 0`` prints the end-to-end metrics: the median wall time of one
iteration, the median set-up time of fresh interpreters, the peak RSS of the
run's own process after its warm-up iteration (a fresh process that has run
one iteration), and the share of operations that passed.  Both times are
scaled to the host's speed: before and after each iteration and each set-up
interpreter, the run times passes of a fixed reference mix of Python, small
dense linear algebra and vector arithmetic that never calls the package.
Each time is multiplied by ``REFERENCE_S / median reference pass`` of the
passes around it, and the metric is the median of the scaled times: seconds
on a host where one pass takes ``REFERENCE_S``.  Other tenants of a shared
host slow the package and the reference alike for seconds to minutes at a
time, so the scaled time cancels much of that drift.  The raw medians and
quartiles are printed in the detail line.
``--trace 1`` also times untraced iterations, then replays the workload's
layers one public call at a time inside spans, times the shared 1-D layer
calls on a sample of the workload's sets, and prints the per-layer metrics.
A layer metric that the workload does not exercise reads 0.  The spans are
written to ``bench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result as one JSON object; the two
lines before it hold the machine and environment, and each end-to-end
metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "corpus.mixed_corpus.us_per_set": "us/set",
    "corpus.mixed_corpus.sets": "count",
    "functionals.quantities.us_per_set.intervals": "us/set",
    "functionals.quantities.us_per_set.ball": "us/set",
    "functionals.quantities.us_per_set.slab": "us/set",
    "functionals.penalized_functional.us": "us",
    "sets.measure.us": "us",
    "sets.perimeter.us": "us",
    "sets.barycenter.us": "us",
    "sets.symm_diff_measure.us.ball": "us",
    "sets.mc_measure.s": "s",
    "special.gauss_cdf.ns": "ns",
    "special.gauss_cdf_inv.ns": "ns",
    "quadrature.adaptive_quad.us_per_interval": "us/interval",
    "quadrature.adaptive_quad.evals_per_interval": "evals/interval",
    "quadrature.intervals": "count",
    "quadrature.nonconverged": "count",
    "optimize.starts": "count",
    "optimize.evaluations": "count",
    "optimize.converged_ratio": "ratio",
    "optimize.us_per_eval": "us/eval",
    "optimize.objective_share": "ratio",
    "stationarity.euler_residual.us": "us",
    "stationarity.second_variation_form.us": "us",
    "stationarity.psd_on_zero_average.us": "us",
    "stationarity.second_derivative_along_flow.us": "us",
    "stationarity.flow_rejected": "count",
    "verify.run_suite.scalar-functions.s": "s",
    "verify.run_suite.stationarity.s": "s",
    "verify.render_report.ms": "ms",
    "verify.checks": "count",
    "verify.violations": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: Timed fresh-interpreter set-ups per run, after one untimed one that also
#: fills the bytecode cache.
SETUP_RUNS = 5

#: Typical median time of one reference mix on a 2-vCPU Xeon host.  Reported
#: times are in seconds on a host of that speed.
REFERENCE_S = 0.015

#: Reference passes run between two iterations, as a share of the iteration's
#: time, and between two set-up interpreters, as a share of the set-up's
#: time.  Set-ups are short, so they take a larger share to get enough passes.
ITERATION_REFERENCE_SHARE = 0.1
SETUP_REFERENCE_SHARE = 0.4
SETUP_SNIPPET = "from gaussiso.cli import cli_main; cli_main(['--help'])"
SETUP_TIMEOUT_S = 60


THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_thread_pools() -> None:
    """Pin the OpenMP and BLAS pools to one thread.

    Runs before NumPy loads, which reads these variables once; child
    processes inherit them.
    """
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the package from it."""
    package = SRC / "gaussiso"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no package source at {package}")
    sys.path.insert(0, str(SRC))
    import gaussiso

    if Path(gaussiso.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"gaussiso was imported from {gaussiso.__file__}, not {package}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def summary(values: list[float]) -> dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def reference_mix() -> float:
    """One pass of a fixed mix of the kinds of work the package does.

    A pure-Python loop over ``math.exp``, as in the quadrature and the
    objective; eigen-solves of a 6x6 matrix, as in the stationarity layer; and
    a 200k-sample vector draw, as in the Monte-Carlo check.  It never calls
    the package, so a change to the package cannot move it.
    """
    import numpy as np

    acc = 0.0
    for i in range(20_000):
        x = -6.0 + 12.0 * i / 20_000
        acc += math.exp(-0.5 * x * x)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m = a @ a.T
    for _ in range(300):
        w, v = np.linalg.eigh(m)
        acc += float(w[0]) + float(v[:, 0] @ m @ v[:, 0])
    z = rng.standard_normal(200_000)
    acc += float(np.count_nonzero(z * z < 1.0))
    return acc


def reference_passes(budget_s: float) -> list[float]:
    """Time reference passes until ``budget_s`` has passed, at least one."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget_s:
        t = time.perf_counter()
        reference_mix()
        passes.append(time.perf_counter() - t)
    return passes


class ScaledTimes:
    """Times of a repeated job, each scaled by the reference passes around it.

    The host's speed drifts over seconds, so each time is compared with the
    passes just before and just after it rather than with the whole run's.
    """

    def __init__(self, share: float, first_budget_s: float) -> None:
        self.share = share
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.passes = reference_passes(share * first_budget_s)
        self._before = self.passes

    def add(self, seconds: float) -> None:
        after = reference_passes(self.share * seconds)
        self.raw.append(seconds)
        self.scaled.append(seconds * REFERENCE_S / statistics.median(self._before + after))
        self.passes += after
        self._before = after


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its parser."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL)
    # wait() with a timeout polls with growing sleeps and rounds the time up
    # by tens of milliseconds; a blocking wait with a watchdog does not
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"the set-up interpreter exited with code {code}")
    return elapsed


def setup_times() -> ScaledTimes:
    """One untimed set-up, then ``SETUP_RUNS`` timed ones between reference passes."""
    times = ScaledTimes(SETUP_REFERENCE_SHARE, setup_time())
    for _ in range(SETUP_RUNS):
        times.add(setup_time())
    return times


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = _read(f"{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_pools": {var: os.environ[var] for var in THREAD_POOL_VARS},
    }


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: list[bool]) -> None:
        self.attempted += len(ok)
        self.failed += ok.count(False)


def timed_iterations(workload, seconds: float, tally: Tally) -> tuple[ScaledTimes, int]:
    """One untimed warm-up, then iterations until ``seconds`` have passed.

    Returns the wall time of every timed iteration, the sum of its timed
    units (the verify call, the minimize calls or the probe sets), and the
    peak RSS in KiB after the warm-up.
    """
    units, ok = workload.iteration(0)
    tally.add(ok)
    # the process is fresh and has run one iteration; the reference mix and
    # the set-ups have not run yet
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = ScaledTimes(ITERATION_REFERENCE_SHARE, sum(units))
    started = time.perf_counter()
    while not walls.raw or time.perf_counter() - started < seconds:
        units, ok = workload.iteration(len(walls.raw) + 1)
        tally.add(ok)
        walls.add(sum(units))
    return walls, peak_rss_kb


def traced_metrics(workload, iteration_s: float, tally: Tally) -> dict[str, float]:
    from tracing import Tracer

    tracer = Tracer(run_id=f"{workload.name}:{workload.seed}:{os.getpid()}:{time.time_ns()}")
    with tracer.span("replay") as root:
        layer, ok = workload.replay(tracer)
    tally.add(ok)
    with tracer.span("probes"):
        layer.update(workload.probe(tracer))
    replayed_ns = sum(tracer.duration_ns(i) for i in tracer.children(root))
    layer["trace.coverage"] = replayed_ns / 1e9 / iteration_s
    layer["trace.overhead_s"] = tracer.duration_ns(root) / 1e9 - iteration_s
    unknown = set(layer) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"layer metrics missing from the benchmark's list: {sorted(unknown)}")
    tracer.dump(OUT / f"trace-{workload.name}-seed{workload.seed}.json")
    return {name: float(layer.get(name, 0.0)) for name in PER_LAYER}


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; return the result object and the per-metric detail."""
    tally = Tally()
    walls, peak_rss_kb = timed_iterations(workload, seconds, tally)
    detail = {"wall_s": dict(summary(walls.raw), samples=walls.raw,
                             reference_s=summary(walls.passes))}
    if trace:
        # the replay is one pass, compared with this run's typical untraced
        # iteration; both are raw wall times
        values = traced_metrics(workload, statistics.median(walls.raw), tally)
        units = PER_LAYER
    else:
        setups = setup_times()
        values = {
            "setup_s": statistics.median(setups.scaled),
            "wall_s": statistics.median(walls.scaled),
            "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
            "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        }
        detail["setup_s"] = dict(summary(setups.raw), reference_s=summary(setups.passes))
        detail["peak_rss_mb"] = summary([values["peak_rss_mb"]])
        detail["success_rate"] = {"median": values["success_rate"], "n": tally.attempted}
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="gaussiso benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify-corpus", "minimize-levels", "stationarity-probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def make_workload(name: str, seed: int):
    import workloads

    OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, OUT)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_thread_pools()
    try:
        load_program()
    except ProgramMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    workload = make_workload(args.workload, args.seed)
    try:
        result, detail = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
