"""Tests of the benchmark itself: its inputs, its printed metrics and its spans.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    """One traced run of a workload: its result and the spans it wrote."""
    name = request.param
    seed = 7
    trace_file = run.OUT / f"trace-{name}-seed{seed}.json"
    trace_file.unlink(missing_ok=True)
    result = run_main(name, seed, trace=1)
    spans = json.loads(trace_file.read_text(encoding="utf-8"))
    trace_file.unlink()
    return result, spans


def run_main(name: str, seed: int, trace: int) -> dict:
    """Run the workload at its real size with ``--seconds 0``: a warm-up and one timed iteration."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(11, tmp_path).fingerprint()
    again = cls(11, tmp_path).fingerprint()
    other = cls(12, tmp_path).fingerprint()
    assert first == again
    assert first != other


def test_drawn_unions_keep_their_stated_shape():
    for intervals in workloads.draw_unions(3, 0, 500):
        finite = [x for iv in intervals for x in iv if abs(x) != float("inf")]
        assert 1 <= len(intervals) <= 3
        assert len(finite) >= 2
        assert all(b - a >= 1e-2 for a, b in zip(finite, finite[1:]))
        assert intervals[-1][1] != float("inf")


def test_benchmark_json_lists_the_code_tables():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_the_end_to_end_metrics(name):
    result = run_main(name, seed=5, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics(traced):
    result, _ = traced
    assert result["correct"] is True and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] > 0.0


def test_span_tree_is_well_formed(traced):
    _, payload = traced
    spans = payload["spans"]
    assert payload["fields"] == ["name", "parent", "start_ns", "end_ns", "self_ns", "run_id"]
    assert spans
    child_ns = [0] * len(spans)
    for index, (name, parent, start, end, self_ns, run_id) in enumerate(spans):
        assert run_id == payload["run_id"]
        assert start <= end
        assert -1 <= parent < index
        if parent >= 0:
            _, _, parent_start, parent_end, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end
            child_ns[parent] += end - start
    for (_, _, start, end, self_ns, _), children in zip(spans, child_ns):
        assert self_ns == end - start - children
        assert self_ns >= 0
    roots = [s[0] for s in spans if s[1] == -1]
    assert roots == ["replay", "probes"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
