"""Tests for the command-line interface: subcommands, formats, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussiso
from gaussiso import cli
from gaussiso.cli import cli_main
from gaussiso.functionals import stability_params
from gaussiso.optimize import OptimizerSettings, minimize_penalized_functional
from gaussiso.special import chi2_quantile, gauss_cdf
from gaussiso.verify import json_value

HALF_SPACE_M1 = '{"type":"halfspace","omega":[1],"s":-1}'
PERIM_M1 = 0.60653065971263342  # e^{-1/2}
B_M1 = -0.24197072451914337  # barycenter of the half-line at level -1
F_HALF_0 = 1.0002015720902075  # optimal objective value at level 0


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """Run ``python *argv`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(gaussiso.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestEval:
    def test_half_space_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--set", HALF_SPACE_M1)
        assert code == 0
        bundle = json.loads(out)
        assert bundle["deficit"] == 0.0
        assert bundle["strong_asymmetry"] == 0.0
        assert bundle["directed_fraenkel"] == 0.0
        assert bundle["excess"] == 0.0
        assert bundle["mass_level"] == -1.0
        assert bundle["perimeter"] == pytest.approx(PERIM_M1, rel=1e-15)
        assert bundle["barycenter"] == [pytest.approx(B_M1, rel=1e-15)]

    def test_interval_descriptor_matches_half_space(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--set", '{"type":"intervals","items":[["-inf",-1]]}'
        )
        assert code == 0
        bundle = json.loads(out)
        assert bundle["perimeter"] == pytest.approx(PERIM_M1, rel=1e-15)
        assert bundle["deficit"] == 0.0

    def test_ball_descriptor(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--set", '{"type":"ball","dim":2,"radius":1.0}'
        )
        assert code == 0
        bundle = json.loads(out)
        assert bundle["measure"] == pytest.approx(0.3934693402873665, rel=1e-14)
        assert bundle["barycenter"] == [0.0, 0.0]

    @pytest.mark.parametrize("dim", [250, 300])
    def test_high_dim_ball_descriptor(self, capsys, dim):
        # the ball at level 0.5; its perimeter used to overflow (inf at dim
        # 250, OverflowError and exit 1 at dim 300)
        radius = math.sqrt(chi2_quantile(dim, gauss_cdf(0.5)))
        code, out, err = run_cli(
            capsys, "eval", "--set", json.dumps({"type": "ball", "dim": dim, "radius": radius})
        )
        assert (code, err) == (0, "")
        bundle = json.loads(out)
        assert bundle["mass_level"] == pytest.approx(0.5, abs=1e-12)
        assert all(math.isfinite(bundle[k]) for k in ("perimeter", "deficit", "excess"))

    @pytest.mark.parametrize("items", ["[[-1e200, 0.5]]", "[[0, 1], [9e307, 1.7e308]]", "[[-1.7e308, -9e307], [0, 1]]"])
    def test_huge_finite_endpoints_print_no_warning(self, items):
        out = run_python("-m", "gaussiso", "eval", "--set", f'{{"type": "intervals", "items": {items}}}')
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["measure"] > 0.0

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--set", "{bad")
        assert code == 2
        assert "error:" in err

    def test_invalid_descriptor_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--set", '{"type":"mystery"}')
        assert code == 2
        assert "error:" in err
        code, _, err = run_cli(capsys, "eval", "--set", '{"type":"slab","dim":true,"profile":[[0,1]]}')
        assert code == 2
        assert "SlabSet: dim must be an integer, got True" in err

    @pytest.mark.parametrize("omega", ["[true]", '["0.6", "0.8"]'])
    def test_non_numeric_omega_is_usage_error(self, capsys, omega):
        code, _, err = run_cli(capsys, "eval", "--set", f'{{"type":"halfspace","omega":{omega},"s":0}}')
        assert code == 2
        assert "HalfSpace: omega component must be a real number" in err


class TestVerify:
    def test_stdout_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "stationarity", "--samples", "50", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "stationarity"
        assert all(c["violations"] == 0 for c in payload["checks"])

    def test_out_file_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "scalar-functions", "--samples", "50",
            "--out", str(out_path), "--format", "csv",
        )
        assert code == 0
        assert out_path.read_text().startswith("name,anchor,")
        assert out.count("pass ") == 8

    def test_falsified_constant_exits_one(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "main", "--samples", "300", "--seed", "42",
            "--main-constant", "0.05", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "FAIL" in out

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "invalid choice" in err

    def test_byte_identical_reports_modulo_wall_time(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "verify", "--suite", "all", "--samples", "300", "--seed", "42",
                "--out", str(path),
            )
            assert code == 0
        payloads = []
        for path in paths:
            payload = json.loads(path.read_text())
            for check in payload["checks"]:
                check["wall_time"] = 0.0
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_bad_samples_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "iso", "--samples", "0")
        assert code == 2
        assert "error:" in err


class TestMinimize:
    def test_keyword_weights_level_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--s", "0", "--eps", "paper", "--lambda", "paper",
            "--kmax", "2", "--starts", "8", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["half_line_optimal"] is True
        assert payload["best_value"] == pytest.approx(F_HALF_0, rel=1e-9)
        assert payload["best_set"]["type"] == "intervals"
        ((lo, hi),) = payload["best_set"]["items"]
        assert lo == "-inf"
        assert abs(float(hi)) < 1e-6
        assert payload["starts_converged"] == payload["starts_total"]

    def test_numeric_weights_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--s", "-1", "--eps", "0.001", "--lambda", "4.0",
            "--kmax", "1", "--starts", "4", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eps"] == 0.001
        assert payload["lambda"] == 4.0

    def test_bad_eps_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "minimize", "--s", "0", "--eps", "wat", "--starts", "4"
        )
        assert code == 2
        assert "--eps" in err

    def test_paper_weights_beyond_their_level_bound_exit_two(self, capsys):
        # exp(s^2/2) in the paper's eps overflows past |s| = 37.677...
        code, out, err = run_cli(capsys, "minimize", "--s", "-40")
        assert (code, out) == (2, "")
        assert "error: stability_params: |s| must be at most 37.67712072049519" in err
        assert "Traceback" not in err

    def test_explicit_weights_need_no_paper_weights(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--s", "-40", "--eps", "1", "--lambda", "1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["eps"], payload["lambda"]) == (1, 1)

    @pytest.mark.parametrize("s", ["8", "-7", "-7.5"])
    def test_tail_levels_find_a_better_set_than_the_half_line(self, capsys, s):
        # F of the half-line is near or below 1e-12 here, so only a tie margin
        # relative to it tells the returned ray from the half-line
        code, out, _ = run_cli(capsys, "minimize", f"--s={s}", "--eps", "1", "--lambda", "1", "--kmax", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_value"] < payload["half_line_value"]
        assert payload["half_line_optimal"] is False

    def test_bad_kmax_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "minimize", "--s", "0", "--kmax", "0", "--starts", "4"
        )
        assert code == 2
        assert "error:" in err

    def test_diagnostics_flag_adds_every_start(self, capsys):
        argv = ["minimize", "--s=-1", "--kmax", "2", "--starts", "6", "--seed", "3"]
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, detailed, _ = run_cli(capsys, *argv, "--diagnostics")
        assert code == 0
        payload = json.loads(detailed)
        starts = payload.pop("starts")
        # the flag only adds the list: the rest of the output is unchanged
        assert "starts" not in json.loads(plain)
        assert json_value(payload) + "\n" == plain
        outcome = minimize_penalized_functional(
            -1.0, stability_params(-1.0), k_max=2,
            settings=OptimizerSettings(multistarts=6, seed=3),
        )
        assert len(starts) == payload["starts_total"] == len(outcome.starts)
        for entry, diag in zip(starts, outcome.starts):
            assert set(entry) == {
                "template", "kind", "start_value", "final_value", "converged",
                "evaluations", "endpoints",
            }
            assert entry["template"] == diag.template
            assert entry["kind"] == diag.kind
            assert entry["start_value"] == diag.start_value
            assert entry["final_value"] == diag.final_value
            assert entry["converged"] is diag.converged
            assert entry["evaluations"] == diag.evaluations
            assert tuple(entry["endpoints"]) == diag.endpoints


class TestSweep:
    def test_table_with_frozen_ratios(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--s-list", "-3,-5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,a_s,deficit,beta,ratio"
        rows = [line.split(",") for line in lines[1:]]
        # Rows come back sorted ascending by level, so -5 precedes -3.
        assert [float(row[0]) for row in rows] == [-5.0, -3.0]
        assert [float(row[4]) for row in rows] == [
            pytest.approx(1.5440681817860369, rel=1e-15),
            pytest.approx(1.3146143011346132, rel=1e-15),
        ]

    def test_space_separated_levels(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--s-list", "-10 -15")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_positive_level_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--s-list", "1.0")
        assert code == 2
        assert "negative" in err

    def test_garbage_levels_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--s-list", "abc")
        assert code == 2
        assert "error:" in err


class TestUsage:
    def test_no_subcommand_exits_two(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--s-list", "-1", "--bogus")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "eval" in out and "verify" in out and "minimize" in out and "sweep" in out


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["gaussiso", "gaussiso.cli"])
    def test_python_dash_m_runs_verify(self, module, tmp_path):
        out_path = tmp_path / "report.json"
        done = run_python(
            "-m", module, "verify", "--suite", "scalar-functions", "--out", str(out_path)
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(out_path.read_text())["suite"] == "scalar-functions"
        assert done.stdout.count("pass ") == 8


class TestSharedParser:
    """One parser serves every call in a process; no call's flags reach the next."""

    def test_parser_is_built_once_with_immutable_defaults(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for sub_parser in (parser, *commands.choices.values()):
            for action in sub_parser._actions:
                assert isinstance(action.default, (type(None), bool, int, float, str)), action.dest

    def test_import_builds_no_parser(self):
        done = run_python(
            "-c", "import gaussiso.cli; print(gaussiso.cli._build_parser.cache_info().currsize)"
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    def test_diagnostics_do_not_outlive_their_call(self, capsys):
        argv = ["minimize", "--s=-0.5", "--kmax", "2"]
        code, detailed, _ = run_cli(capsys, *argv, "--diagnostics")
        assert code == 0
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(detailed)
        assert payload.pop("starts")
        assert "starts" not in json.loads(plain)
        assert json_value(payload) + "\n" == plain

    def test_error_and_help_leave_a_fresh_process_output(self, capsys, monkeypatch):
        # argparse wraps help to the terminal width; the fresh processes inherit this one
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert (code, out) == (2, "")
        assert "invalid choice" in err
        code, help_text, _ = run_cli(capsys, "--help")
        assert code == 0
        fresh = run_python("-m", "gaussiso", "--help")
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert help_text == fresh.stdout
        argv = ["minimize", "--s=-2", "--kmax", "2", "--starts", "5", "--seed", "9"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        fresh = run_python("-m", "gaussiso", *argv)
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert out == fresh.stdout
