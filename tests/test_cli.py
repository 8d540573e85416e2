"""Tests for the command-line interface: subcommands, formats, exit codes."""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gaussiso
from gaussiso import cli
from gaussiso.cli import cli_main
from gaussiso.functionals import stability_params
from gaussiso.optimize import OptimizerSettings, minimize_penalized_functional
from gaussiso.special import chi2_quantile, gauss_cdf
from gaussiso.verify import SuiteConfig, json_value

HALF_SPACE_M1 = '{"type":"halfspace","omega":[1],"s":-1}'
PERIM_M1 = 0.60653065971263342  # e^{-1/2}
B_M1 = -0.24197072451914337  # barycenter of the half-line at level -1
F_HALF_0 = 1.0002015720902075  # optimal objective value at level 0
# SHA-256 of the stdout of `minimize --s=S --kmax 3 --starts 11 --seed 5`, the
# calls of the minimize-levels benchmark; below eps = 2 pi the face search is
# proven complete, so the seed is not read
BENCHMARK_MINIMIZE_SHA256 = {
    "0": "76ea0dab29465a81c723308e34cad60c39a2e2d5fb7855f18e98cd7d03dfb432",
    "-0.5": "6b8c1974a2c738766f9ec772f9882b56c44a6e9a43a8a112b694df34e093a98d",
    "-1": "3ec24f513544b087dd7185cd1843b2d31085113a083f1c0966499c688a7b2c47",
    "-2": "98fb67abeb8a2f8ceacb7a387576d022a3b4ca9b20a71a64fece5c4f1e073d74",
}


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

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ('{"type":"intervals","items":[[-1, 1' + "0" * 400 + "]]}", "set descriptor: endpoint must be finite, got 1000"),
            ('{"type":"ball","dim":100000000000000000000,"radius":1}', "CenteredBall: dim must be at most 2**63 - 1"),
            ('{"type":"slab","dim":100000000000000000000,"profile":[[0,1]]}', "SlabSet: dim must be at most 2**63 - 1"),
            # a dim-long barycenter past the cap is refused before it is allocated
            ('{"type":"slab","dim":9223372036854775807,"profile":[[0,1]]}', "eval: dim must be at most 1000000"),
            ('{"type":"slab","dim":1000000000,"profile":[[0,1]]}', "eval: dim must be at most 1000000, the longest barycenter it prints, got 1000000000"),
            ('{"type":"ball","dim":1000000000,"radius":1}', "eval: dim must be at most 1000000, the longest barycenter it prints, got 1000000000"),
        ],
        ids=["endpoint", "ball-dim", "slab-dim", "slab-dim-too-big-to-print", "slab-dim-1e9", "ball-dim-1e9"],
    )
    def test_out_of_range_descriptor_is_usage_error(self, capsys, descriptor, message):
        # exit 1 means a violation, so out-of-range input must exit 2, without a traceback
        code, out, err = run_cli(capsys, "eval", "--set", descriptor)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("family", ['"type":"ball","radius":1', '"type":"slab","profile":[[0,1]]'])
    def test_dim_cap_is_inclusive(self, capsys, monkeypatch, family):
        monkeypatch.setattr(cli, "_EVAL_MAX_DIM", 3)
        code, out, _ = run_cli(capsys, "eval", "--set", f'{{{family},"dim":3}}')
        assert code == 0
        assert len(json.loads(out)["barycenter"]) == 3
        code, out, err = run_cli(capsys, "eval", "--set", f'{{{family},"dim":4}}')
        assert (code, out) == (2, "")
        assert err == "error: eval: dim must be at most 3, the longest barycenter it prints, got 4\n"


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

    def test_overflowing_main_constant_exits_two(self, capsys):
        # a constant this large would overflow c (1+s^2) D to inf, and inf * 0 to NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "verify", "--suite", "main", "--samples", "300", "--seed", "3",
                "--main-constant", "1e308",
            )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: main_constant must be at most 1e+290, so that every bound stays finite, got 1e+308"
        ]
        assert caught == []


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

    @pytest.mark.parametrize("s", ["9e307", "-9e307"])
    def test_level_whose_face_grids_overflow_exits_two(self, capsys, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "minimize", f"--s={s}", "--eps", "1", "--lambda", "1")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: |s| must be at most 8.98e+307, where the face grids' span 2 (|s| + 9) is finite, got {float(s)!r}"
        ]

    def test_largest_levels_keep_their_output(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "minimize", "--s=8.9e307", "--eps", "1", "--lambda", "1")
        assert (code, err) == (0, "")
        assert out == (
            '{"achieved_mass": 1, "best_set": {"items": [["-inf", 7.4789915966385642e+305]], "type": "intervals"}, '
            '"best_value": 0, "eps": 1, "half_line_optimal": true, "half_line_value": 0, "k_max": 3, "lambda": 1, '
            '"s": 8.9000000000000001e+307, "starts_converged": 2, "starts_total": 2, "target_mass": 1}\n'
        )

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

    @pytest.mark.parametrize("s", list(BENCHMARK_MINIMIZE_SHA256))
    def test_benchmark_calls_keep_their_bytes(self, capsys, s):
        code, out, err = run_cli(capsys, "minimize", f"--s={s}", "--kmax", "3", "--starts", "11", "--seed", "5")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_MINIMIZE_SHA256[s]

    def test_bad_kmax_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "minimize", "--s", "0", "--kmax", "0", "--starts", "4"
        )
        assert code == 2
        assert "error:" in err

    def test_no_degenerate_start_at_zero_mass(self, capsys):
        # Phi(-38.5) is 0: the kink holds only the empty set, so no kink face
        # runs from a two-ray set (-inf, -inf) u (inf, inf) or an interval;
        # the faces reach F = 0, below the sublevel bound, so the simplex does not run
        code, out, _ = run_cli(
            capsys, "minimize", "--s=-38.5", "--eps", "10", "--lambda", "1",
            "--kmax", "2", "--starts", "2", "--diagnostics",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-finite {name} in output"))
        assert payload["target_mass"] == 0
        assert [d["kind"] for d in payload["starts"]] == ["below-kink", "above-kink"]
        assert payload["best_value"] == 0.0

    # best_set, best_value, achieved_mass and half_line_value at the paper's
    # weights, as the multistart simplex search printed them before the
    # sublevel bound moved these levels to the face search
    PAPER_TAIL_OUTPUTS = {
        "-5": ([["-inf", -5]], 3.7266820639736467e-06, 2.866515718791946e-07, 3.7266820639736467e-06),
        "-7.5": ([["-inf", -7.5]], 6.1019581619744147e-13, 3.1908916729109197e-14, 6.1019581619744147e-13),
    }

    @pytest.mark.parametrize("s", list(PAPER_TAIL_OUTPUTS))
    def test_paper_weights_at_negative_tail_levels_keep_their_minimizer(self, capsys, s):
        code, out, _ = run_cli(capsys, "minimize", f"--s={s}", "--diagnostics")
        assert code == 0
        payload = json.loads(out)
        fields = (payload["best_set"]["items"], payload["best_value"], payload["achieved_mass"],
                  payload["half_line_value"])
        assert fields == self.PAPER_TAIL_OUTPUTS[s]
        assert payload["half_line_optimal"] is True
        assert {d["kind"] for d in payload["starts"]} == {"below-kink", "above-kink", "kink"}

    @pytest.mark.parametrize("s", ["5", "7"])
    def test_paper_weights_at_positive_tail_levels_return_the_half_line(self, capsys, s):
        # the multistart simplex search returned the mirror ray (-s, inf), a
        # few 1e-17 below F of the half-line through rounding in the mass penalty
        code, out, _ = run_cli(capsys, "minimize", f"--s={s}")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_set"]["items"] == [["-inf", float(s)]]
        assert payload["best_value"] == payload["half_line_value"]
        assert payload["half_line_optimal"] is True

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

    def test_level_whose_square_underflows_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--s-list=-1e-300")
        assert (code, out) == (2, "")
        assert err == "error: the ratio column underflows the float range above level -1.49e-154, got -1e-300\n"

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


#: The ``--help`` texts at 80 columns.
HELP_TEXTS = {
    "": """\
usage: gaussiso [-h] {eval,verify,minimize,sweep} ...

Gaussian isoperimetric quantities, verification suites, and minimization.

positional arguments:
  {eval,verify,minimize,sweep}
    eval                evaluate every derived quantity of one set
    verify              run a verification suite
    minimize            minimize the penalized functional
    sweep               two-ray ratio sweep over mass levels

options:
  -h, --help            show this help message and exit
""",
    "verify": """\
usage: gaussiso verify [-h] --suite
                       {measure-oracle,iso,barycenter-max,main,strong-vs-standard,alpha-hat-corollary,excess-identity,scalar-functions,stationarity,all}
                       [--samples SAMPLES] [--seed SEED] [--out OUT]
                       [--format {json,csv}] [--main-constant MAIN_CONSTANT]

options:
  -h, --help            show this help message and exit
  --suite {measure-oracle,iso,barycenter-max,main,strong-vs-standard,alpha-hat-corollary,excess-identity,scalar-functions,stationarity,all}
  --samples SAMPLES
  --seed SEED
  --out OUT             report file path (default: stdout)
  --format {json,csv}
  --main-constant MAIN_CONSTANT
                        override the explicit constant of the asymmetry
                        estimate (falsification hook)
""",
    "minimize": """\
usage: gaussiso minimize [-h] --s S [--eps EPS] [--lambda LAMBDA_PEN]
                         [--kmax KMAX] [--starts STARTS] [--seed SEED]
                         [--diagnostics]

options:
  -h, --help           show this help message and exit
  --s S                target mass level
  --eps EPS            barycenter weight: a number or 'paper'
  --lambda LAMBDA_PEN  mass-penalty weight: a number or 'paper'
  --kmax KMAX
  --starts STARTS      random simplex starts; used only where the face search
                       is not proven complete
  --seed SEED          seed of the random simplex starts; used only where the
                       face search is not proven complete
  --diagnostics        add every start's or face piece's outcome as a 'starts'
                       list
""",
}


class TestDefaults:
    """The CLI's defaults are the library's, and its help texts do not change."""

    def test_defaults_are_the_library_defaults(self):
        (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        defaults = {
            (name, action.dest): action.default
            for name, sub_parser in commands.choices.items()
            for action in sub_parser._actions
        }
        config, settings = SuiteConfig(), OptimizerSettings()
        assert defaults["verify", "samples"] == config.samples
        assert defaults["verify", "seed"] == config.seed
        assert defaults["verify", "main_constant"] == config.main_constant
        assert defaults["minimize", "starts"] == settings.multistarts
        assert defaults["minimize", "seed"] == settings.seed
        k_max = inspect.signature(minimize_penalized_functional).parameters["k_max"].default
        assert defaults["minimize", "kmax"] == k_max

    @pytest.mark.parametrize("command", list(HELP_TEXTS))
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command):
        # argparse wraps help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, *filter(None, [command]), "--help")
        assert (code, out) == (0, HELP_TEXTS[command])


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


class TestBenchmarkApi:
    """The names ``bench/`` imports from the package exist, and the argv it passes parses.

    Read from the benchmark's source and parsed, never run, so a dropped name
    or flag fails here rather than in a benchmark run.
    """

    BENCH = Path(__file__).resolve().parents[1] / "bench"

    def trees(self):
        """The syntax trees of the benchmark, and of the code its set-up interpreter runs."""
        trees = [ast.parse((self.BENCH / name).read_text()) for name in ("workloads.py", "run.py")]
        (snippet,) = [
            node.value.value
            for node in ast.walk(trees[1])
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_SNIPPET"
        ]
        return [*trees, ast.parse(snippet)]

    def test_imported_names_exist(self):
        imported = [
            (node.module, a.name)
            for tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gaussiso"
            for a in node.names
        ]
        assert ("gaussiso.cli", "cli_main") in imported and len(imported) > 20
        assert [(m, n) for m, n in imported if not hasattr(importlib.import_module(m), n)] == []

    def test_keywords_passed_exist(self):
        # a renamed parameter or field fails here, not in a benchmark run
        imported = {
            a.asname or a.name: getattr(importlib.import_module(node.module), a.name)
            for tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gaussiso"
            for a in node.names
        }
        calls = [
            (node.func.id, [k.arg for k in node.keywords if k.arg])
            for tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported
        ]
        assert sum(bool(keywords) for _, keywords in calls) > 5
        unknown = []
        for name, keywords in calls:
            try:
                inspect.signature(imported[name]).bind_partial(**dict.fromkeys(keywords))
            except TypeError:
                unknown.append((name, keywords))
        assert unknown == []

    def test_argv_shapes_parse(self, capsys):
        def render(node):
            # a computed value stands in as -1 inside an f-string, else as 1
            if isinstance(node, ast.Constant):
                return node.value
            if isinstance(node, ast.JoinedStr):
                return "".join(render(x) if isinstance(x, ast.Constant) else "-1" for x in node.values)
            return "1"

        shapes = [
            [render(x) for x in node.elts]
            for tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.List) and node.elts and isinstance(getattr(node.elts[0], "value", None), str)
        ]
        verify = ["verify", "--suite", "all", "--samples", "1", "--seed", "1"]
        minimize = ["minimize", "--s=-1", "--kmax", "3", "--starts", "1", "--seed", "1"]
        assert sorted(shapes) == sorted([verify, ["--out", "1"], minimize, ["--help"]])
        parser = cli._build_parser()
        args = parser.parse_args(verify + ["--out", "1"])
        assert (args.command, args.suite, args.samples, args.seed, args.out) == ("verify", "all", 1, 1, "1")
        args = parser.parse_args(minimize)
        assert (args.command, args.s, args.kmax, args.starts, args.seed) == ("minimize", -1.0, 3, 1, 1)
        with pytest.raises(SystemExit) as done:
            parser.parse_args(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gaussiso")
