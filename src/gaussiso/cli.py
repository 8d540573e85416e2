"""Command-line entry point.

Subcommands: ``eval`` prints every derived quantity of one set descriptor;
``verify`` runs a named check suite over the mixed corpus and grids;
``minimize`` searches for the minimizer of the penalized functional (with
``--diagnostics``, also reporting every simplex start or face piece);
``sweep`` tabulates the two-ray deficit-to-asymmetry ratio along a list of
mass levels.  Exit codes: 0 success with zero violations, 1 at least one
violation, 2 usage or input error.

The argument parser is built on the first call of ``cli_main`` and reused
for the rest of the process, so an in-process call pays only for its own
work.  Importing the module builds nothing.  Reuse is safe because each
parse makes a fresh namespace and no argument has a mutable default.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

from .functionals import FunctionalParams, quantities, stability_params
from .optimize import (
    _K_MAX,
    OptimizerSettings,
    mass_sweep,
    minimize_penalized_functional,
)
from .sets import dimension, set_from_json, set_to_dict
from .verify import (
    SUITE_NAMES,
    SuiteConfig,
    emit_report,
    format_number,
    json_value,
    render_report,
    run_suite,
)

__all__ = ["cli_main", "main"]

#: Largest dimension of a set ``eval`` prints: 10^6, the largest the planned high-dimensional checks reach.
_EVAL_MAX_DIM = 10**6


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussiso",
        description="Gaussian isoperimetric quantities, verification suites, and minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate every derived quantity of one set")
    p_eval.add_argument("--set", required=True, metavar="JSON", help="set descriptor JSON")
    p_eval.set_defaults(run=_run_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--samples", type=int, default=SuiteConfig.samples)
    p_verify.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_verify.add_argument("--out", default=None, help="report file path (default: stdout)")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument(
        "--main-constant",
        type=float,
        default=SuiteConfig.main_constant,
        help="override the explicit constant of the asymmetry estimate (falsification hook)",
    )
    p_verify.set_defaults(run=_run_verify)

    p_min = sub.add_parser("minimize", help="minimize the penalized functional")
    p_min.add_argument("--s", type=float, required=True, help="target mass level")
    p_min.add_argument("--eps", default="paper", help="barycenter weight: a number or 'paper'")
    p_min.add_argument("--lambda", dest="lambda_pen", default="paper",
                       help="mass-penalty weight: a number or 'paper'")
    p_min.add_argument("--kmax", type=int, default=_K_MAX)
    p_min.add_argument("--starts", type=int, default=OptimizerSettings.multistarts,
                       help="random simplex starts; used only where the face search is not proven complete")
    p_min.add_argument("--seed", type=int, default=OptimizerSettings.seed,
                       help="seed of the random simplex starts; used only where the face search is not "
                            "proven complete")
    p_min.add_argument("--diagnostics", action="store_true",
                       help="add every start's or face piece's outcome as a 'starts' list")
    p_min.set_defaults(run=_run_minimize)

    p_sweep = sub.add_parser("sweep", help="two-ray ratio sweep over mass levels")
    p_sweep.add_argument("--s-list", required=True,
                         help="mass levels, space- or comma-separated, all negative")
    p_sweep.set_defaults(run=_run_sweep)
    return parser


def _resolve_weights(args) -> tuple[float, float]:
    """The ``--eps`` and ``--lambda`` numbers; ``'paper'`` reads the paper's weights at ``--s``.

    The flags are read in that order, and the paper's weights are computed at
    most once, on the first flag that asks for them.
    """
    paper = None
    weights = []
    for text, flag, field in ((args.eps, "--eps", "eps"), (args.lambda_pen, "--lambda", "lambda_pen")):
        if text == "paper":
            paper = paper or stability_params(args.s)
            weights.append(getattr(paper, field))
            continue
        try:
            weights.append(float(text))
        except ValueError:
            raise ValueError(f"{flag} must be a number or 'paper', got {text!r}") from None
    return weights[0], weights[1]


def _run_eval(args) -> int:
    e = set_from_json(args.set)
    # the barycenter is dim entries long; refuse it before it is allocated
    if dimension(e) > _EVAL_MAX_DIM:
        raise ValueError(f"eval: dim must be at most {_EVAL_MAX_DIM}, the longest barycenter it prints, got {dimension(e)}")
    bundle = quantities(e)
    sys.stdout.write(json_value(asdict(bundle)) + "\n")
    return 0


def _run_verify(args) -> int:
    config = SuiteConfig(samples=args.samples, seed=args.seed, main_constant=args.main_constant)
    report = run_suite(args.suite, config)
    if args.out is None:
        sys.stdout.write(render_report(report, args.format))
    else:
        emit_report(report, args.out, args.format)
        for c in report.checks:
            status = "FAIL" if c.violations else "pass"
            sys.stdout.write(
                f"{status} {c.name}: {c.violations} violations in {c.samples} samples, "
                f"worst margin {format_number(c.worst_margin)}\n"
            )
    return 1 if report.total_violations else 0


def _run_minimize(args) -> int:
    eps, lambda_pen = _resolve_weights(args)
    params = FunctionalParams(s=args.s, eps=eps, lambda_pen=lambda_pen)
    settings = OptimizerSettings(multistarts=args.starts, seed=args.seed)
    outcome = minimize_penalized_functional(args.s, params, k_max=args.kmax, settings=settings)
    payload = {
        "s": args.s,
        "eps": params.eps,
        "lambda": params.lambda_pen,
        "k_max": args.kmax,
        "best_set": set_to_dict(outcome.best_set),
        "best_value": outcome.best_value,
        "half_line_value": outcome.half_line_value,
        "half_line_optimal": outcome.half_line_optimal,
        "target_mass": outcome.target_mass,
        "achieved_mass": outcome.achieved_mass,
        "starts_total": len(outcome.starts),
        "starts_converged": sum(1 for d in outcome.starts if d.converged),
    }
    if args.diagnostics:
        payload["starts"] = [asdict(d) for d in outcome.starts]
    sys.stdout.write(json_value(payload) + "\n")
    return 0


def _run_sweep(args) -> int:
    text = args.s_list.replace(",", " ")
    try:
        levels = [float(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"--s-list must contain numbers, got {args.s_list!r}") from None
    rows = mass_sweep(levels)
    sys.stdout.write("s,a_s,deficit,beta,ratio\n")
    for row in rows:
        sys.stdout.write(
            f"{format_number(row.s)},{format_number(row.a_s)},{format_number(row.deficit)},"
            f"{format_number(row.beta)},{format_number(row.ratio)}\n"
        )
    return 0


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join ``--s-list`` with its value so leading-dash level lists parse."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--s-list":
            value = next(tokens, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--s-list={value}")
        else:
            out.append(token)
    return out


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
