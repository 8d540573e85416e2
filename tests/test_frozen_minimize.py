"""Frozen parity of the minimizer: start diagnostics and ``gaussiso minimize`` output.

Every ``StartDiagnostic`` is pinned with its floats as ``float.hex``: four
calls at ``multistarts=12, seed=7`` (level 0 with ``k_max=2``, level -1 with
``k_max=4``, the supercritical ``eps=10`` case, and the ``budget-20`` call),
plus the exact stdout of one CLI call at level -1 and of the same call at
levels 0, -0.5, -2 and 0.7.

Only the supercritical case runs the simplex search: its sublevel bound,
1 + pi/10, does not exceed the faces' best value sqrt 2, so the bound does
not certify the face search there. Its numbers were first recorded while
the local search still ran through SciPy's
``minimize(method="Nelder-Mead")`` (SciPy 1.17.1, NumPy 2.4.6), before the
in-house simplex search replaced it; the search orders its vertices by a
stable sort, so tied vertices keep their order and the diagnostics are the
same on every machine (SciPy's unstable sort swapped some ties, and one of
its starts was re-pinned when the stable sort came in).

For the other three calls and the CLI call the bound certifies the face
search, which alone runs, one diagnostic per searched piece; they were
re-pinned when the face search replaced the simplex search there. The CLI's ``best_value`` and
``half_line_value`` kept their bits. They were re-pinned again when the
right-ray pieces, the left ray's mirror image, were dropped and a grid dip
within the tie margin stopped being refined: the right-ray rows went,
``budget-20``'s ``below-kink`` piece fell from 166 to 120 evaluations, the
CLI's ``starts_total`` and ``starts_converged`` fell from 6 to 4, and every
other field kept its bits. The ``budget-20`` call once capped the simplex at
20 evaluations per start; the face search reads no settings, so it now
passes ``FAST`` and keeps every pin.
"""

import contextlib
import io

import pytest

from gaussiso.cli import cli_main
from gaussiso.functionals import FunctionalParams, stability_params
from gaussiso.optimize import OptimizerSettings, minimize_penalized_functional

FAST = OptimizerSettings(multistarts=12, seed=7)
LAM_0 = 2.8284271247461903  # stability lambda at s = 0

CASES = {
    "level-zero-kmax-2": (0.0, stability_params(0.0), 2, FAST),
    "level-minus-one-kmax-4": (-1.0, stability_params(-1.0), 4, FAST),
    "supercritical-eps-10": (0.0, FunctionalParams(s=0.0, eps=10.0, lambda_pen=LAM_0), 2, FAST),
    "budget-20": (-0.5, stability_params(-0.5), 3, FAST),
}
MINIMIZE_ARGV = ["minimize", "--s=-1", "--kmax", "3", "--starts", "11", "--seed", "5"]

FROZEN_STARTS = {
    'level-zero-kmax-2': [
        ('left-ray', 'below-kink', '0x1.000d35d18904bp+0', '0x1.000d35d18904bp+0', True, 120, ('0x0.0p+0',)),
        ('left-ray', 'above-kink', '0x1.000d35d18904bp+0', '0x1.000d35d18904bp+0', True, 120, ('0x0.0p+0',)),
        ('bounded', 'kink', '0x1.97d51b0c1706bp+0', '0x1.000d35d18904bp+0', True, 120, ('-0x1.2000000000000p+3', '0x0.0p+0',)),
        ('left-ray+right-ray', 'kink', '0x1.97d51b0c1706bp+0', '0x1.000d35d18904bp+0', True, 120, ('-0x1.2000000000000p+3', '-0x0.0p+0',)),
    ],
    'level-minus-one-kmax-4': [
        ('left-ray', 'below-kink', '0x1.369332f42f4c2p-1', '0x1.369332f42f4c2p-1', True, 120, ('-0x1.0000000000000p+0',)),
        ('left-ray', 'above-kink', '0x1.369332f42f4c2p-1', '0x1.369332f42f4c2p-1', True, 120, ('-0x1.0000000000000p+0',)),
        ('bounded', 'kink', '0x1.f5d822beebb60p+0', '0x1.369332f42f4c2p-1', True, 120, ('-0x1.4000000000000p+3', '-0x1.0000000000000p+0',)),
        ('left-ray+right-ray', 'kink', '0x1.7b2a6eb359947p-1', '0x1.369332f42f4c2p-1', True, 120, ('-0x1.4000000000000p+3', '0x1.0000000000000p+0',)),
    ],
    'supercritical-eps-10': [
        ('left-ray', 'random', '0x1.cc6d50ddf0cd5p+0', '0x1.cbb7e449e1d52p+0', True, 72, ('-0x1.0000000000000p-59',)),
        ('left-ray', 'random', '0x1.003d552944825p+1', '0x1.6a09e667f3bcdp+0', True, 123, ('0x1.31ada8c433fefp+3',)),
        ('right-ray', 'random', '0x1.040e553e54ae9p+1', '0x1.cbb7e449e1d58p+0', True, 86, ('-0x1.6000000000000p-50',)),
        ('right-ray', 'random', '0x1.6ab7d09a66a83p+0', '0x1.6a09e667f3bcdp+0', True, 116, ('-0x1.6576f133d71e8p+3',)),
        ('bounded', 'random', '0x1.0497bb1b68e5bp+1', '0x1.6a09e667f3bcdp+0', True, 170, ('0x1.5d45870d10712p+3', '0x1.5e53d8744e282p+3',)),
        ('bounded', 'random', '0x1.95f0f8758d6e2p+1', '0x1.97d51b0c17082p+0', True, 618, ('-0x1.5956b16001ef0p-1', '0x1.5956bf8a4f6b5p-1',)),
        ('left-ray+right-ray', 'random', '0x1.74298fe21a3aap+0', '0x1.6a09e667f3bcdp+0', True, 163, ('-0x1.93986ed80c1c4p+3', '0x1.144e1640833dap+3',)),
        ('left-ray+right-ray', 'random', '0x1.bd59901e874e9p+0', '0x1.6a09e667f3bcdp+0', True, 168, ('-0x1.62a96636bf02ap+3', '0x1.98bbbbf4d4c7ep+3',)),
        ('left-ray+bounded', 'random', '0x1.02a73ff3de146p+1', '0x1.97d52071ea946p+0', True, 1418, ('-0x1.59f89952d6738p-1', '0x1.58b4f9341c81cp-1', '0x1.692a84f940034p+2',)),
        ('left-ray+bounded', 'random', '0x1.160933ddd0794p+1', '0x1.97d51b0c1707bp+0', True, 1031, ('-0x1.dbaa146a8fdf2p+3', '-0x1.5956be583d7e2p-1', '0x1.5956b29213d6cp-1',)),
        ('bounded+right-ray', 'random', '0x1.fa4cf7c8918cep+0', '0x1.cbb7d8a489947p+0', True, 225, ('-0x1.f514eaaedcb1ap+2', '-0x1.4e76e00b3ed16p+2', '0x1.d230f31918087p-23',)),
        ('bounded+bounded', 'random', '0x1.3bd21442e3a74p+1', '0x1.97edc81237163p+0', True, 1639, ('-0x1.29ce21162443cp+2', '-0x1.0af913cd80df8p+2', '-0x1.461d0267a4003p-1', '0x1.6d0aa886234dap-1',)),
        ('left-ray', 'half-line', '0x1.cbb7e449e1d52p+0', '0x1.cbb7e449e1d52p+0', True, 60, ('0x0.0p+0',)),
        ('left-ray+right-ray', 'two-ray', '0x1.97d51b0c1706bp+0', '0x1.97d51b0c1706bp+0', True, 187, ('-0x1.5956b87528a49p-1', '0x1.5956b87528a49p-1',)),
        ('bounded', 'symmetric-interval', '0x1.97d51b0c1706bp+0', '0x1.97d51b0c1706bp+0', True, 181, ('-0x1.5956b87528a49p-1', '0x1.5956b87528a49p-1',)),
    ],
    'budget-20': [
        ('left-ray', 'below-kink', '0x1.c3e9496b3fdeep-1', '0x1.c3e9496b3fdeep-1', True, 120, ('-0x1.0000000000000p-1',)),
        ('left-ray', 'above-kink', '0x1.c3e9496b3fdeep-1', '0x1.c3e9496b3fdeep-1', True, 120, ('-0x1.0000000000000p-1',)),
        ('bounded', 'kink', '0x1.d939a2d5777e8p+0', '0x1.c3e9496b3fdedp-1', True, 120, ('-0x1.3000000000000p+3', '-0x1.0000000000001p-1',)),
        ('left-ray+right-ray', 'kink', '0x1.30dcde993a83dp+0', '0x1.c3e9496b3fdedp-1', True, 120, ('-0x1.3000000000000p+3', '0x1.0000000000001p-1',)),
    ],
}
FROZEN_MINIMIZE_STDOUT = '{"achieved_mass": 0.15865525393145707, "best_set": {"items": [["-inf", -1]], "type": "intervals"}, "best_value": 0.60659178953906001, "eps": 0.0020881298830454521, "half_line_optimal": true, "half_line_value": 0.60659178953906001, "k_max": 3, "lambda": 5.4064637867667571, "s": -1, "starts_converged": 4, "starts_total": 4, "target_mass": 0.15865525393145707}\n'

#: ``gaussiso minimize --s=S --kmax 3 --starts 11 --seed 5`` at four more
#: levels, one on the positive side, recorded while ``gauss_cdf(params.s)``
#: was still computed in each function that read it.
FROZEN_LEVEL_STDOUT = {
    '0': '{"achieved_mass": 0.5, "best_set": {"items": [["-inf", 0]], "type": "intervals"}, "best_value": 1.0002015720902075, "eps": 0.0025330295910584444, "half_line_optimal": true, "half_line_value": 1.0002015720902075, "k_max": 3, "lambda": 2.8284271247461898, "s": 0, "starts_converged": 4, "starts_total": 4, "target_mass": 0.5}\n',
    '-0.5': '{"achieved_mass": 0.30853753872598688, "best_set": {"items": [["-inf", -0.5]], "type": "intervals"}, "best_value": 0.88263921198079998, "eps": 0.0022962388501442973, "half_line_optimal": true, "half_line_value": 0.88263921198079998, "k_max": 3, "lambda": 4.0450153765431125, "s": -0.5, "starts_converged": 4, "starts_total": 4, "target_mass": 0.30853753872598688}\n',
    '-2': '{"achieved_mass": 0.022750131948179219, "best_set": {"items": [["-inf", -2]], "type": "intervals"}, "best_value": 0.13534073919979686, "eps": 0.0037433395497164417, "half_line_optimal": true, "half_line_value": 0.13534073919979686, "k_max": 3, "lambda": 8.4128300203612589, "s": -2, "starts_converged": 4, "starts_total": 4, "target_mass": 0.022750131948179219}\n',
    '0.7': '{"achieved_mass": 0.75803634777692697, "best_set": {"items": [["-inf", 0.69999999999999996]], "type": "intervals"}, "best_value": 0.78281042508065224, "eps": 0.0021719816057147157, "half_line_optimal": true, "half_line_value": 0.78281042508065224, "k_max": 3, "lambda": 4.5747010476273031, "s": 0.69999999999999996, "starts_converged": 4, "starts_total": 4, "target_mass": 0.75803634777692697}\n',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_start_diagnostics_match_frozen(case):
    s, params, k_max, settings = CASES[case]
    out = minimize_penalized_functional(s, params, k_max=k_max, settings=settings)
    got = [
        (
            d.template,
            d.kind,
            d.start_value.hex(),
            d.final_value.hex(),
            d.converged,
            d.evaluations,
            tuple(t.hex() for t in d.endpoints),
        )
        for d in out.starts
    ]
    assert got == FROZEN_STARTS[case]


def test_minimize_stdout_matches_frozen_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(MINIMIZE_ARGV) == 0
    assert out.getvalue() == FROZEN_MINIMIZE_STDOUT


@pytest.mark.parametrize("s", sorted(FROZEN_LEVEL_STDOUT))
def test_minimize_stdout_matches_frozen_bytes_at_more_levels(s):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["minimize", f"--s={s}", "--kmax", "3", "--starts", "11", "--seed", "5"]) == 0
    assert out.getvalue() == FROZEN_LEVEL_STDOUT[s]
