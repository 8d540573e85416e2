"""Frozen parity of the minimizer: start diagnostics and ``gaussiso minimize`` output.

The numbers were first recorded while the local search still ran through
SciPy's ``minimize(method="Nelder-Mead")`` (SciPy 1.17.1, NumPy 2.4.6),
before the in-house simplex search replaced it.  Every ``StartDiagnostic`` is
pinned with its floats as ``float.hex``: four calls at ``multistarts=12,
seed=7`` (level 0 with ``k_max=2``, level -1 with ``k_max=4``, the
supercritical ``eps=10`` case, and a ``max_iters=20`` call whose starts run
out of budget), plus the exact stdout of one CLI call.

The search orders its vertices by a stable sort, so tied vertices keep their
order and the diagnostics are the same on every machine.  SciPy's unstable
sort swapped some ties, so five starts of the first three calls were
re-pinned when the stable sort came in; the other starts, the budget call and
the CLI output are as SciPy gave them.
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
    "budget-20": (
        -0.5,
        stability_params(-0.5),
        3,
        OptimizerSettings(multistarts=12, seed=7, max_iters=20),
    ),
}
MINIMIZE_ARGV = ["minimize", "--s=-1", "--kmax", "3", "--starts", "11", "--seed", "5"]

FROZEN_STARTS = {
    'level-zero-kmax-2': [
        ('left-ray', 'random', '0x1.00c2f330c4471p+0', '0x1.000d35d18904bp+0', True, 72, ('-0x1.0000000000000p-59',)),
        ('left-ray', 'random', '0x1.82c93392792eep+0', '0x1.000d35d189053p+0', True, 88, ('-0x1.e000000000000p-50',)),
        ('right-ray', 'random', '0x1.53f4ffb4ece6cp+0', '0x1.000d35d189051p+0', True, 86, ('-0x1.6000000000000p-50',)),
        ('right-ray', 'random', '0x1.6ab70abe160eep+0', '0x1.6a09e667f3bccp+0', True, 116, ('-0x1.6576f133d71e8p+3',)),
        ('bounded', 'random', '0x1.8dea651b46ddep+0', '0x1.000d35d18904bp+0', True, 370, ('-0x1.21c654a110a04p-53', '0x1.129b523520fd1p+3',)),
        ('bounded', 'random', '0x1.95d91ab456078p+1', '0x1.000d35d18904cp+0', True, 409, ('-0x1.eab159acc7659p-54', '0x1.100181b30b09dp+3',)),
        ('left-ray+right-ray', 'random', '0x1.739346e306cb3p+0', '0x1.6a09e667f3bccp+0', True, 163, ('-0x1.93986ed80c1c4p+3', '0x1.144e1640833dap+3',)),
        ('left-ray+right-ray', 'random', '0x1.92bf0c09b8c86p+0', '0x1.6a09e667f3bccp+0', True, 168, ('-0x1.62a96636bf02ap+3', '0x1.98bbbbf4d4c7ep+3',)),
        ('left-ray+bounded', 'random', '0x1.01cec97ce921cp+1', '0x1.02599e719bd54p+0', True, 736, ('-0x1.969c7fc5b7c3ap+1', '0x1.35b277f65bfacp-10', '0x1.ba6e90705096cp+1',)),
        ('left-ray+bounded', 'random', '0x1.0f04578b4347fp+1', '0x1.000d35d18904cp+0', True, 539, ('-0x1.217107a777dbap+3', '-0x1.0e88dab7f2673p+3', '-0x1.ec042d5aba034p-55',)),
        ('bounded+right-ray', 'random', '0x1.37d59b9ff7035p+0', '0x1.000d38158faeep+0', True, 229, ('-0x1.8fc7bdb55c3a8p+2', '-0x1.68408f8aee2c8p+2', '0x1.7d5d4bedcdc56p-26',)),
        ('bounded+bounded', 'random', '0x1.26b1555e999d1p+1', '0x1.000d35d18904cp+0', True, 851, ('-0x1.27510731d1275p+6', '-0x1.04cf4ac252dafp+6', '-0x1.107a821e0c780p+3', '-0x1.d6d7f74f77006p-55',)),
        ('left-ray', 'half-line', '0x1.000d35d18904bp+0', '0x1.000d35d18904bp+0', True, 60, ('0x0.0p+0',)),
        ('left-ray+right-ray', 'two-ray', '0x1.97d51b0c1706bp+0', '0x1.97d51b0c1706bp+0', True, 172, ('-0x1.5956b87528a49p-1', '0x1.5956b87528a49p-1',)),
        ('bounded', 'symmetric-interval', '0x1.97d51b0c1706bp+0', '0x1.000d35d18904cp+0', True, 689, ('-0x1.106973ee269f0p+3', '0x1.188a3fbd714ccp-54',)),
    ],
    'level-minus-one-kmax-4': [
        ('left-ray', 'random', '0x1.6ceb86c7d2594p+1', '0x1.369332f433413p-1', True, 108, ('-0x1.0000000002d20p+0',)),
        ('right-ray', 'random', '0x1.3eb9a7bb58d99p+0', '0x1.369332f430bb5p-1', True, 88, ('0x1.ffffffffff404p-1',)),
        ('bounded', 'random', '0x1.a5167c3d02296p+1', '0x1.b72cd3f331399p-1', True, 233, ('0x1.54546a00ed362p+3', '0x1.8240f6ef9eb5cp+3',)),
        ('left-ray+right-ray', 'random', '0x1.48d0bf262a328p+1', '0x1.369332f436652p-1', True, 263, ('-0x1.d0490e2a07a0ap+2', '0x1.0000000000eaap+0',)),
        ('left-ray+bounded', 'random', '0x1.fa2df79f8b9aap+0', '0x1.369332f42f4c7p-1', True, 477, ('-0x1.1ce990d819320p+3', '0x1.fffffffffffffp-1', '0x1.0d1bcabbe521dp+3',)),
        ('bounded+right-ray', 'random', '0x1.dc2b61d930257p+1', '0x1.369332f42f4c2p-1', True, 596, ('0x1.0000000000000p+0', '0x1.14ff787b8ed74p+3', '0x1.426d57f08405cp+4',)),
        ('bounded+bounded', 'random', '0x1.14c8a3439c99ep+2', '0x1.b72cd3f331399p-1', True, 446, ('-0x1.803911494302cp+3', '-0x1.2004104cabbb8p+3', '0x1.8ed604a65fb70p+7', '0x1.5262f4c13a067p+8',)),
        ('left-ray+bounded+right-ray', 'random', '0x1.80407b4dd1ee2p+0', '0x1.369332f4cf9ccp-1', True, 615, ('-0x1.cac97cce32b7ap+2', '-0x1.cac97c32187cap+2', '-0x1.0000000011e52p+0', '0x1.b5cf67ca19d46p+2',)),
        ('left-ray+bounded+bounded', 'random', '0x1.f06d45bb36ef5p+0', '0x1.369332f42fc43p-1', True, 794, ('-0x1.fe39416424d38p+3', '0x1.0000000000000p+0', '0x1.eea9387ac035ep+2', '0x1.eea9657d6bdc4p+2', '0x1.3a6eb6966b9e2p+3',)),
        ('bounded+bounded+right-ray', 'random', '0x1.9b71460193194p+2', '0x1.b72cd3f331399p-1', True, 1539, ('-0x1.d96140714a6bdp+8', '-0x1.c8f84a4eef254p+3', '-0x1.9bd40ef228e57p+3', '-0x1.3264724f8625fp+3', '0x1.934d7fc1e8ef4p+5',)),
        ('bounded+bounded+bounded', 'random', '0x1.06eced014dfe9p+2', '0x1.369332f42f4c2p-1', True, 3849, ('-0x1.539664444d58ep+15', '-0x1.ef0d0cb8d3a64p+8', '-0x1.e4ebf73c1e386p+4', '-0x1.0000000000000p+0', '0x1.1576c4634745ep+3', '0x1.219cce07cb6dcp+11',)),
        ('left-ray+bounded+bounded+right-ray', 'random', '0x1.727a958c9b8bfp+2', '0x1.8c2bef903eca3p+0', True, 2659, ('-0x1.242543fed94fap+1', '-0x1.1e09f8bb83438p+1', '-0x1.cbd76573788a3p+0', '0x1.e3d81f6a04248p-1', '0x1.6760023c43576p+0', '0x1.daf6a56265998p+0',)),
        ('left-ray', 'half-line', '0x1.369332f42f4c2p-1', '0x1.369332f42f4c2p-1', True, 74, ('-0x1.0000000000000p+0',)),
        ('left-ray+right-ray', 'two-ray', '0x1.7b2a6eb359947p-1', '0x1.369332f42f4c2p-1', True, 980, ('-0x1.18b8918497226p+3', '0x1.0000000000000p+0',)),
        ('bounded', 'symmetric-interval', '0x1.f5d822beebb62p+0', '0x1.b72cd3f331399p-1', True, 198, ('-0x1.5176913f09423p+3', '-0x1.449897c17ea1ep+3',)),
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
        ('left-ray', 'random', '0x1.c7538bcc4611ep+0', '0x1.91948cb30a884p+0', False, 20, ('-0x1.f8e0e91a213eap-4',)),
        ('left-ray', 'random', '0x1.4c72dd7d03030p+1', '0x1.c5c16164092f2p-1', False, 20, ('-0x1.01e1a1ed34404p-1',)),
        ('right-ray', 'random', '0x1.294a90425572dp+0', '0x1.c401328addf2ep-1', False, 20, ('0x1.001855926b81ap-1',)),
        ('bounded', 'random', '0x1.f967997b5b8a0p+0', '0x1.e4ae77bd2a22dp-1', False, 20, ('-0x1.315a0ae3bceddp+4', '-0x1.2303d79ee6ad5p-1',)),
        ('left-ray+right-ray', 'random', '0x1.4e9f5a1ef77d9p+1', '0x1.c8c5ee872a3e1p-1', False, 20, ('-0x1.04fb33c894906p-1', '0x1.979f02d21f23cp+2',)),
        ('left-ray+bounded', 'random', '0x1.0ee61b3e321c3p+2', '0x1.03eaaf43e22a4p+2', False, 20, ('0x1.44f1904bcf548p-2', '0x1.b46a5dfbf624cp-2', '0x1.b9cd2b653d492p-2',)),
        ('bounded+right-ray', 'random', '0x1.6738f19e336fep+1', '0x1.18b6b2496e664p+0', False, 20, ('-0x1.15c1267220cf0p+2', '-0x1.8a8a0748dc617p-2', '0x1.16430937005d5p+2',)),
        ('bounded+bounded', 'random', '0x1.d1606d23d7736p+1', '0x1.865ca8ba928c2p+1', False, 20, ('-0x1.d2e379875eb2cp+0', '-0x1.b1555a7f3d65cp+0', '-0x1.552019d624fd4p-1', '0x1.060584d129ba2p+2',)),
        ('left-ray+bounded+right-ray', 'random', '0x1.c4b504d9ca222p+0', '0x1.9620cb74b1271p+0', False, 20, ('-0x1.807eb0a509358p+0', '0x1.3202726b4e9bap+0', '0x1.ff6b5339218e8p+0', '0x1.13c0348d6b650p+1',)),
        ('left-ray+bounded+bounded', 'random', '0x1.eb240005eda6bp+1', '0x1.e22bdb18d1d9ep+1', False, 20, ('-0x1.cb92b56a62b4ep+1', '-0x1.68fb0c2e362d0p-1', '0x1.62077605f3b0cp-6', '0x1.349627568a4dep-4', '0x1.6574de5937604p-3',)),
        ('bounded+bounded+right-ray', 'random', '0x1.5e2b48b186d1ap+1', '0x1.24aceeef9a66dp+1', False, 20, ('-0x1.544854cea19b8p+2', '-0x1.da8feaad0078cp+1', '-0x1.ae9a830f8c41ep-3', '0x1.88b7e4312ca60p-1', '0x1.cb8b45cfccfa6p+0',)),
        ('bounded+bounded+bounded', 'random', '0x1.55ad0f7a4300ep+1', '0x1.11cc8343baaa1p+1', False, 20, ('-0x1.0b332b346cd3cp+2', '-0x1.a147a49b5540cp+1', '-0x1.a64b88ae27cb0p+0', '-0x1.b9a0cafc15ec0p-1', '0x1.b29dcfe4a55c0p-1', '0x1.7715288a08642p+0',)),
        ('left-ray', 'half-line', '0x1.c3e9496b3fdeep-1', '0x1.c3e9496b3fdeep-1', False, 20, ('-0x1.0000000000000p-1',)),
        ('left-ray+right-ray', 'two-ray', '0x1.30dcde993a83dp+0', '0x1.30dcde993a83dp+0', False, 20, ('-0x1.04af03d2b67d0p+0', '0x1.04af03d2b67d0p+0',)),
        ('bounded', 'symmetric-interval', '0x1.d939a2d5777eap+0', '0x1.d934d1cf5b4d6p+0', False, 20, ('-0x1.aab744667c54cp-2', '0x1.82138707644cbp-2',)),
    ],
}
FROZEN_MINIMIZE_STDOUT = '{"achieved_mass": 0.15865525393145707, "best_set": {"items": [["-inf", -1]], "type": "intervals"}, "best_value": 0.60659178953906001, "eps": 0.0020881298830454521, "half_line_optimal": true, "half_line_value": 0.60659178953906001, "k_max": 3, "lambda": 5.4064637867667571, "s": -1, "starts_converged": 14, "starts_total": 14, "target_mass": 0.15865525393145707}\n'


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
