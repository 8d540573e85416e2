"""Frozen parity: suite reports and ``gaussiso eval`` output pinned bit for bit.

The numbers were recorded before set quantities moved to one columnar kernel
(``quantity_columns``), from ``run_suite("all", SuiteConfig(samples=1000,
seed=1))`` and from ``gaussiso eval`` on one descriptor per family.  Floats are
pinned as ``float.hex``.  Summing a set's terms in another order than Python's
``sum`` (for example with ``np.add.reduceat``), or evaluating the normal CDF
with a vectorized ``ndtr``, changes these bits.

One record was re-pinned on purpose since: the margin of
``negative-mode-witness-consistency`` moved in its last bits, from
``0x1.b7cdc66a8954dp-34`` to ``0x1.b7cde66a8954dp-34``, when
``psd_on_zero_average`` took its zero-average basis from a Householder
reflection instead of ``scipy.linalg.null_space`` (a different orthonormal
basis) and its eigen-solve from ``numpy.linalg.eigh`` instead of
``scipy.linalg.eigh`` (a different LAPACK driver).

A second record was re-pinned on purpose: the margin of
``highdim-measure-vs-monte-carlo`` moved from ``0x1.fcadf56099eb0p-10`` to
``0x1.0ea04c9ca4626p-9`` when ``mc_measure`` began to draw a ball's ``|x|^2``
from the chi-square law instead of the point in R^n (other draws, the same
estimator).

A third record was re-pinned on purpose: the margin of
``highdim-measure-vs-monte-carlo`` moved from ``0x1.0ea04c9ca4626p-9`` to
``0x1.06688534da4f3p-9`` when ``verify`` began to draw one chi-square stream
per ball dimension, on that dimension's own seed, and to test every ball of
that dimension against it, instead of one stream per ball on the ball's own
seed (other draws, the same estimator per member: still 200,000 iid draws
and its own standard error).

A fourth record was re-pinned on purpose: the margin of
``slab-transverse-barycenter-vanishes`` moved from ``0x1.13a5c4910ba7ep-7``
to ``0x1.e1c039ba1289bp-8`` when ``verify`` began to draw the four slabs
from one stream, a shared profile column and one transverse column per axis,
instead of one stream of whole points per slab (other draws, the same
estimator per row: still 200,000 iid draws and its own standard error).
"""

import contextlib
import io

import pytest

from gaussiso.cli import cli_main
from gaussiso.verify import SuiteConfig, run_suite

FROZEN_CHECKS = [
    ('interval-measure-vs-quadrature', 0, '0x1.b7cd9d9d7bdbbp-34', {'oracle': 'adaptive quadrature of the density per interval'}),
    ('highdim-measure-vs-monte-carlo', 0, '0x1.06688534da4f3p-9', {'oracle': 'Monte Carlo indicator average within 6 standard errors'}),
    ('isoperimetric-lower-bound', 0, '0x1.12e0b6826d695p-30', {'equality_members': 60}),
    ('barycenter-norm-maximality', 0, '0x1.12e0bc026d695p-30', {'equality_members': 60}),
    ('deficit-controls-strong-asymmetry', 0, '0x1.121fbd4d7458cp-30', {'main_constant': '0x1.eec9e0f86379dp+10'}),
    ('minimum-constant-ratio', 0, '0x1.0248737db1944p+11', {'main_constant': '0x1.eec9e0f86379dp+10', 'min_ratio': '0x1.026873795bb9ap+11'}),
    ('strong-asymmetry-dominates-directed', 0, '0x1.12e0bc026d695p-30', {}),
    ('deficit-controls-directed-asymmetry', 0, '0x1.1295f95a18342p-30', {'main_constant': '0x1.eec9e0f86379dp+10'}),
    ('boundary-excess-identity', 0, '0x1.b7cd5d9d7bdbbp-34', {}),
    ('mass-gap-function-nonpositive', 0, '0x1.12e0be826d695p-30', {'grid': '[-40, 0] with 4001 points'}),
    ('penalty-weight-square-bound', 0, '0x1.127a14ce9f15cp+5', {'grid': '[-40, 0] with 4001 points'}),
    ('weight-dominates-twice-mass', 0, '0x1.12e0be826d695p-30', {'grid': '[-40, 0] with 4001 points'}),
    ('slab-widening-gain-nonnegative', 0, '0x1.12e0be826d695p-30', {'levels': '0 -0.5 -1 -2 -3 -5', 't_grid': '[0, 40] with 801 points'}),
    ('slab-competitor-asymmetry-bound', 0, '0x1.f4eb42c012f48p-30', {'levels': '0 -0.5 -1 -2 -3', 'mass_fractions': '0.002 0.01 0.05 0.2 0.5'}),
    ('slab-transverse-barycenter-vanishes', 0, '0x1.e1c039ba1289bp-8', {'oracle': 'Monte Carlo moment within 6 standard errors', 'dims': '2 3 4 5'}),
    ('penalty-times-barycenter-small', 0, '0x1.fdee30be905edp-3', {'grid': '[-40, 0] with 4001 points'}),
    ('half-line-objective-bound', 0, '0x1.bda656bc73217p-22', {'grid': '[-5, 0] with 501 points'}),
    ('two-ray-criticality', 0, '0x1.2e5d965c45271p-30', {'levels': '0 -0.5 -1 -2 -3 -5 -10'}),
    ('two-ray-negative-mode', 0, '0x1.fde07ef4cbc08p-20', {'levels': '0 -0.5 -1 -2 -3 -5'}),
    ('negative-mode-witness-consistency', 0, '0x1.b7cde66a8954dp-34', {}),
    ('instability-threshold-level-zero', 0, '0x1.29e0896955ff8p-27', {'hand_threshold': '0x1.156b72de1f12fp+3', 'solver_threshold': '0x1.156b72de1f12ep+3'}),
    ('half-line-multiplier-bound', 0, '0x1.6a09e66e06ae8p+1', {'levels': '0 -0.5 -1 -2 -3 -5 -10 -20'}),
    ('boundary-second-moment-bound', 0, '0x1.37b60eccafd0dp-6', {'levels': '0 -0.5 -1 -2 -3 -5', 'families': 'two-ray and half-line'}),
]
FROZEN_EVAL = [
    (
        '{"type": "intervals", "items": [["-inf", -1.3], [-0.2, 0.45], [1.1, "inf"]]}',
        '{"barycenter": [0.076999316498551129], "deficit": 1.86020993303493, "directed_fraenkel": 0.3813783186830747, "excess": 5.3330577443357408, "mass_level": -0.03667759983373025, "max_barycenter_norm": 0.39867403280711022, "measure": 0.48537103468317599, "perimeter": 2.8595375360303996, "strong_asymmetry": 0.32167471630855909}\n',
    ),
    (
        '{"type": "halfspace", "omega": [0.48, -0.6, 0.64], "s": -0.4}',
        '{"barycenter": [-0.17676966734559518, 0.22096208418199401, -0.23569288979412695], "deficit": 0, "directed_fraenkel": 0, "excess": 0, "mass_level": -0.40000000000000008, "max_barycenter_norm": 0.36827014030332333, "measure": 0.34457825838967582, "perimeter": 0.92311634638663576, "strong_asymmetry": 0}\n',
    ),
    (
        '{"type": "slab", "dim": 3, "profile": [["-inf", -0.5], [0.3, 0.9]]}',
        '{"barycenter": [0, 0, -0.2367627612025302], "deficit": 1.5056066394311847, "directed_fraenkel": 0.39605690492857581, "excess": 3.8239899273323998, "mass_level": 0.016459242291373504, "max_barycenter_norm": 0.39888824600136391, "measure": 0.50656599119027479, "perimeter": 2.5054711952761695, "strong_asymmetry": 0.16212548479883371}\n',
    ),
    (
        '{"type": "ball", "dim": 4, "radius": 1.7}',
        '{"barycenter": [0, 0, 0, 0], "deficit": 0.47000756634571383, "directed_fraenkel": 0.84720168564182696, "excess": 2.9032281886831024, "mass_level": -0.19269008923679212, "max_barycenter_norm": 0.39160434673559219, "measure": 0.42360084282091348, "perimeter": 1.4516140943415512, "strong_asymmetry": 0.39160434673559219}\n',
    ),
]


def _hexed(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


def test_suite_all_matches_frozen_records():
    report = run_suite("all", SuiteConfig(samples=1000, seed=1))
    got = [
        (c.name, c.violations, float.hex(c.worst_margin), _hexed(c.params)) for c in report.checks
    ]
    assert got == FROZEN_CHECKS


@pytest.mark.parametrize("descriptor,expected", FROZEN_EVAL, ids=["intervals", "halfspace", "slab", "ball"])
def test_eval_output_matches_frozen_bytes(descriptor, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["eval", "--set", descriptor]) == 0
    assert out.getvalue() == expected
