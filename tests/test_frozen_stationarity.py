"""Frozen stationarity: residuals, forms and flows pinned bit for bit.

The digest is the sha256 of ``float.hex`` of every value below, for the
seeded random interval unions ``random_interval_union(RandomSetSpec(k_range=
(1, 6), seed=i))``, i < 200, at two parameter sets (the stability parameters
at level -1, whose barycenter coupling is weak, and eps = 3):

- the Euler residuals, ``lambda_fit`` and ``max_dev``;
- the second-variation matrix and its constraint vector;
- the finite endpoints of ``mass_preserving_flow(e, phi, 1e-3)`` for
  ``phi = (1/w_0, -1/w_1, 0, ...)``;

followed by the number of flows rejected as crossing a neighbor or leaving
the mass range.  It was recorded while the boundary was still built point by
point, before one function derived the first and second variation.  The
eigen-solve is left out: its last bits can depend on the CPU's LAPACK kernels.

The flow digest pins ``second_derivative_along_flow(e, params, phi)`` at the
default step for the same sets, ``phi`` and both parameter sets, followed by
the number of calls rejected because a step at +h or -h leaves the mass range
or crosses a neighbor.  It was recorded while each step rebuilt the boundary
with NumPy arithmetic.
"""

import hashlib

import numpy as np

from gaussiso.corpus import RandomSetSpec, random_interval_union
from gaussiso.functionals import FunctionalParams, stability_params
from gaussiso.special import gauss_weight
from gaussiso.stationarity import (
    euler_residual,
    mass_preserving_flow,
    second_derivative_along_flow,
    second_variation_form,
)

FROZEN_DIGEST = "55cfc5eb063965a1adf2ca96d70cb932455dbc2cc4f83b4b343c026f078b36b8"
FROZEN_REJECTED = 27

FROZEN_FLOW_DIGEST = "23254e4e960ddb36d2fd4aef951fb799cec8e30da148aaa089e865a819bd31c8"
FROZEN_FLOW_REJECTED = 36

PARAMS = (stability_params(-1.0), FunctionalParams(s=-1.0, eps=3.0, lambda_pen=1.0))


def hand_built_phi(e) -> np.ndarray:
    """``(1/w_0, -1/w_1, 0, ...)`` over the finite endpoints of ``e``."""
    ends = [x for iv in e.intervals for x in iv if np.isfinite(x)]
    phi = np.zeros(len(ends))
    for j, sign in enumerate((1.0, -1.0)[: len(ends)]):
        phi[j] = sign / gauss_weight(ends[j])
    return phi


def digest_feeder():
    digest = hashlib.sha256()

    def feed(values) -> None:
        for v in values:
            digest.update(float(v).hex().encode())
            digest.update(b" ")

    return digest, feed


def frozen_sets():
    return (random_interval_union(RandomSetSpec(k_range=(1, 6), seed=i)) for i in range(200))


def stationarity_digest() -> tuple[str, int]:
    digest, feed = digest_feeder()
    rejected = 0
    for e in frozen_sets():
        for params in PARAMS:
            report = euler_residual(e, params)
            feed(report.residuals)
            feed((report.lambda_fit, report.max_dev))
            form = second_variation_form(e, params)
            feed(form.matrix.ravel())
            feed(form.constraint)
        try:
            flowed = mass_preserving_flow(e, hand_built_phi(e), 1e-3)
        except ValueError:
            rejected += 1
        else:
            feed(x for iv in flowed.intervals for x in iv if np.isfinite(x))
    digest.update(str(rejected).encode())
    return digest.hexdigest(), rejected


def test_stationarity_digest_is_frozen():
    assert stationarity_digest() == (FROZEN_DIGEST, FROZEN_REJECTED)


def flow_digest() -> tuple[str, int]:
    digest, feed = digest_feeder()
    rejected = 0
    for e in frozen_sets():
        phi = hand_built_phi(e)
        for params in PARAMS:
            try:
                feed((second_derivative_along_flow(e, params, phi),))
            except ValueError:
                rejected += 1
    digest.update(str(rejected).encode())
    return digest.hexdigest(), rejected


def test_flow_second_derivative_is_frozen():
    assert flow_digest() == (FROZEN_FLOW_DIGEST, FROZEN_FLOW_REJECTED)
