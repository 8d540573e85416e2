"""Frozen digest of the face search: every output of 600 ``minimize`` calls.

Every call's barycenter weight is below 2 pi, where the sublevel bound of
``gaussiso.optimize`` is infinite, so the exact face search alone decides it.
The digest is a SHA-256 over every field of every outcome, floats as
``float.hex``: the best set, its value, the target and achieved masses, the
half-line's value and verdict, and every piece's diagnostic (template, kind,
first grid value, final value, convergence, evaluation count, endpoints).

The sweep crosses 24 levels from -37.5 to 37.5 with five barycenter weights
up to 6.28 and five mass penalties from 0 to 50, at ``k_max`` 1 to 4 in turn.
It takes in deep levels, where a kink face has no symmetric set, and a zero
mass penalty, where the kink faces still run. The digest was recorded while
the grid was still evaluated point by point through the scalar objective,
before it became one batch, and pins that the batch keeps every bit.
"""

import hashlib

from gaussiso.functionals import FunctionalParams
from gaussiso.optimize import minimize_penalized_functional

LEVELS = (-37.5, -20.0, -9.0, -6.5, -4.0, -3.0, -2.2, -1.5, -1.0, -0.6, -0.25, -1e-3,
          0.0, 1e-3, 0.3, 0.75, 1.2, 2.0, 2.9, 4.5, 7.0, 10.0, 25.0, 37.5)
EPS = (0.0, 0.4, 2.5, 5.0, 6.28)
LAMBDAS = (0.0, 0.3, 1.7, 8.0, 50.0)

FROZEN_DIGEST = "bc3638b6c209c526288d7eb196ee3d179c069a1616ddbc23c875ea4a3844fb6b"


def _hex(x: float) -> str:
    return float(x).hex()


def outcome_lines():
    """One line per outcome field and per piece diagnostic of the sweep."""
    index = 0
    for s in LEVELS:
        for eps in EPS:
            for lam in LAMBDAS:
                k_max = 1 + index % 4
                index += 1
                out = minimize_penalized_functional(s, FunctionalParams(s=s, eps=eps, lambda_pen=lam), k_max=k_max)
                yield repr((
                    _hex(s), _hex(eps), _hex(lam), k_max,
                    [(_hex(lo), _hex(hi)) for lo, hi in out.best_set.intervals],
                    _hex(out.best_value), _hex(out.target_mass), _hex(out.achieved_mass),
                    _hex(out.half_line_value), out.half_line_optimal,
                ))
                for d in out.starts:
                    yield repr((
                        d.template, d.kind, _hex(d.start_value), _hex(d.final_value),
                        d.converged, d.evaluations, tuple(map(_hex, d.endpoints)),
                    ))


def digest() -> str:
    h = hashlib.sha256()
    for line in outcome_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_sweep_size():
    assert len(LEVELS) * len(EPS) * len(LAMBDAS) == 600
    assert max(EPS) < 2.0 * 3.141592653589793


def test_face_search_digest():
    assert digest() == FROZEN_DIGEST
