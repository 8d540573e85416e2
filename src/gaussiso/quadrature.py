"""Adaptive quadrature over finite and infinite intervals.

This is the package's independent numerical oracle: every closed-form measure,
moment, and perimeter formula elsewhere is cross-checked against it, so it
shares no numerics with them; only its argument checks, and the elementwise
lift of :func:`adaptive_quad`'s scalar integrand (``special._elementwise``),
are ``special``'s. The rule is Gauss-Kronrod 7/15 with bisection; infinite
endpoints are mapped to a finite parameter by the rational substitution
x = a + t/(1-t), and (-inf, inf) is split at 0 and summed left then right.

One core, :func:`adaptive_quad_many`, integrates a vectorized integrand over
arrays of intervals in bisection rounds, in groups of ``_GROUP`` intervals.
The rows of a group that integrate f itself (finite intervals) and the rows
mapped onto a ray are bisected apart, so neither selects between the two
integrands per node. Each round evaluates the 15 nodes of every pending panel
of its rows as one (node, panel) array, so that each node's values, and each
weighted term of the Kronrod and Gauss sums, are one contiguous row. A panel
is accepted when its error estimate is within its width-proportional share of
the tolerance (or is zero, or hit the depth or the panel budget); otherwise
both halves join the next round. The decisions are per panel and the tolerance
per row, so each interval gets the leaves it would get alone, whatever else
is in its batch. :func:`adaptive_quad` is a batch of one with the scalar
integrand lifted elementwise.

``verify``'s measure oracle calls :func:`_chained_quad_many`, which integrates
each side's rays as one chain through their sorted anchors, for about a fifth
of the evaluations of integrating each ray alone.

A row whose leaves all read 0 although its whole-row estimate did not has
lost its mass between the nodes, as on a wide interval around a narrow
peak; its error is the whole-row estimate, so it reads not converged. A row
that misses only part of its mass, with some leaf nonzero, is not caught.

The summation order is fixed: each interval's leaves are added one after
another from 0.0 in descending order of their left endpoint, a split
``(-inf, inf)`` adds its left half's sum, then its right half's. A chained
ray adds its tail's value, then each piece's from the outermost inward, and
then the rounding errors of those additions, summed the same way, so a chain
of 10^5 rays keeps the accuracy of one ray. The margins that the suites and
the tests pin on the oracle's values depend on this order, so a change to it
is a change to those numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import _check_integer, _check_real, _elementwise

__all__ = ["QuadSettings", "QuadResult", "QuadBatch", "adaptive_quad", "adaptive_quad_many"]


@dataclass(frozen=True)
class QuadSettings:
    """Tolerances and bisection depth budget of the adaptive rule."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        _check_real(self.abs_tol, "QuadSettings: abs_tol", "positive")
        _check_real(self.rel_tol, "QuadSettings: rel_tol", "positive")
        _check_integer(self.max_depth, "QuadSettings: max_depth", 1)


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with an error estimate and a convergence flag.

    ``converged`` is False when the accumulated error estimate exceeds the
    tolerance, which happens when some panel hit the depth budget while its
    error estimate still exceeded its share of the tolerance.
    """

    value: float
    error: float
    converged: bool
    evals: int


@dataclass(frozen=True)
class QuadBatch:
    """Per-interval arrays of :func:`adaptive_quad_many`; entry i is interval i."""

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    evals: np.ndarray


# 15-point Kronrod nodes on [-1, 1] and their weights, with the embedded
# 7-point Gauss weights (nodes at the odd Kronrod indices).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

#: Intervals integrated together. Small groups keep every temporary array
#: small, so the allocator reuses freed memory: with the whole 10^4 corpus in
#: one group, the peak RSS of ``verify`` grew by up to 8%.
_GROUP = 1024

#: A finite interval ends within this, so every panel's center and width are finite.
_MAX_END = np.finfo(float).max / 2

#: Most panels a row evaluates in one round; ``verify``'s rows, chained or not, hold at most 8.
_MAX_PANELS = 2048

# Nodes in the order the rule reads them: the center, then the seven
# Kronrod abscissae to its left and the same seven to its right.
_OFFSETS = np.array([0.0] + [-x for x in _XGK[:7]] + list(_XGK[:7]))
# Weights of the center and of the seven node pairs, in summation order; the
# Gauss rule uses the center and the pairs at the odd Kronrod indices.
_KRONROD_WEIGHTS = np.array((_WGK[7],) + _WGK[:7])
_GAUSS_WEIGHTS = np.array((_WG[3],) + _WG[:3])


def _direct(f, t: np.ndarray) -> np.ndarray:
    """f itself at every node of a (node, panel) array t."""
    return np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)


def _mapped(f, sign: np.ndarray, anchor: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Integrand in the parameter t of panels mapped onto a ray, one column of t per panel.

    x = anchor + sign * t/(1-t) maps [0, 1) onto [anchor, inf) for sign +1
    and onto (-inf, anchor] for sign -1; the integrand is f(x)/(1-t)^2, and 0
    where x is infinite (a node that rounds to t = 1) or f(x) is 0.
    """
    u = 1.0 - t
    with np.errstate(divide="ignore", invalid="ignore"):
        x = anchor + sign * (t / u)
    live = ~np.isinf(x)
    if live.all():
        fx = _direct(f, x)
    else:
        fx = np.zeros_like(t)
        fx[live] = f(x[live])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(fx == 0.0, 0.0, fx / (u * u))


def _gk15(integrand, row: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod 7/15 on every panel at once; returns (estimate, error_estimate).

    Panel j spans [lo[j], hi[j]] of row ``row[j]``; ``integrand(row, t)``
    evaluates the (node, panel) array t, so each node's values are one
    contiguous row.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # half * (-x) is exactly -(half * x), so the left nodes are center - half*x
    t = center + half * _OFFSETS[:, None]
    ft = integrand(row, t)
    # row 0 is f(center), row j+1 is f(center - dx_j) + f(center + dx_j)
    pairs = np.empty((8, lo.size))
    pairs[0] = ft[0]
    np.add(ft[1:8], ft[8:], out=pairs[1:])
    # the weighted rows are added one at a time, top to bottom: the
    # one-panel rule's order, which a column reduction would not keep
    kronrod = functools.reduce(np.add, pairs * _KRONROD_WEIGHTS[:, None]) * half
    gauss = functools.reduce(np.add, pairs[::2] * _GAUSS_WEIGHTS[:, None]) * half
    return kronrod, np.abs(kronrod - gauss)


def _sum_leaves(rows: int, row, lo, est, err):
    """Per-row (value, error, leaf count), leaves summed in descending left endpoint.

    ``bincount`` adds each row's weights one after another in the order
    given, from 0.0. Two leaves share a left endpoint only when one has zero
    width; with a finite integrand its estimate and error are zero, so their
    order does not matter.
    """
    order = np.lexsort((-lo, row))
    row = row[order]
    value = np.bincount(row, est[order], minlength=rows)
    error = np.bincount(row, err[order], minlength=rows)
    return value, error, np.bincount(row, minlength=rows)


def adaptive_quad_many(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    settings: QuadSettings | None = None,
) -> QuadBatch:
    """Integrate a vectorized ``f`` over each interval (lo[i], hi[i]).

    ``f`` maps a 1-D float array to an array of the same shape; it is never
    called at an infinite point. Endpoints may be infinite, and lo[i] == hi[i]
    gives 0 with no evaluations. Requires lo <= hi elementwise, and a finite
    interval's endpoints within half the float range; a ray may have any
    finite anchor. Lack of convergence is reported per interval through
    ``converged``, not raised.
    """
    if settings is None:
        settings = QuadSettings()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"adaptive_quad_many: lo and hi must be 1-D of one shape, got {lo.shape} and {hi.shape}"
        )
    if (np.isnan(lo) | np.isnan(hi)).any():
        raise ValueError("adaptive_quad: endpoints must not be NaN")
    if (lo > hi).any():
        i = int(np.argmax(lo > hi))
        raise ValueError(
            f"adaptive_quad: requires a <= b, got a={float(lo[i])!r} > b={float(hi[i])!r}"
        )
    too_far = np.isfinite(lo) & np.isfinite(hi) & ((np.abs(lo) > _MAX_END) | (np.abs(hi) > _MAX_END))
    if too_far.any():
        i = int(np.argmax(too_far))
        raise ValueError(
            f"adaptive_quad: the finite interval ({float(lo[i])!r}, {float(hi[i])!r}) has an endpoint beyond "
            f"{_MAX_END:.4g}, where a panel's width or center overflows the float range"
        )

    n = lo.size
    out = QuadBatch(
        value=np.empty(n),
        error=np.empty(n),
        converged=np.empty(n, dtype=bool),
        evals=np.empty(n, dtype=np.int64),
    )
    for start in range(0, n, _GROUP):
        part = slice(start, start + _GROUP)
        out.value[part], out.error[part], out.converged[part], out.evals[part] = _integrate(
            f, lo[part], hi[part], settings
        )
    return out


def _chained_quad_many(quad_many, f, lo: np.ndarray, hi: np.ndarray, settings: QuadSettings) -> QuadBatch:
    """``quad_many`` (:func:`adaptive_quad_many` or a stand-in, called once) of the intervals, rays chained.

    The right rays (a, inf), by ascending anchor, and the left rays (-inf, b),
    by descending anchor, become the pieces between neighbouring anchors and
    one tail beyond the outermost, integrated with the other intervals, which
    keep their bits. A ray's value and error sum its tail and the pieces out
    to it; its ``evals`` are its own piece's or tail's, so they total the work
    done. A ray anchored beyond ``_MAX_END`` is integrated alone.
    """
    right = (hi == np.inf) & (np.abs(lo) <= _MAX_END)
    left = (lo == -np.inf) & (np.abs(hi) <= _MAX_END)
    rest, r, l = np.flatnonzero(~(right | left)), np.flatnonzero(right), np.flatnonzero(left)
    r, l = r[np.argsort(lo[r], kind="stable")], l[np.argsort(-hi[l], kind="stable")]
    q_lo = np.concatenate([lo[rest], lo[r], hi[l][1:], [-np.inf][: l.size]])
    q_hi = np.concatenate([hi[rest], lo[r][1:], [np.inf][: r.size], hi[l]])
    q = quad_many(f, q_lo, q_hi, settings)
    # q's rows are rest, then each chain from its innermost anchor out to its tail
    for part in (slice(rest.size, rest.size + r.size), slice(rest.size + r.size, None)):
        q.value[part], q.error[part] = _sums_from_the_tail(q.value[part]), _sums_from_the_tail(q.error[part])
        q.converged[part] = _converged(q.value[part], q.error[part], settings)
    back = np.empty(lo.size, dtype=np.intp)
    back[np.concatenate([rest, r, l])] = np.arange(lo.size)
    return QuadBatch(q.value[back], q.error[back], q.converged[back], q.evals[back])


def _sums_from_the_tail(x: np.ndarray) -> np.ndarray:
    """Each ``x[i:].sum()``, added from the last term inward and compensated (Sum2 of Ogita, Rump and Oishi)."""
    w = x[::-1]
    s = np.cumsum(w)
    before = np.concatenate([[0.0], s[:-1]])
    z = s - before
    return (s + np.cumsum((before - (s - z)) + (w - z)))[::-1]


def _converged(value: np.ndarray, error: np.ndarray, settings: QuadSettings) -> np.ndarray:
    """Whether each accumulated error is within its tolerance."""
    return error <= np.maximum(settings.abs_tol, settings.rel_tol * np.abs(value))


def _integrate(f, lo: np.ndarray, hi: np.ndarray, settings: QuadSettings):
    """Per-interval (value, error, converged, evals) of one group of intervals."""
    # Rows: one per nonempty interval; (-inf, inf) gets a second row, its
    # left row being (-inf, 0) and its right row (0, inf).
    nonempty = np.flatnonzero(lo < hi)
    a, b = lo[nonempty], hi[nonempty]
    both = np.isinf(a) & np.isinf(b)
    owner = np.concatenate([nonempty, nonempty[both]])
    row_a = np.concatenate([a, np.zeros(int(both.sum()))])
    row_b = np.concatenate([np.where(both, 0.0, b), b[both]])
    upper, lower = np.isinf(row_b), np.isinf(row_a)
    # Rows on a ray integrate f(x)/(1-t)^2 over t in [0, 1), the others f
    # itself; the decisions are per panel and the tolerance per row, so
    # bisecting the two kinds apart gives every row its leaves.
    mapped = upper | lower
    direct, ray = np.flatnonzero(~mapped), np.flatnonzero(mapped)
    sign = upper[ray] * 1.0 - lower[ray] * 1.0
    anchor = np.where(upper, row_a, row_b)[ray]
    value, error = np.empty(owner.size), np.empty(owner.size)
    evals = np.empty(owner.size, dtype=np.int64)
    for part, integrand, p_lo, p_hi in (
        (direct, lambda row, t: _direct(f, t), row_a[direct], row_b[direct]),
        (ray, lambda row, t: _mapped(f, sign[row], anchor[row], t), np.zeros(ray.size), np.ones(ray.size)),
    ):
        if part.size:
            value[part], error[part], evals[part] = _bisect(integrand, p_lo, p_hi, settings)
    # Convergence is judged on the accumulated error: localized features (an
    # integrable endpoint singularity) can leave single panels over their
    # share at the depth budget while the total is well inside tolerance.
    row_converged = _converged(value, error, settings)

    # Fold rows into intervals; a split interval's right row comes second in
    # ``owner``, so it is added second.
    n = lo.size
    return (
        np.bincount(owner, value, minlength=n),
        np.bincount(owner, error, minlength=n),
        np.bincount(owner, ~row_converged, minlength=n) == 0,
        np.bincount(owner, evals, minlength=n).astype(np.int64),
    )


def _bisect(integrand, p_lo, p_hi, settings: QuadSettings):
    """Per-row (value, error, evals) of the adaptive rule on [p_lo, p_hi] of ``integrand``.

    A panel is a leaf when its error is within ``tol * width / total_width``,
    is zero, or the panel is at ``max_depth`` or in a row whose halves would
    pass ``_MAX_PANELS``; every other panel is bisected and both halves are
    evaluated in the next round. ``tol`` is fixed by the
    whole-row estimate, and every pending panel of a round has the same depth.
    A row whose leaves sum to 0.0 where the whole-row estimate is nonzero
    takes that estimate's size as its error.
    """
    rows = p_lo.size
    row = np.arange(rows)
    whole, err0 = _gk15(integrand, row, p_lo, p_hi)
    tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(whole))
    total_width = p_hi - p_lo
    pan_lo, pan_hi, est, err = p_lo, p_hi, whole, err0
    depth = 0
    leaves = []
    while True:
        budget = tol[row] * ((pan_hi - pan_lo) / total_width[row])
        done = (err <= budget) | (err == 0.0) | (depth >= settings.max_depth)
        # no row can pass the panel budget unless the whole round does
        if 2 * (done.size - np.count_nonzero(done)) > _MAX_PANELS:
            done |= (2 * np.bincount(row[~done], minlength=rows) > _MAX_PANELS)[row]
        leaves.append((row[done], pan_lo[done], est[done], err[done]))
        if done.all():
            break
        split = ~done
        row, pan_lo, pan_hi = row[split], pan_lo[split], pan_hi[split]
        mid = 0.5 * (pan_lo + pan_hi)
        row = np.concatenate([row, row])
        pan_lo, pan_hi = np.concatenate([pan_lo, mid]), np.concatenate([mid, pan_hi])
        est, err = _gk15(integrand, row, pan_lo, pan_hi)
        depth += 1
    leaves = [np.concatenate(c) for c in zip(*leaves)]
    value, error, count = _sum_leaves(rows, *leaves)
    error = np.where((value == 0.0) & (whole != 0.0), np.abs(whole), error)
    # a row with n leaves had n - 1 bisections: 15 evaluations, then 30 each
    return value, error, 30 * count - 15


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    settings: QuadSettings | None = None,
) -> QuadResult:
    """Integrate a scalar ``f`` over (a, b); either endpoint may be infinite.

    Requires a <= b. The integrand must decay at infinite endpoints for the
    substitution to converge; lack of convergence is reported through the
    ``converged`` flag rather than raised.
    """
    r = adaptive_quad_many(functools.partial(_elementwise, f), [a], [b], settings)
    return QuadResult(
        value=float(r.value[0]),
        error=float(r.error[0]),
        converged=bool(r.converged[0]),
        evals=int(r.evals[0]),
    )
