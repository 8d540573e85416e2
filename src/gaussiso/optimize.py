"""Minimization of the penalized functional over k-interval configurations.

The search space is the family of interval unions with at most ``k_max``
components, parameterized per template (an optional left ray, an optional
right ray, and a number of bounded intervals) by the vector of finite
endpoints in increasing order. An exact face search runs on every call; a
multistart simplex search replaces its result only where a sublevel bound
does not prove the faces complete. Both evaluate F from the closed-form
endpoint sums of ``functionals._penalized``, so no set is built per
evaluation.

Why the face search is complete. Write ``u_i = Phi(x_i)`` for the finite
endpoints, ``nu_i = +-1`` for their outer normals and ``w_i`` for their
weights ``exp(-x_i^2/2)``. The mass is linear in ``u``, and off the mass
kink ``gamma(E) = Phi(params.s)`` the Hessian of F in ``u`` is

    H = diag((-2 pi + sqrt(2 pi) eps b nu_i) / w_i) + eps (nu x)(nu x)^T.

This is the second variation of :mod:`gaussiso.stationarity` in other
coordinates: ``mass_preserving_flow`` moves ``u`` along the line
``u + t D phi / sqrt(2 pi)`` with ``D = diag(nu_i w_i)``, so its form is
``J = D H D / (2 pi)``, and the completeness argument and the stationarity
layer read one derivation.

At a set with ``sqrt(2 pi) eps |b| < 2 pi`` the diagonal is negative
definite, and a rank-one update leaves at most one eigenvalue ``>= 0``. So
no local minimum there has two or more endpoints off the kink. On the kink F
is smooth along the kink hyperplane, and restricting to a hyperplane removes
at most one negative eigenvalue, so no local minimum there has three or more
endpoints on it. Endpoints that collide or escape to +-inf give a template
with fewer endpoints. A global minimizer over the templates up to ``k_max``
that lies there is therefore on one of four one-dimensional faces: the left
ray ``(-inf, x)``, the right ray ``(x, inf)``, the bounded interval on the
kink, and (for ``k_max >= 2``) the two-ray set on the kink.

Since ``|b| <= 1/sqrt(2 pi)`` for every set, every set is there when
eps < 2 pi. For eps >= 2 pi, take a set with ``sqrt(2 pi) eps |b| >= 2 pi``
and mass m, and write ``I(m) = exp(-Phi^{-1}(m)^2/2)``. Barycenter
maximality gives ``I(m) >= sqrt(2 pi) |b| >= 2 pi / eps``, so
``|Phi^{-1}(m)| <= r = sqrt(2 ln(eps / 2 pi))``; Gaussian isoperimetry gives
``P >= I(m)``; and ``(eps/2) b^2 >= pi / eps``. ``I(m) + lambda_pen |m -
Phi(s)|`` is concave on each side of ``Phi(s)``, so the set has F >= B, the
sublevel bound ``pi / eps`` plus the least of ``exp(-t^2/2) + lambda_pen
|Phi(t) - Phi(s)|`` over t in ``{-r, r}``, and t = s where ``|s| <= r``
(:func:`_sublevel_bound`; B is +inf below 2 pi). A global minimizer has F at
most V, the best value on the faces. So where B > V, it has a negative
diagonal and lies on the faces. The search keeps the faces where B exceeds V
by the relative margin ``_BOUND_MARGIN``, which covers rounding in both, and
runs the simplex search where it does not.

F is invariant under the reflection ``x -> -x``. It maps the right ray
``(-x, inf)`` onto the left ray ``(-inf, x)``, value for value, so only the
left ray is searched and a ray minimizer is reported as ``(-inf, x)``. It
maps each kink face onto itself, so each kink face is searched in its left
endpoint, from its symmetric set outward. Every piece is a grid followed by
a golden-section refinement inside each strict interior grid minimum deeper
than the tie margin; the left ray's two pieces start at its kink point.
All grids are evaluated as one batch, bit for bit with the scalar objective
that the golden section and the simplex search call point by point, and that
alone prices an invalid layout. The face templates are module constants.

The simplex search is an in-house non-adaptive Nelder-Mead on Python lists
with the floating-point operations of SciPy's ``minimize(method=
"Nelder-Mead")``, run from deterministic and random multistart
initializations per template; ordering is enforced by penalization inside
the objective so the search stays unconstrained. Vertices are ordered by a
stable sort, so vertices with tied values keep their order and every result
is the same on every machine. Random start ``i`` draws from
``default_rng([seed, i])``. Both searches compare every set with the one
target mass ``params.target`` and start from the same named sets, decided
once by ``_named_starts``.

The module also provides the mass-dependence sweep of the
deficit-to-asymmetry ratio along the two-ray family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalParams, _penalized, max_barycenter_norm
from .sets import (
    IntervalUnion1D,
    _line_rows,
    _pairs,
    _profile_sums,
    _rows,
    measure,
    symmetric_interval_halfwidth,
    two_ray_endpoint,
)
from .special import (
    SQRT_2PI, _SQRT_MIN_NORMAL, _check_integer, _check_real, _gauss_cdf_inv_many, _gauss_cdf_many,
    gauss_cdf, gauss_cdf_inv, gauss_weight,
)

__all__ = [
    "IntervalTemplate",
    "OptimizerSettings",
    "StartDiagnostic",
    "MinimizeOutcome",
    "MassSweepRow",
    "enumerate_templates",
    "minimize_penalized_functional",
    "mass_sweep",
]

#: Adjacent decoded endpoints closer than this are treated as an ordering
#: violation and penalized; kept above the set-invariant merge tolerance so
#: penalized configurations are never materialized as sets.
_MIN_SEPARATION = 1e-8

#: Objective value assigned to configurations violating the ordering.
_ORDER_PENALTY = 1e6

#: A search stops once every simplex vertex lies within this of the best
#: one, coordinate by coordinate, and every vertex value within _F_TOL.
_STEP_TOL = 1e-10

#: Value tolerance of the stopping test; also the margin within which a
#: value counts as tied with the best, and, relative to the half-line's
#: value, with the half-line's.
_F_TOL = 1e-12

#: The face search stands when the sublevel bound exceeds its best value by
#: more than this, relative to that value (module docstring).
_BOUND_MARGIN = 1e-9

#: Objective evaluations a simplex search may spend from one start.
_BUDGET = 10000

#: Component cap of :func:`minimize_penalized_functional` and of ``minimize --kmax``.
_K_MAX = 3

#: Points of the grid each face piece is evaluated on, its ends included.
_GRID_POINTS = 120

#: The faces reach this far past ``|params.s|``: beyond it exp(-x^2/2) and
#: the Gaussian tail are below 3e-18, so F is within that of its limit.
_REACH = 9.0

#: Largest |s| that :func:`minimize_penalized_functional` takes: the face grids
#: span 2 (|s| + _REACH), and their last points overflow from about 8.9885e307 on.
_MAX_LEVEL = 8.98e307

#: Golden-section shrink factor, and an iteration cap that a grid bracket
#: never reaches before its width falls below _STEP_TOL.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 100

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class IntervalTemplate:
    """Shape of a k-interval configuration: rays at either end plus bounded pieces."""

    left_ray: bool
    right_ray: bool
    bounded: int

    def __post_init__(self) -> None:
        if self.bounded < 0:
            raise ValueError(f"bounded interval count must be nonnegative, got {self.bounded}")
        if self.components < 1:
            raise ValueError("a template needs at least one component")

    @property
    def components(self) -> int:
        return int(self.left_ray) + int(self.right_ray) + self.bounded

    @property
    def dimension(self) -> int:
        """Number of finite endpoints parameterizing the template."""
        return int(self.left_ray) + int(self.right_ray) + 2 * self.bounded

    def describe(self) -> str:
        parts = []
        if self.left_ray:
            parts.append("left-ray")
        parts.extend(["bounded"] * self.bounded)
        if self.right_ray:
            parts.append("right-ray")
        return "+".join(parts)

    def _rays(self) -> tuple[list[float], list[float]]:
        """The infinite endpoints around the finite ones: the head, then the tail."""
        return ([-math.inf] if self.left_ray else []), ([math.inf] if self.right_ray else [])

    def decode(self, endpoints: np.ndarray) -> IntervalUnion1D:
        """Materialize the configuration; raises ValueError on invalid layouts."""
        theta = np.asarray(endpoints, dtype=float)
        if theta.shape != (self.dimension,):
            raise ValueError(
                f"template {self.describe()} needs {self.dimension} endpoints, got shape {theta.shape}"
            )
        head, tail = self._rays()
        return IntervalUnion1D(intervals=_pairs(head + theta.tolist() + tail))


def _check_component_cap(k_max) -> int:
    """``k_max`` as an int; refuses a non-integer or one outside [1, 4]."""
    k_max = _check_integer(k_max, "component cap")
    if not 1 <= k_max <= 4:
        raise ValueError(f"component cap must lie in [1, 4], got {k_max}")
    return k_max


def enumerate_templates(k_max: int) -> tuple[IntervalTemplate, ...]:
    """Every template with between 1 and ``k_max`` components, in stable order."""
    k_max = _check_component_cap(k_max)
    templates = []
    for k in range(1, k_max + 1):
        for left in (True, False):
            for right in (True, False):
                bounded = k - int(left) - int(right)
                if bounded >= 0:
                    templates.append(IntervalTemplate(left_ray=left, right_ray=right, bounded=bounded))
    return tuple(templates)


#: The face templates, which are also the shapes of the named competitor starts.
_LEFT_RAY = IntervalTemplate(left_ray=True, right_ray=False, bounded=0)
_BOUNDED = IntervalTemplate(left_ray=False, right_ray=False, bounded=1)
_TWO_RAY = IntervalTemplate(left_ray=True, right_ray=True, bounded=0)


@dataclass(frozen=True)
class OptimizerSettings:
    """Multistart simplex-search configuration, read only where the bound does not certify the faces."""

    multistarts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer(self.multistarts, "multistarts", 1)
        _check_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class StartDiagnostic:
    """Outcome of one simplex start or of one searched face piece."""

    template: str
    kind: str
    start_value: float
    final_value: float
    converged: bool
    evaluations: int
    endpoints: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class MinimizeOutcome:
    """Global result of the search, with one diagnostic per start or face piece."""

    best_set: IntervalUnion1D
    best_value: float
    target_mass: float
    achieved_mass: float
    half_line_value: float
    half_line_optimal: bool
    starts: tuple[StartDiagnostic, ...]


def _endpoint_objective(template: IntervalTemplate, params: FunctionalParams):
    """The search objective of one template, on a list of endpoints.

    Non-finite endpoints cost ``2 * _ORDER_PENALTY``; adjacent endpoints
    closer than ``_MIN_SEPARATION`` cost ``_ORDER_PENALTY`` times one plus
    the shortfalls added left to right. Any other list is a valid layout, so
    F comes straight from its ``(lo, hi)`` pairs without building a set.
    """
    head, tail = template._rays()

    def objective(theta: list[float]) -> float:
        if not all(map(math.isfinite, theta)):
            return 2.0 * _ORDER_PENALTY
        shortfall = 0.0
        for lo, hi in zip(theta, theta[1:]):
            gap = _MIN_SEPARATION - (hi - lo)
            if gap > 0.0:
                shortfall += gap
        if shortfall > 0.0:
            return _ORDER_PENALTY * (1.0 + shortfall)
        mass, perim, b, _, _ = _profile_sums(_pairs(head + theta + tail))
        return _penalized(mass, perim, b, params)

    return objective


class _BudgetExhausted(Exception):
    """The evaluation budget of a simplex search ran out."""


def _nelder_mead(objective, x0: list[float]) -> tuple[list[float], float, int, bool]:
    """Non-adaptive Nelder-Mead on lists: ``(x, fun, evaluations, success)``.

    Step for step the simplex search of SciPy 1.17.1's
    ``minimize(method="Nelder-Mead")`` with ``maxiter = maxfev = _BUDGET``,
    ``xatol = _STEP_TOL`` and ``fatol = _F_TOL``, and with the same
    floating-point operations: the initial simplex ``1.05 x_k``
    (``0.00025`` where ``x_k`` is 0), reflection, expansion, contraction and
    shrink coefficients 1, 2, 0.5 and 0.5, the centroid as a left-to-right
    row sum divided by N, and the ``xatol`` / ``fatol`` stopping test. Only
    the vertex order can differ: a stable sort keeps tied vertices in place,
    where SciPy's unstable sort may swap them. An
    evaluation past the budget stops the search mid-iteration, keeping the
    vertices already moved. SciPy's iteration cap never binds: after the N+1
    evaluations of the initial simplex every iteration costs at least one
    more, so the evaluation budget runs out first.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    evaluations = 0

    def f(x: list[float]) -> float:
        nonlocal evaluations
        if evaluations >= _BUDGET:
            raise _BudgetExhausted
        evaluations += 1
        return objective(x)

    def by_value() -> None:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetExhausted:
        pass
    by_value()

    while evaluations < _BUDGET:
        try:
            best = sim[0]
            small_steps = all(abs(v - b) <= _STEP_TOL for row in sim[1:] for v, b in zip(row, best))
            if small_steps and all(abs(fsim[0] - fv) <= _F_TOL for fv in fsim[1:]):
                break
            xbar = sim[0]
            for row in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, row)]
            xbar = [a / n for a in xbar]
            worst = sim[-1]
            xr = [2 * a - b for a, b in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    # inside contraction
                    xcc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                        fsim[j] = f(sim[j])
        except _BudgetExhausted:
            pass
        by_value()

    return sim[0], fsim[0], evaluations, evaluations < _BUDGET


def _named_starts(params: FunctionalParams, k_max: int) -> list[tuple[IntervalTemplate, str, list[float]]]:
    """``(template, kind, endpoints)`` of the named sets of mass
    ``params.target``, from which both searches start: the half-line
    ``(-inf, s)``, and where ``0 < params.target < 1`` and their endpoints
    are finite, the two-ray set ``(-inf, a) u (-a, inf)`` (if ``k_max >= 2``)
    and the origin-symmetric interval ``(-q, q)``. From about s = -8.21 down
    ``q`` is 0.0, so that interval is empty and starts at ``[-0.0, 0.0]``."""
    starts = [(_LEFT_RAY, "half-line", [params.s])]
    if 0.0 < params.target < 1.0:
        a = two_ray_endpoint(params.s)
        q = symmetric_interval_halfwidth(params.s)
        if k_max >= 2 and math.isfinite(a):
            starts.append((_TWO_RAY, "two-ray", [a, -a]))
        if math.isfinite(q):
            starts.append((_BOUNDED, "symmetric-interval", [-q, q]))
    return starts


def _multistart_search(
    params: FunctionalParams,
    templates: tuple[IntervalTemplate, ...],
    settings: OptimizerSettings,
) -> list[tuple[IntervalTemplate, StartDiagnostic]]:
    """The simplex search from every random and named start, one diagnostic each."""
    planned: list[tuple[IntervalTemplate, str, list[float]]] = []
    per_template, extra = divmod(settings.multistarts, len(templates))
    randoms = [template for j, template in enumerate(templates) for _ in range(per_template + (j < extra))]
    for i, template in enumerate(randoms):
        rng = np.random.default_rng([settings.seed, i])
        theta0 = np.sort(rng.normal(loc=0.0, scale=2.0, size=template.dimension))
        planned.append((template, "random", theta0.tolist()))
    planned.extend(_named_starts(params, max(t.components for t in templates)))

    searched = []
    for template, kind, theta0 in planned:
        objective = _endpoint_objective(template, params)
        x, fun, evaluations, success = _nelder_mead(objective, theta0)
        final_value = fun if math.isfinite(fun) else math.inf
        diagnostic = StartDiagnostic(
            template=template.describe(),
            kind=kind,
            start_value=objective(theta0),
            final_value=final_value,
            converged=success and math.isfinite(final_value),
            evaluations=evaluations,
            endpoints=tuple(x),
        )
        searched.append((template, diagnostic))
    return searched


def _golden_section(g, a: float, c: float) -> tuple[float, float, bool]:
    """Shrink the bracket ``[a, c]`` (in either order) around a minimum of
    ``g`` by golden section until it is narrower than _STEP_TOL:
    ``(value, t, converged)`` of the lowest point evaluated."""
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    f1, f2 = g(x1), g(x2)
    best = min((f1, x1), (f2, x2))
    for _ in range(_GOLDEN_ITERS):
        if abs(c - a) <= _STEP_TOL:
            break
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLDEN * (c - a)
            f1 = g(x1)
            best = min(best, (f1, x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (c - a)
            f2 = g(x2)
            best = min(best, (f2, x2))
    return best[0], best[1], abs(c - a) <= _STEP_TOL


def _search_piece(
    template, kind, objective, endpoints_of, grid: list[float], values: list[float]
) -> StartDiagnostic:
    """Take the objective's ``values`` on the face piece ``t ->
    endpoints_of(t)`` at ``grid``, then refine every strict interior grid
    minimum deeper than _F_TOL by golden section."""
    evaluations = len(grid)

    def g(t: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective(endpoints_of(t))

    best = min(zip(values, grid))
    converged = True
    for left, mid, right, a, c in zip(values, values[1:], values[2:], grid, grid[2:]):
        # near a minimum F is quadratic, so refining gains at most a quarter
        # of the dip: a dip within _F_TOL is rounding noise
        if mid < left and mid < right and max(left, right) - mid > _F_TOL:
            value, t, refined = _golden_section(g, a, c)
            best = min(best, (value, t))
            converged = converged and refined
    return StartDiagnostic(
        template=template.describe(),
        kind=kind,
        start_value=values[0],
        final_value=best[0],
        converged=converged,
        evaluations=evaluations,
        endpoints=tuple(endpoints_of(best[1])),
    )


def _grid_values(grids, params: FunctionalParams) -> list[list[float]]:
    """``_endpoint_objective`` at every row of every grid, bit for bit;
    ``grids`` holds ``(template, columns)``, the rows' finite endpoints from
    left to right. The valid rows (finite, adjacent endpoints at least
    ``_MIN_SEPARATION`` apart) of all grids go through ``sets._rows`` as one
    batch of line rows, and the scalar objective prices the others. A grid
    whose rows are all valid skips the masks.
    """
    kept, points, counts = [], [], []
    with np.errstate(invalid="ignore"):  # inf - inf, on rows that are not finite
        for template, columns in grids:
            n = len(columns[0])
            valid = np.isfinite(columns[0])
            for lo, hi in zip(columns, columns[1:]):
                # the negation of the scalar's _MIN_SEPARATION - (hi - lo) > 0
                valid &= np.isfinite(hi) & (hi - lo >= _MIN_SEPARATION)
            head, tail = template._rays()
            layout = np.column_stack([np.full(n, x) for x in head] + list(columns) + [np.full(n, x) for x in tail])
            k = np.count_nonzero(valid)
            kept.append((valid, k))
            points.append(layout.ravel() if k == n else layout[valid].ravel())
            counts.append(np.full(k, template.components))
    points, counts = np.concatenate(points), np.concatenate(counts)
    mass, perim, b, _ = _rows(_line_rows(counts, points))
    f = _penalized(mass, perim, b, params, np.sqrt)
    values, start = [], 0
    for (template, columns), (valid, k) in zip(grids, kept):
        if k == len(valid):
            values.append(f[start:start + k].tolist())
        else:
            value = np.empty(len(valid))
            value[valid] = f[start:start + k]
            objective = _endpoint_objective(template, params)
            value[~valid] = [objective(row) for row in np.column_stack(columns)[~valid].tolist()]
            values.append(value.tolist())
        start += k
    return values


def _face_search(params: FunctionalParams, k_max: int) -> list[tuple[IntervalTemplate, StartDiagnostic]]:
    """Search the faces that hold every minimizer where the sublevel bound
    certifies them (module docstring), one diagnostic per searched piece.

    The pieces start from the named sets of :func:`_named_starts`. The left
    ray, which stands for its mirror image the right ray, is searched from
    the half-line out to ``|params.s| + 9`` on the side of smaller mass
    (kind ``below-kink``) and on the side of larger mass (``above-kink``).
    The bounded and the two-ray face (``kink``), where named, are searched in
    their left endpoint ``a``, from the symmetric set on the kink down to
    ``-(|params.s| + 9)``; the mass equation gives the right endpoint. A
    piece's ``evaluations`` counts its objective evaluations, its
    ``start_value`` is the first of them, and it has ``converged`` when every
    golden-section bracket narrowed below 1e-10. Each face's endpoint map
    takes the normal CDF and its inverse: the grids read it through the
    vector ones, the golden section through the scalar ones.
    """
    reach = abs(params.s) + _REACH

    def ray(x, cdf, inv):
        return [x]

    def bounded(a, cdf, inv):
        # Phi(b) - Phi(a) = target
        return [a, inv(cdf(a) + params.target)]

    def two_ray(a, cdf, inv):
        # Phi(a) + Phi(-b) = target
        return [a, -inv(params.target - cdf(a))]

    named = {template: theta[0] for template, _, theta in _named_starts(params, k_max)}
    pieces = [
        (_LEFT_RAY, "below-kink", ray, named[_LEFT_RAY], -reach),
        (_LEFT_RAY, "above-kink", ray, named[_LEFT_RAY], reach),
    ]
    pieces += [
        (template, "kink", face, named[template], -reach)
        for template, face in ((_BOUNDED, bounded), (_TWO_RAY, two_ray))
        if template in named
    ]
    grids = [np.linspace(start, stop, _GRID_POINTS) for *_, start, stop in pieces]
    grid_values = _grid_values([(template, face(grid, _gauss_cdf_many, _gauss_cdf_inv_many))
                                for (template, _, face, *_), grid in zip(pieces, grids)], params)
    return [
        (template, _search_piece(template, kind, _endpoint_objective(template, params),
                                 lambda t, face=face: face(t, gauss_cdf, gauss_cdf_inv), grid.tolist(), values))
        for (template, kind, face, *_), grid, values in zip(pieces, grids, grid_values)
    ]


def _sublevel_bound(params: FunctionalParams) -> float:
    """The sublevel bound B of the module docstring: F >= B on every set with
    ``sqrt(2 pi) eps |b| >= 2 pi``, and +inf where eps < 2 pi leaves no such set."""
    if params.eps < 2.0 * math.pi:
        return math.inf
    r = math.sqrt(2.0 * math.log(params.eps / (2.0 * math.pi)))
    values = [gauss_weight(t) + params.lambda_pen * abs(gauss_cdf(t) - params.target) for t in (-r, r)]
    if abs(params.s) <= r:
        # at t = s the mass term is 0
        values.append(gauss_weight(params.s))
    return math.pi / params.eps + min(values)


def minimize_penalized_functional(
    s: float,
    params: FunctionalParams,
    k_max: int = _K_MAX,
    settings: OptimizerSettings = OptimizerSettings(),
) -> MinimizeOutcome:
    """Minimize F over all templates up to ``k_max``.

    :func:`_face_search` runs first, with one diagnostic per searched piece.
    Where the sublevel bound exceeds its best value (module docstring),
    every minimizer lies on the faces it searched completely: its result
    stands, ``settings`` is not read, a ray minimizer is reported as the left
    ray ``(-inf, x)``, and the half-line at ``params.s`` is that ray's kink
    point.

    Where the bound does not certify the faces, a Nelder-Mead simplex search
    replaces that result. It runs from ``settings.multistarts``
    random initializations (Gaussian endpoint proposal, scale 2, distributed
    across templates) plus the named sets of :func:`_named_starts`, from
    which the face search starts too.
    Each search stops when the simplex is within 1e-10 of its best vertex and
    its values within 1e-12, or after 10,000 evaluations of the objective.
    Fully deterministic for a fixed seed, on every machine: vertices are
    ordered by a stable sort.  Per-start outcomes are reported;
    a start that fails to converge is recorded, and the call fails only if
    every start fails.

    ``s`` must equal ``params.s``, with |s| at most ``_MAX_LEVEL``. Either
    way the half-line at s is evaluated, so ``best_value <= half_line_value
    + 1e-12`` holds on return; ``half_line_optimal`` records whether the
    half-line remained the global optimum among explored configurations,
    within a relative 1e-12 of its own value.

    On either path, ties within 1e-12 of the best value resolve to fewer
    finite endpoints, then fewer components: energy alone cannot distinguish
    a half-line from a bounded interval whose far endpoint has escaped beyond
    floating-point support.
    """
    k_max = _check_component_cap(k_max)
    # params.s is finite, so this refuses every non-finite s
    if s != params.s:
        raise ValueError(f"mass level must be finite and equal params.s = {params.s!r}, got {s!r}")
    if abs(s) > _MAX_LEVEL:
        raise ValueError(f"|s| must be at most {_MAX_LEVEL:g}, where the face grids' span 2 (|s| + 9) is finite, got {s!r}")
    searched = _face_search(params, k_max)
    faces_best = min(d.final_value for _, d in searched)
    if not _sublevel_bound(params) > faces_best * (1.0 + _BOUND_MARGIN):
        searched = _multistart_search(params, enumerate_templates(k_max), settings)

    candidates = [
        (template.dimension, template.components, d.final_value, d.endpoints, template)
        for template, d in searched
        if d.final_value < _ORDER_PENALTY / 2.0
    ]
    if not candidates:
        raise RuntimeError("every local search start failed to produce a valid configuration")

    best_value = min(c[2] for c in candidates)
    near_best = [c for c in candidates if c[2] <= best_value + _F_TOL]
    _, _, chosen_value, endpoints, template = min(near_best, key=lambda c: c[:4])
    best_set = template.decode(endpoints)

    # F of the half-line (-inf, s), from the sums penalized_functional reads
    half_line_value = _penalized(*_profile_sums(((-math.inf, params.s),))[:3], params)
    return MinimizeOutcome(
        best_set=best_set,
        best_value=chosen_value,
        target_mass=params.target,
        achieved_mass=measure(best_set),
        half_line_value=half_line_value,
        # relative: far in the tails F of the half-line itself falls below 1e-12
        half_line_optimal=chosen_value >= half_line_value - _F_TOL * max(half_line_value, sys.float_info.min),
        starts=tuple(d for _, d in searched),
    )


@dataclass(frozen=True)
class MassSweepRow:
    """Deficit-to-asymmetry ratio data for one two-ray set along the mass sweep."""

    s: float
    a_s: float
    deficit: float
    beta: float
    ratio: float

    def __post_init__(self) -> None:
        if not self.a_s < self.s:
            raise ValueError(f"two-ray endpoint {self.a_s!r} must lie below the level {self.s!r}")
        if not self.deficit > 0.0:
            raise ValueError(f"two-ray deficit must be positive, got {self.deficit!r}")
        if not self.ratio > 0.0:
            raise ValueError(f"sweep ratio must be positive, got {self.ratio!r}")


def mass_sweep(s_values) -> tuple[MassSweepRow, ...]:
    """Deficit, asymmetry, and their scaled ratio along the two-ray family.

    Per level s < 0 with matched endpoint a: the deficit is
    2 e^{-a^2/2} - e^{-s^2/2}, the strong asymmetry equals the maximal
    barycenter norm e^{-s^2/2}/sqrt(2 pi) (the two-ray barycenter is zero),
    and the ratio D / (s^{-2} beta) = sqrt(2 pi) s^2 D e^{s^2/2} is evaluated
    in the cancellation-free form sqrt(2 pi) s^2 expm1((s^2 - a^2)/2 + ln 2),
    which survives the underflow of e^{-s^2/2} at deep levels.  Rows are
    sorted by s.
    """
    levels = sorted(_check_real(s, "sweep level") for s in s_values)
    if not levels:
        raise ValueError("the sweep needs at least one level")
    rows = []
    for s in levels:
        if not s < 0.0:
            raise ValueError(f"sweep levels must be negative, got {s!r}")
        if s < -37.0:
            raise ValueError(
                f"the deficit column underflows the float range below level -37, got {s!r}"
            )
        if abs(s) < _SQRT_MIN_NORMAL:
            raise ValueError(
                f"the ratio column underflows the float range above level {-_SQRT_MIN_NORMAL:.3g}, got {s!r}"
            )
        a = two_ray_endpoint(s)
        growth = math.expm1((s * s - a * a) / 2.0 + _LN2)
        rows.append(
            MassSweepRow(
                s=s,
                a_s=a,
                deficit=gauss_weight(s) * growth,
                beta=max_barycenter_norm(s),
                ratio=SQRT_2PI * s * s * growth,
            )
        )
    return tuple(rows)
