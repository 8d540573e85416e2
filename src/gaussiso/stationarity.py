"""First- and second-order optimality analysis on one-dimensional sets.

The boundary of a finite union of intervals is a finite set of points, so the
first-order condition for the penalized functional reduces to a per-point
residual equation with a scalar Lagrange multiplier, and the second variation
reduces to a small dense quadratic form over boundary values.  This module
computes both, tests positive semidefiniteness of the form on the
mass-preserving (weighted zero-average) subspace, and provides an exact
mass-preserving endpoint flow for finite-difference cross-checks.

Curvature terms vanish identically here: a zero-dimensional boundary has no
mean curvature, no second fundamental form, and no tangential gradients, so
the residual and the form carry only the position, normal-sign, and
barycenter-coupling terms.

Both come from one derivation.  With boundary points x_i, exterior normal
signs nu_i and weights w_i = e^{-x_i^2/2}, the set has P = sum_i w_i and
b = -sum_i nu_i w_i / sqrt(2 pi).  Along ``mass_preserving_flow`` with normal
velocity phi, at t = 0,

    dP = -sum_i x_i nu_i phi_i w_i,      d^2P = -sum_i phi_i^2 w_i,
    db = sum_i x_i phi_i w_i / sqrt(2 pi),  d^2b = sum_i nu_i phi_i^2 w_i / sqrt(2 pi),

so F = P + (eps/2) b^2 + Lambda |gamma - Phi(s)| has, for every set and
every weighted zero-average phi,

    dF = sum_i (-x_i nu_i + (eps / sqrt(2 pi)) b x_i) phi_i w_i,
    d^2F = sum_i (-1 + (eps / sqrt(2 pi)) b nu_i) phi_i^2 w_i
           + (eps / (2 pi)) (sum_i x_i phi_i w_i)^2.

``_variation`` is the one place these formulas live: the residual, the
quadratic form (and so the instability threshold the suites bisect for) all
read its coefficients.

Every public call that needs the boundary reads it once: ``_boundary``
gives the points, signs and weights as float lists, and sums b(E) from the
same weights.  The per-point arithmetic and the entries of the form matrix
and of the Householder basis are Python floats, which round element by
element as NumPy's element-wise operations do.  NumPy keeps only the
reductions whose bits are pinned: the weighted mean of the residuals
(``np.dot`` and the weights' sum), ``v @ v``, the two projection products,
and, for a reduced form larger than 1x1, the symmetrization and the
eigen-solve.  The eigen-solve is ``np.linalg.eigh``'s own gufunc,
``eigh_lo`` with the signature ``d->dd``, under the error state ``eigh``
sets, so the values, the vectors and the ``LinAlgError`` are ``eigh``'s;
only its wrapper's checks and casts, which a square float64 matrix passes
unchanged, are skipped.  A 1x1 form (two boundary points, some weight
nonzero) is its own eigenvalue, ``0.5 * (r + r)`` as the symmetrization
rounds it, with the basis column as witness, which is what ``eigh``
returns there.

``second_variation_form`` builds its ``QuadraticFormJ`` without the
constructor's checks, which it cannot fail: entries (i, j) and (j, i) are
the same product ``eps * (db_i * db_j)``, so the matrix is exactly
symmetric, it is k by k beside the k weights, and it is finite, since
|db_i| = |x_i| w_i / sqrt(2 pi) < 0.25 and |h_i| <= 1 + eps / (2 pi).
A form built by hand goes through every check.

``second_derivative_along_flow`` takes both of its steps from one boundary
pass through ``_flows``, the helper behind ``mass_preserving_flow``, and
prices the flowed endpoint pairs with the sums ``penalized_functional``
reads, without building set objects.  ``_flows`` checks each target mass
against (0, 1) itself and inverts it with ``special``'s unchecked inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .functionals import FunctionalParams, _penalized
from .sets import IntervalUnion1D, _check_intervals, _endpoints, _pairs, _profile_sums
from .special import (
    SQRT_2PI, _SQRT_MAX, _SQRT_MIN_NORMAL, _check_real, _gauss_cdf_inv_unchecked, _gauss_cdf_unchecked,
)

__all__ = [
    "EulerReport",
    "QuadraticFormJ",
    "boundary_points",
    "euler_residual",
    "lagrange_bound_check",
    "second_variation_form",
    "psd_on_zero_average",
    "mass_preserving_flow",
    "second_derivative_along_flow",
]

#: Slack added to the multiplier bound so roundoff at the boundary passes.
_LAGRANGE_SLACK = 1e-10


@dataclass(frozen=True)
class EulerReport:
    """First-order residuals of the penalized functional at the boundary.

    ``residuals`` holds -x_i*nu_i + (eps/sqrt(2 pi))*b*x_i per boundary point,
    ``lambda_fit`` the boundary-weighted mean of the residuals (the
    least-squares Lagrange multiplier), and ``max_dev`` the largest absolute
    deviation of any residual from ``lambda_fit``; callers set the threshold.
    """

    residuals: tuple[float, ...]
    lambda_fit: float
    max_dev: float

    def __post_init__(self) -> None:
        if not self.residuals:
            raise ValueError("an Euler report needs at least one residual")
        object.__setattr__(self, "max_dev", _check_real(self.max_dev, "max_dev", "nonnegative"))


@dataclass(frozen=True, eq=False)
class QuadraticFormJ:
    """Second-variation quadratic form over boundary values.

    ``matrix`` is the symmetric k-by-k form; ``constraint`` the weight vector
    whose zero set (sum_i phi_i * w_i = 0) is the mass-preserving subspace of
    admissible perturbations.
    """

    matrix: np.ndarray
    constraint: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        c = np.asarray(self.constraint, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"form matrix must be square, got shape {m.shape}")
        if c.shape != (m.shape[0],):
            raise ValueError(
                f"constraint length {c.shape} does not match matrix size {m.shape[0]}"
            )
        # np.allclose(m, m.T, rtol=0, atol=1e-12), cheaper: an entry equal to
        # its mirror passes (symmetric infinities too), with no inf - inf,
        # and an exactly symmetric matrix is not indexed at all; counted, as
        # .any() goes through a Python wrapper
        unequal = m != m.T
        if np.count_nonzero(unequal) and not (np.abs(m[unequal] - m.T[unequal]) <= 1e-12).all():
            raise ValueError("form matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "constraint", c)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, constraint: np.ndarray) -> QuadraticFormJ:
        """The form of a float64 ``matrix`` that is square and exactly symmetric,
        and a float64 ``constraint`` of its size, without the constructor's checks."""
        form = object.__new__(cls)
        object.__setattr__(form, "matrix", matrix)
        object.__setattr__(form, "constraint", constraint)
        return form

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def value(self, phi: np.ndarray) -> float:
        """Evaluate the form at the boundary-value vector ``phi``."""
        v = np.asarray(phi, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got shape {v.shape}")
        return float(v @ self.matrix @ v)


def _boundary(e: IntervalUnion1D) -> tuple[list[float], list[float], list[float], float]:
    """``boundary_points`` as three float lists, and b(E), from one pass over the endpoints.

    b is summed as ``barycenter`` sums it, without the masses:
    (w_lo - w_hi)/sqrt(2 pi) per interval, left to right, with weight
    exp(-inf) = 0 at a ray's infinite end.
    """
    x, nu, w = [], [], []
    b = 0.0
    for lo, hi in e.intervals:
        w_lo = w_hi = 0.0
        # gauss_weight of a finite point; np.exp can differ from it in the last bit
        if math.isfinite(lo):
            w_lo = math.exp(-0.5 * lo * lo)
            x.append(lo)
            nu.append(-1.0)
            w.append(w_lo)
        if math.isfinite(hi):
            w_hi = math.exp(-0.5 * hi * hi)
            x.append(hi)
            nu.append(1.0)
            w.append(w_hi)
        b += (w_lo - w_hi) / SQRT_2PI
    return x, nu, w, b


def boundary_points(e: IntervalUnion1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locations ``x``, exterior normal signs ``nu`` and weights ``w`` of the
    finite boundary of ``e``, in increasing order.

    Lower endpoints carry exterior normal -1, upper endpoints +1, and the
    weight is e^{-x^2/2}; infinite endpoints contribute no boundary point, so
    the full line gives three empty arrays.
    """
    x, nu, w, _ = _boundary(e)
    return np.array(x, dtype=float), np.array(nu, dtype=float), np.array(w, dtype=float)


def _variation(e: IntervalUnion1D, params: FunctionalParams, what: str) -> tuple[list[float], ...]:
    """Coefficients of the first and second variation of F at ``e``.

    Returns ``(w, g, h, db)`` such that, along ``mass_preserving_flow`` with
    normal velocity phi, dF = sum_i g_i phi_i w_i and
    d^2F = sum_i h_i phi_i^2 + eps (sum_i db_i phi_i)^2 (see the module
    docstring).  Raises ValueError, naming ``what``, for a set with no finite
    boundary point.
    """
    x, nu, w, b = _boundary(e)
    if not x:
        raise ValueError(f"set has no finite boundary point; {what} is empty")
    coupling = (params.eps / SQRT_2PI) * b
    # point by point in floats, in the order NumPy's element-wise ops round in
    g = [-p * n + coupling * p for p, n in zip(x, nu)]
    h = [(-1.0 + coupling * n) * q for n, q in zip(nu, w)]
    db = [p * q / SQRT_2PI for p, q in zip(x, w)]
    return w, g, h, db


def euler_residual(e: IntervalUnion1D, params: FunctionalParams) -> EulerReport:
    """Per-boundary-point first-order residuals -x*nu + (eps/sqrt(2 pi))*b*x.

    The first variation of the penalized functional along a normal velocity
    phi is sum_i r_i phi_i w_i with these residuals r_i (see the module
    docstring).  With no mean curvature on a point boundary, stationarity
    asks the residuals to be one constant, the Lagrange multiplier of the
    mass constraint.  ``lambda_fit`` recovers it as the weighted mean of the
    residuals, and ``max_dev`` measures how far the set is from the condition.

    Raises ValueError for sets with no finite boundary point, and for sets
    whose finite boundary weights all underflow to 0, where the weighted mean
    is 0/0.
    """
    w, g, _, _ = _variation(e, params, "the residual equation")
    if not any(w):
        raise ValueError(
            "every finite boundary weight e^{-x^2/2} underflows to 0; "
            "the residual equation's weighted mean is undefined"
        )
    weights = np.array(w)
    lambda_fit = float(np.dot(g, weights) / weights.sum())
    max_dev = max(abs(r - lambda_fit) for r in g)
    return EulerReport(residuals=tuple(g), lambda_fit=lambda_fit, max_dev=max_dev)


def lagrange_bound_check(report: EulerReport, params: FunctionalParams) -> bool:
    """True when the fitted multiplier obeys |lambda| <= lambda_pen (+ slack).

    The mass-penalty coefficient caps the multiplier of any minimizer: a
    larger multiplier would let a mass-trading competitor beat the penalty.
    """
    return abs(report.lambda_fit) <= params.lambda_pen + _LAGRANGE_SLACK


def second_variation_form(e: IntervalUnion1D, params: FunctionalParams) -> QuadraticFormJ:
    """Second-variation form J over boundary values of a one-dimensional set.

    J is the symmetric matrix diag(h) + eps * db db^T built from the
    coefficients of ``_variation``, so J[phi] is the exact second derivative
    of ``penalized_functional`` along ``mass_preserving_flow`` for every
    weighted zero-average phi (see the module docstring).  The admissible
    perturbations, those with weighted zero average, are recorded in
    ``constraint``.
    """
    w, _, h, db = _variation(e, params, "the form")
    eps, k = params.eps, len(db)
    # diag(h) + eps * outer(db, db) entry by entry, as NumPy rounds it: off the
    # diagonal 0.0 + x, so a product of -0.0 reads +0.0
    matrix = np.array([(h_i if i == j else 0.0) + eps * (p * q)
                       for i, (h_i, p) in enumerate(zip(h, db)) for j, q in enumerate(db)]).reshape(k, k)
    # exactly symmetric, k by k and finite, so QuadraticFormJ's checks cannot
    # fail (see the module docstring)
    return QuadraticFormJ._unchecked(matrix, np.array(w))


def _eigh_did_not_converge(err: str, flag: int) -> None:
    """The error state's callback: raises as ``np.linalg.eigh`` does when LAPACK fails."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a square float64 ``matrix``: the same gufunc under
    the same error state, without the wrapper's checks and casts."""
    with np.errstate(call=_eigh_did_not_converge, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(matrix, signature="d->dd")


def psd_on_zero_average(form: QuadraticFormJ) -> tuple[float, np.ndarray]:
    """Minimum eigenvalue of the form on the weighted zero-average subspace.

    Projects the form onto an orthonormal basis of the hyperplane
    sum_i phi_i w_i = 0 and solves the dense symmetric eigenproblem there.
    The basis is the last k - 1 columns of the Householder reflection
    I - 2 v v^T / v^T v with v = w + sign(w_0) |w| e_0, which maps w onto the
    e_0 axis; when every weight has underflowed to zero the whole space is
    admissible and the basis is the identity.  With one basis column the
    reduced form is 1x1 and needs no solver unless its entry is not finite.
    Returns the minimum eigenvalue together with a unit-norm witness vector in
    the original boundary coordinates; the witness satisfies
    witness @ matrix @ witness == min_eigenvalue to solver precision.

    With fewer than two boundary points the constraint kills every direction,
    so the test is vacuous and returns (+inf, zero vector).
    """
    k = form.size
    if k < 2:
        return math.inf, np.zeros(k)
    top = max(map(abs, form.constraint.tolist()))
    if top == 0.0:
        # every weight underflowed: no direction moves the mass
        basis = np.eye(k)
    else:
        # a power-of-two scale changes no rounding in the normal range, and
        # keeps the squares of deep-tail weights from underflowing
        v = np.ldexp(form.constraint, -math.frexp(top)[1])
        # np.linalg.norm of a vector, without its dispatch
        v[0] += math.copysign(math.sqrt(float(v.dot(v))), v[0])
        c = float(2.0 / (v @ v))
        vs = v.tolist()
        # (I - c v v^T)[:, 1:] entry by entry, as NumPy rounds it: off the
        # diagonal 0.0 - x
        basis = np.array([(1.0 if i == j else 0.0) - c * (p * q)
                          for i, p in enumerate(vs) for j, q in enumerate(vs[1:], 1)]).reshape(k, k - 1)
    reduced = basis.T @ form.matrix @ basis
    if basis.shape[1] == 1:
        # eigh of a 1x1 form (LAPACK's dsyevd) returns its entry, with the
        # eigenvector +1, and no basis entry is -0.0: the witness is the column
        r = reduced.item()
        lam = 0.5 * (r + r)
        if math.isfinite(lam):
            return lam, basis[:, 0].copy()
    eigenvalues, eigenvectors = _eigh(0.5 * (reduced + reduced.T))
    witness = basis @ eigenvectors[:, 0]
    return float(eigenvalues[0]), witness


def _flows(e: IntervalUnion1D, phi: np.ndarray, times: tuple[float, ...]) -> list[tuple[tuple[float, float], ...]]:
    """The intervals of ``mass_preserving_flow(e, phi, t)`` for each of ``times``
    in turn, checked as ``IntervalUnion1D`` checks them, from one boundary
    pass; raises as that call does at the first rejected time."""
    x, nu, w, _ = _boundary(e)
    v = np.asarray(phi, dtype=float)
    if v.shape != (len(x),):
        raise ValueError(
            f"expected one velocity per finite boundary point ({len(x)}), got shape {v.shape}"
        )
    base = [_gauss_cdf_unchecked(p) for p in x]
    ends = _endpoints(e.intervals)
    flowed = []
    for t in times:
        # t * v in NumPy, for its promotion of t; nu_i = +-1 only flips signs,
        # so the steps round as t * nu * v * w / sqrt(2 pi) does
        targets = [c + n * tv * q / SQRT_2PI for c, n, tv, q in zip(base, nu, (t * v).tolist(), w)]
        for p, target in zip(x, targets):
            if not 0.0 < target < 1.0:
                raise ValueError(
                    f"flow time {t!r} pushes the boundary point at {p!r} outside the mass range"
                )
        moved = iter([_gauss_cdf_inv_unchecked(target) for target in targets])
        points = [next(moved) if math.isfinite(p) else p for p in ends]
        pairs = tuple(_pairs(points))
        _check_intervals(pairs)
        flowed.append(pairs)
    return flowed


def mass_preserving_flow(e: IntervalUnion1D, phi: np.ndarray, t: float) -> IntervalUnion1D:
    """Move each finite boundary point with normal velocity phi, exactly in mass.

    Each boundary point x_i travels so that its Gaussian CDF value changes
    linearly: Phi(y_i(t)) = Phi(x_i) + t * nu_i * phi_i * w_i / sqrt(2*pi).
    The velocity at t = 0 equals phi_i along the exterior normal, and the
    measure of the flowed set is an exactly linear function of t — constant
    whenever phi has weighted zero average (sum_i phi_i w_i = 0), which makes
    the flow suitable for finite differences of mass-constrained energies.

    Raises ValueError when phi has the wrong length or the requested time
    pushes an endpoint outside the valid mass range or across a neighbor.
    """
    return IntervalUnion1D(intervals=_flows(e, phi, (t,))[0])


def second_derivative_along_flow(
    e: IntervalUnion1D,
    params: FunctionalParams,
    phi: np.ndarray,
    h: float = 1e-4,
) -> float:
    """Central-difference second derivative of the penalized functional.

    Evaluates F along the exact mass-preserving flow with normal velocity
    ``phi`` at times -h, 0, +h and returns (F(h) - 2 F(0) + F(-h)) / h^2.
    For weighted zero-average ``phi`` the set's measure never moves, so the
    nonsmooth mass-penalty term is constant and cancels in the difference,
    leaving the curvature of the perimeter and barycenter terms alone.
    Both steps share one boundary pass; a rejected step raises as
    ``mass_preserving_flow`` does, +h before -h. ``h`` outside about [1.49e-154,
    1.34e154], where ``h * h`` underflows or overflows, raises ValueError.
    """
    h = _check_real(h, "step size", "positive")
    if h < _SQRT_MIN_NORMAL:
        raise ValueError(f"step size must be at least {_SQRT_MIN_NORMAL:.3g}, where h * h underflows, got {h!r}")
    if h > _SQRT_MAX:
        raise ValueError(f"step size must be at most {_SQRT_MAX:.3g}, where h * h overflows, got {h!r}")
    plus, minus = _flows(e, phi, (h, -h))
    # penalized_functional of each set, from the sums _row takes for a line
    f_plus, f_zero, f_minus = (_penalized(*_profile_sums(pairs)[:3], params) for pairs in (plus, e.intervals, minus))
    return (f_plus - 2.0 * f_zero + f_minus) / (h * h)
