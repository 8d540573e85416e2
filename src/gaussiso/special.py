"""Scalar special functions for the standard Gaussian measure.

Conventions used throughout the package:

* ``gauss_cdf(s)`` is the standard normal distribution function
  ``(2*pi)^{-1/2} * integral_{-inf}^{s} exp(-t^2/2) dt``.
* ``gauss_weight(x) = exp(-x^2/2)`` is the (unnormalized) boundary weight: the
  Gaussian perimeter contribution of a single boundary point in one dimension,
  and the perimeter of the half-space at level ``x`` in any dimension.

The private ``_many`` forms take arrays and equal the scalar ones bit for bit,
edges included: erfc, exp, ndtri and gammainc are exact at +-inf and at p = 0
and 1, so no scalar form branches there but ``log_gauss_cdf`` at +inf
(``log_ndtr`` gives -0.0). Every array form in the package keeps the scalar
math: the ufunc that the scalar form calls, or the scalar form elementwise
(``_elementwise``). The two that run element by element on endpoint columns,
``_gauss_cdf_many`` and ``_gauss_weight_many``, call libm only where ``x`` is
not infinite and write the values it gives at +-inf (0.0 and 1.0 for the CDF,
0.0 for the weight), as rays put many infinite ends in a batch; NaN still
goes through libm.

The closed forms here are validated elsewhere against two independent routes:
adaptive quadrature (:mod:`gaussiso.quadrature`) and seeded Monte Carlo.

SciPy is loaded on the first call that needs it, not at import: importing
``scipy.special`` is about half of a fresh process's start-up. Until then
``ndtri``, ``log_ndtr``, ``gammainc`` and ``gammaincinv`` are stubs here; the
first call of any of them runs ``_load_scipy``, which binds all four ufuncs
over the stubs, so every later call reaches the ufunc directly; a first
``gauss_cdf_inv`` at 0 or 1 loads SciPy too. This is the one module that
names SciPy; other modules call the functions here, never a stub by name.

The package's number checks are ``_check_integer``, for dimensions, counts,
seeds and caps, ``_check_real``, for levels, weights, radii, steps, margins
and directions, and ``_check_endpoint``, for interval endpoints. A Python or
NumPy number of the right kind passes; a bool, a string, None or any other
object raises ValueError, as does NaN, an int past the float range, or +-inf
anywhere but in ``_check_endpoint``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "SQRT_2PI",
    "gauss_cdf",
    "gauss_cdf_inv",
    "log_gauss_cdf",
    "gauss_density",
    "gauss_weight",
    "chi2_cdf",
    "chi2_quantile",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

_SQRT_2 = math.sqrt(2.0)

#: Nearer to 0 than the first, ``x * x`` underflows the normal float range; farther than the second, it overflows.
_SQRT_MIN_NORMAL = math.sqrt(sys.float_info.min)
_SQRT_MAX = math.sqrt(sys.float_info.max)


def _load_scipy() -> None:
    """Bind SciPy's ufuncs over their stubs; runs once, on the first call of any stub."""
    global gammainc, gammaincinv, log_ndtr, ndtri
    from scipy.special import gammainc, gammaincinv, log_ndtr, ndtri


def _stub(name: str):
    """A stand-in for the ufunc ``name`` that loads SciPy, then calls the ufunc."""

    def first_call(*args):
        _load_scipy()
        return globals()[name](*args)

    return first_call


gammainc = _stub("gammainc")
gammaincinv = _stub("gammaincinv")
log_ndtr = _stub("log_ndtr")
ndtri = _stub("ndtri")


def _check_integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; refuses a non-integer (NumPy integers pass) or one below ``least``, 0 or 1."""
    # a bool or a float would slip through further down: the seed hash reads
    # any int, and NumPy takes True as a size
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'positive' if least else 'nonnegative'}, got {value!r}")
    return int(value)


def _check_real(value, what: str, sign: str | None = None) -> float:
    """``value`` as a finite float; refuses a non-number (NumPy numbers pass), NaN, +-inf,
    or one that is not ``sign``, "positive" or "nonnegative"."""
    # float() would read True as 1.0 and "1" as 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if sign is not None and not (x > 0.0 if sign == "positive" else x >= 0.0):
        raise ValueError(f"{what} must be {sign}, got {value!r}")
    return x


def _check_endpoint(value, what: str) -> float:
    """``value`` as an interval endpoint: what ``_check_real`` accepts, or a float
    (NumPy floats too) +-inf."""
    if isinstance(value, (float, np.floating)) and math.isinf(value):
        return float(value)
    return _check_real(value, what)


def _gauss_cdf_unchecked(s: float) -> float:
    """:func:`gauss_cdf` without its NaN guard; exact at +-inf."""
    # 0.5*erfc(-s/sqrt(2)) keeps full relative accuracy in the left tail,
    # where the plain form 1 - gauss_cdf(-s) would cancel.
    return 0.5 * math.erfc(-s / _SQRT_2)


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    """The scalar function ``f`` on every element of the 1-D array ``x``, as Python floats."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=len(x))


def _gauss_cdf_many(x: np.ndarray) -> np.ndarray:
    """:func:`gauss_cdf` on a 1-D array: ``math.erfc`` element by element (a
    vector ``erfc`` or ``ndtr`` would move last bits) where ``x`` is not
    infinite, and ``0.5*erfc(-+inf)``, 1.0 or 0.0, at +-inf; NaN gives NaN."""
    cdf = (x > 0.0).astype(float)
    at = ~np.isinf(x)
    cdf[at] = 0.5 * _elementwise(math.erfc, -x[at] / _SQRT_2)
    return cdf


def gauss_cdf(s: float) -> float:
    """Standard normal CDF. Exact limits at +-inf; NaN is rejected."""
    if math.isnan(s):
        raise ValueError("gauss_cdf: argument must not be NaN")
    return _gauss_cdf_unchecked(s)


def gauss_cdf_inv(p: float) -> float:
    """Inverse of :func:`gauss_cdf` on [0, 1]; maps 0 -> -inf and 1 -> +inf."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"gauss_cdf_inv: probability must lie in [0, 1], got {p!r}")
    return float(ndtri(p))


def _gauss_cdf_inv_many(p: np.ndarray) -> np.ndarray:
    """:func:`gauss_cdf_inv` on an array: ``ndtri``, which maps 0 to -inf and 1 to +inf."""
    # counted, not .all(): as the only reduction in minimize it mapped ~70 KiB more NumPy code
    if np.count_nonzero((p >= 0.0) & (p <= 1.0)) != len(p):
        raise ValueError("gauss_cdf_inv: probabilities must lie in [0, 1]")
    return ndtri(p)


def log_gauss_cdf(s: float) -> float:
    """log of :func:`gauss_cdf`, usable far into the left tail (s ~ -40)."""
    if math.isnan(s):
        raise ValueError("log_gauss_cdf: argument must not be NaN")
    if s == math.inf:  # log_ndtr(inf) is -0.0
        return 0.0
    return float(log_ndtr(s))


def gauss_density(x: float) -> float:
    """Standard normal density exp(-x^2/2)/sqrt(2*pi); zero at +-inf."""
    if math.isnan(x):
        raise ValueError("gauss_density: argument must not be NaN")
    return math.exp(-0.5 * x * x) / SQRT_2PI


def gauss_weight(x: float) -> float:
    """Boundary weight exp(-x^2/2); zero at +-inf."""
    if math.isnan(x):
        raise ValueError("gauss_weight: argument must not be NaN")
    return math.exp(-0.5 * x * x)


def _gauss_weight_many(x: np.ndarray) -> np.ndarray:
    """:func:`gauss_weight` on a 1-D array: ``math.exp`` element by element
    where ``x`` is not infinite, and ``exp(-inf)``, 0.0, at +-inf; NaN gives NaN."""
    weight = np.zeros(len(x))
    at = ~np.isinf(x)
    x = x[at]
    with np.errstate(over="ignore"):  # from |x| ~ 1.9e154 on -0.5 x x is -inf, as in the scalar
        weight[at] = _elementwise(math.exp, -0.5 * x * x)
    return weight


def chi2_cdf(dim: int, t: float) -> float:
    """Chi-square CDF with ``dim`` degrees of freedom at ``t >= 0``.

    This is the Gaussian measure of the centered ball of squared radius ``t``
    in dimension ``dim``.
    """
    dim = _check_integer(dim, "chi2_cdf: dim", 1)
    if math.isnan(t) or t < 0.0:
        raise ValueError(f"chi2_cdf: t must be >= 0, got {t!r}")
    return float(gammainc(0.5 * dim, 0.5 * t))


def _chi2_quantile_many(dims: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`chi2_quantile` of every pair ``(dims[j], p[j])``, unchecked: the same ufunc on an array."""
    return 2.0 * gammaincinv(0.5 * dims, p)


def chi2_quantile(dim: int, p: float) -> float:
    """Inverse of :func:`chi2_cdf` in its second argument, p in [0, 1)."""
    dim = _check_integer(dim, "chi2_quantile: dim", 1)
    if math.isnan(p) or p < 0.0 or p >= 1.0:
        raise ValueError(f"chi2_quantile: probability must lie in [0, 1), got {p!r}")
    return float(2.0 * gammaincinv(0.5 * dim, p))
