"""Scalar special functions for the standard Gaussian measure.

Conventions used throughout the package:

* ``gauss_cdf(s)`` is the standard normal distribution function
  ``(2*pi)^{-1/2} * integral_{-inf}^{s} exp(-t^2/2) dt``.
* ``gauss_weight(x) = exp(-x^2/2)`` is the (unnormalized) boundary weight: the
  Gaussian perimeter contribution of a single boundary point in one dimension,
  and the perimeter of the half-space at level ``x`` in any dimension.

The private ``_many`` forms take arrays and equal the scalar ones bit for bit.
They, ``sets`` and ``functionals`` keep the scalar math through ``_elementwise``.

The closed forms here are validated elsewhere against two independent routes:
adaptive quadrature (:mod:`gaussiso.quadrature`) and seeded Monte Carlo.

The package's number checks are ``_check_integer``, for dimensions, counts,
seeds and caps, and ``_check_real``, for levels, weights, radii, steps and
margins. A Python or NumPy number of the right kind passes; a bool, a string,
None or any other object raises ValueError, as does a non-finite real.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincinv, log_ndtr, ndtri

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


def _gauss_cdf_finite(s: float) -> float:
    """:func:`gauss_cdf` without its guards, for arguments known to be finite."""
    # 0.5*erfc(-s/sqrt(2)) keeps full relative accuracy in the left tail,
    # where the plain form 1 - gauss_cdf(-s) would cancel.
    return 0.5 * math.erfc(-s / _SQRT_2)


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    """The scalar function ``f`` on every element of the 1-D array ``x``, as Python floats."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=len(x))


def _gauss_cdf_many(x: np.ndarray) -> np.ndarray:
    """:func:`gauss_cdf` on a 1-D array: ``math.erfc`` element by element (a
    vector ``erfc`` or ``ndtr`` would move last bits), exact at +-inf."""
    return 0.5 * _elementwise(math.erfc, -x / _SQRT_2)


def gauss_cdf(s: float) -> float:
    """Standard normal CDF. Exact limits at +-inf; NaN is rejected."""
    if math.isnan(s):
        raise ValueError("gauss_cdf: argument must not be NaN")
    if math.isinf(s):
        return 0.0 if s < 0.0 else 1.0
    return _gauss_cdf_finite(s)


def gauss_cdf_inv(p: float) -> float:
    """Inverse of :func:`gauss_cdf` on [0, 1]; maps 0 -> -inf and 1 -> +inf."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"gauss_cdf_inv: probability must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
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
    if math.isinf(s):
        return -math.inf if s < 0.0 else 0.0
    return float(log_ndtr(s))


def gauss_density(x: float) -> float:
    """Standard normal density exp(-x^2/2)/sqrt(2*pi); zero at +-inf."""
    if math.isnan(x):
        raise ValueError("gauss_density: argument must not be NaN")
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / SQRT_2PI


def gauss_weight(x: float) -> float:
    """Boundary weight exp(-x^2/2); zero at +-inf."""
    if math.isnan(x):
        raise ValueError("gauss_weight: argument must not be NaN")
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x)


def chi2_cdf(dim: int, t: float) -> float:
    """Chi-square CDF with ``dim`` degrees of freedom at ``t >= 0``.

    This is the Gaussian measure of the centered ball of squared radius ``t``
    in dimension ``dim``.
    """
    dim = _check_integer(dim, "chi2_cdf: dim", 1)
    if math.isnan(t) or t < 0.0:
        raise ValueError(f"chi2_cdf: t must be >= 0, got {t!r}")
    if math.isinf(t):
        return 1.0
    return float(gammainc(0.5 * dim, 0.5 * t))


def chi2_quantile(dim: int, p: float) -> float:
    """Inverse of :func:`chi2_cdf` in its second argument, p in [0, 1)."""
    dim = _check_integer(dim, "chi2_quantile: dim", 1)
    if math.isnan(p) or p < 0.0 or p >= 1.0:
        raise ValueError(f"chi2_quantile: probability must lie in [0, 1), got {p!r}")
    return float(2.0 * gammaincinv(0.5 * dim, p))
