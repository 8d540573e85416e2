"""Derived scalar quantities for Gaussian sets.

Built on the exact set primitives: the isoperimetric deficit, the two
asymmetries (barycenter gap and symmetric-difference), the boundary excess,
the penalized objective used by the optimizer, and the explicit penalization
constants under which half-spaces are the unique minimizers.

Every quantity of a set comes from :func:`quantity_columns`, which returns
one array per quantity for many sets. It packs them into one ``sets._Batch``
and runs the one private kernel, ``_batch_columns``, which ``verify`` also
feeds the corpus batch as it was drawn. The kernel starts from ``sets._rows``,
the row ``(mass, perimeter, b, excess)`` of ``sets._row`` for every member at
once, so no code here tells a ball from a profile. It keeps the scalar math,
``math.exp``, ``math.erfc`` and ``_interval_mass`` element by element and each
set's sums added left to right, and vectorizes only the bookkeeping, so every
column equals the scalar row bit for bit: a NumPy ``exp`` or pairwise sum
would move last bits. :func:`quantities`, the bundle of one set, and
:func:`excess_identity` are its batch of one, so each formula exists once.
F is written once on ``(mass, perimeter, b)``, against the target mass
``params.target`` that :class:`FunctionalParams` decides once: fed the row by
:func:`penalized_functional`, and a profile's sums on endpoint lists,
without building sets, by the optimizer. The columns refuse only a
degenerate or non-finite member; whether they obey the paper's claims is
decided, and counted, by the verification suites alone.

Conventions: ``s`` always denotes the mass level of a set, the number with
``measure(E) = gauss_cdf(s)``. All quantities are invariant under taking
complements except the mass level itself, which flips sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import GaussianSet, _Batch, _batch, _clipped_masses, _row, _rows, barycenter
from .special import (
    SQRT_2PI,
    _check_real,
    _gauss_cdf_inv_many,
    _gauss_cdf_many,
    _gauss_weight_many,
    gauss_cdf,
    gauss_weight,
    log_gauss_cdf,
)

__all__ = [
    "STABILITY_CONSTANT",
    "BARYCENTER_ZERO_TOL",
    "FunctionalParams",
    "QuantityBundle",
    "max_barycenter_norm",
    "excess_identity",
    "penalized_functional",
    "stability_params",
    "quantities",
    "quantity_columns",
]

# 80 pi^2 sqrt(2 pi): the explicit constant in the deficit-controls-asymmetry
# estimate produced by the penalization constants of stability_params.
STABILITY_CONSTANT = 80.0 * math.pi**2 * math.sqrt(2.0 * math.pi)

# |b(E)| below this is treated as a zero barycenter (degenerate direction).
BARYCENTER_ZERO_TOL = 1e-12

# sqrt(2 log(largest float)) ~ 37.677: the largest |s| whose exp(s^2/2) is finite.
_MAX_PAPER_LEVEL = math.sqrt(2.0 * math.log(np.finfo(float).max))


@dataclass(frozen=True)
class FunctionalParams:
    """Target mass level and penalization weights of the objective.

    ``eps`` weighs the squared barycenter norm, ``lambda_pen`` the mass
    constraint violation. Zero values are accepted to allow degenerate
    (pure-perimeter) objectives. The target mass ``target = gauss_cdf(s)`` is
    decided once here, as an attribute that equality, hashing and ``repr`` skip.
    """

    s: float
    eps: float
    lambda_pen: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_real(self.s, "FunctionalParams: s"))
        object.__setattr__(self, "eps", _check_real(self.eps, "FunctionalParams: eps", "nonnegative"))
        object.__setattr__(
            self, "lambda_pen", _check_real(self.lambda_pen, "FunctionalParams: lambda_pen", "nonnegative")
        )
        object.__setattr__(self, "target", gauss_cdf(self.s))


def max_barycenter_norm(s: float) -> float:
    """Largest possible |b(E)| at mass level s: exp(-s^2/2)/sqrt(2 pi).

    Attained exactly by half-spaces at level s; even in s.
    """
    return gauss_weight(s) / SQRT_2PI


def _batch_columns(batch: _Batch) -> dict[str, np.ndarray]:
    """The ten columns of :func:`quantity_columns` from a batch, bit for bit.

    The scalar formulas run unchanged on the batch's columns: ``_rows`` for
    ``(mass, perimeter, b, excess)``, ``special._gauss_cdf_inv_many`` (the
    ``ndtri`` of the scalar inverse) for ``s``, ``special._gauss_weight_many``
    for the weight at ``s`` and ``special._gauss_cdf_many``, the scalar forms
    element by element; ``alpha_hat`` reads ``sets._clipped_masses``, the mass of each profile
    cut at a level.
    """
    mass, perim, b, excess = _rows(batch)
    degenerate = ~((0.0 < mass) & (mass < 1.0))
    if degenerate.any():
        raise ValueError(
            f"quantity undefined for degenerate set with measure {float(mass[degenerate][0])!r}; "
            "need measure in (0, 1)"
        )
    s = _gauss_cdf_inv_many(mass)
    w_s = _gauss_weight_many(s)
    alpha_hat = np.empty_like(mass)
    centered = np.abs(b) < BARYCENTER_ZERO_TOL
    # a zero barycenter leaves no direction: take the ceiling 2 Phi(-|s|)
    alpha_hat[centered] = 2.0 * _gauss_cdf_many(-np.abs(s[centered]))
    # else gamma(E sym-diff H) for the half-space H at level s opposite to the
    # barycenter, (-inf, s) or (-s, inf) on the axis; only a profile has b != 0
    directed = ~centered
    inside = _clipped_masses(batch, directed, s, b > 0.0)[directed]
    alpha_hat[directed] = mass[directed] + _gauss_cdf_many(s[directed]) - 2.0 * inside
    b_norm = np.abs(b)
    b_max = w_s / SQRT_2PI
    deficit = perim - w_s
    beta = b_max - b_norm
    # what no suite can count; a non-finite perimeter shows as a non-finite deficit
    for name, column in (("deficit", deficit), ("strong asymmetry", beta), ("excess", excess)):
        bad = ~np.isfinite(column)
        if bad.any():
            raise ValueError(f"non-finite {name} {float(column[bad][0])!r}")
    return {
        "measure": mass,
        "s": s,
        "perimeter": perim,
        "b": b,
        "b_norm": b_norm,
        "b_max": b_max,
        "deficit": deficit,
        "beta": beta,
        "alpha_hat": alpha_hat,
        "excess": excess,
    }


def quantity_columns(sets) -> dict[str, np.ndarray]:
    """Every derived quantity of many nondegenerate sets, one array per quantity.

    The sets are packed as one batch (``sets._batch``), whose rows are those
    of ``sets._row``: a profile's one pass over its ``(lo, hi)`` pairs, or a
    centered ball's closed forms. The columns are ``measure``, ``s`` (mass
    level), ``perimeter``, ``b`` (barycenter along the profile axis, zero for
    balls), ``b_norm``, ``b_max``, ``deficit``, ``beta`` (strong asymmetry),
    ``alpha_hat`` (directed Fraenkel asymmetry) and ``excess`` (direct
    boundary excess). Every number equals that of a batch of one, and
    ``measure``, ``perimeter`` and ``b`` equal the scalar readers', bit for
    bit. Raises ValueError when a set has measure 0 or 1 or a non-finite
    quantity, which no suite could count. The paper's claims on the columns
    (D >= 0, |b| <= b_max, the excess identity) are not checked here: the
    verification suites decide and count them.
    """
    return _batch_columns(_batch(sets))


def excess_identity(e: GaussianSet) -> tuple[float, float]:
    """(direct boundary excess, 2*deficit + 2*sqrt(2 pi)*strong asymmetry).

    The two agree identically; comparing them end to end exercises every
    quantity in the chain.
    """
    cols = quantity_columns((e,))
    via = 2.0 * cols["deficit"][0] + 2.0 * SQRT_2PI * cols["beta"][0]
    return float(cols["excess"][0]), float(via)


def _penalized(mass, perim, b, params: FunctionalParams, sqrt=math.sqrt):
    """F from a set's mass, perimeter and barycenter ``b`` along its unit
    axis (so ``|b| = sqrt(b*b)``), against the mass ``params.target``. On
    arrays, with ``sqrt=np.sqrt``, it is the scalar F per element, bit for bit."""
    norm_b = sqrt(b * b)
    return perim + 0.5 * params.eps * norm_b * norm_b + params.lambda_pen * abs(mass - params.target)


def penalized_functional(e: GaussianSet, params: FunctionalParams) -> float:
    """perimeter + (eps/2)|b|^2 + lambda_pen * |measure - gauss_cdf(s)|."""
    mass, perim, b, _ = _row(e)
    return _penalized(mass, perim, b, params)


def stability_params(s: float) -> FunctionalParams:
    """Penalization weights under which half-spaces are the unique minimizers.

    eps = exp(s^2/2) / (40 pi^2 (1+s^2)), lambda_pen = sqrt(2) exp(-s^2/2) /
    gauss_cdf(s). Defined for s <= 0; a positive level maps to its negation,
    matching the reduction by complement (a set at level s > 0 and its
    complement at level -s have identical perimeter, barycenter norm, and
    asymmetries). Past ``_MAX_PAPER_LEVEL``, ``exp(s^2/2)`` overflows.
    """
    s = _check_real(s, "stability_params: s")
    if abs(s) > _MAX_PAPER_LEVEL:
        raise ValueError(f"stability_params: |s| must be at most {_MAX_PAPER_LEVEL!r}, got {s!r}")
    s_eff = -abs(s)
    eps = math.exp(0.5 * s_eff * s_eff) / (40.0 * math.pi**2 * (1.0 + s_eff * s_eff))
    # log-form guards gauss_cdf underflow at very negative levels
    log_lam = 0.5 * math.log(2.0) - 0.5 * s_eff * s_eff - log_gauss_cdf(s_eff)
    return FunctionalParams(s=s, eps=eps, lambda_pen=math.exp(log_lam))


@dataclass(frozen=True)
class QuantityBundle:
    """Every derived quantity of one set, as computed."""

    mass_level: float
    measure: float
    perimeter: float
    barycenter: tuple[float, ...]
    max_barycenter_norm: float
    deficit: float
    strong_asymmetry: float
    directed_fraenkel: float
    excess: float


def quantities(e: GaussianSet) -> QuantityBundle:
    """The full bundle of one nondegenerate set, as computed: a batch of one."""
    cols = quantity_columns((e,))
    return QuantityBundle(
        mass_level=float(cols["s"][0]),
        measure=float(cols["measure"][0]),
        perimeter=float(cols["perimeter"][0]),
        barycenter=tuple(float(c) for c in barycenter(e)),
        max_barycenter_norm=float(cols["b_max"][0]),
        deficit=float(cols["deficit"][0]),
        strong_asymmetry=float(cols["beta"][0]),
        directed_fraenkel=float(cols["alpha_hat"][0]),
        excess=float(cols["excess"][0]),
    )
