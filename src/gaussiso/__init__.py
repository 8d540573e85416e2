"""Gaussian isoperimetric quantities, stability functionals, and verification."""

from .corpus import RandomSetSpec, mixed_corpus, random_interval_union
from .functionals import (
    STABILITY_CONSTANT,
    FunctionalParams,
    QuantityBundle,
    excess_identity,
    max_barycenter_norm,
    penalized_functional,
    quantities,
    quantity_columns,
    stability_params,
)
from .optimize import (
    MassSweepRow,
    MinimizeOutcome,
    OptimizerSettings,
    mass_sweep,
    minimize_penalized_functional,
)
from .sets import (
    MERGE_TOL,
    CenteredBall,
    GaussianSet,
    HalfSpace,
    IntervalUnion1D,
    SlabSet,
    barycenter,
    complement,
    contains_points,
    dimension,
    half_line_set,
    mass_level,
    mc_measure,
    measure,
    normalize,
    perimeter,
    set_from_dict,
    set_from_json,
    set_to_dict,
    set_to_json,
    symm_diff_measure,
    symmetric_interval_halfwidth,
    two_ray_endpoint,
    two_ray_set,
)
from .stationarity import (
    EulerReport,
    QuadraticFormJ,
    boundary_points,
    euler_residual,
    lagrange_bound_check,
    mass_preserving_flow,
    psd_on_zero_average,
    second_derivative_along_flow,
    second_variation_form,
)
from .verify import (
    SUITE_NAMES,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    emit_report,
    render_report,
    run_suite,
)

__version__ = "0.1.0"
