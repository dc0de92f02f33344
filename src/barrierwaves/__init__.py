"""Schrodinger evolution outside a half-line barrier.

Evaluates the time evolution of waves in the plane slit along the negative
vertical half-line, with Dirichlet or Neumann conditions on the slit, by
two independent representations -- a rotated-contour quadrature of the
propagator and an infinite-order differential operator acting on the
initial datum -- and uses them to study how superoscillatory data keep
their faster-than-Fourier behaviour under evolution.
"""

from .complexfn import (
    ToleranceNotReached,
    erfcx,
    erfcx_by_quadrature,
    log_mittag_leffler_half,
    mittag_leffler_half,
)
from .geometry import (
    BoundaryError,
    CartesianPoint,
    PolarPoint,
    in_domain,
    on_barrier,
    to_cartesian,
    to_polar,
)
from .greens import (
    BoundaryKind,
    StencilCrossesBarrier,
    greens,
    greens_reduced_bound,
    schrodinger_residual,
)
from .evolve import (
    DiscreteSuperposition,
    NonConvergence,
    PlaneWave,
    QuadratureSpec,
    RegularizedResult,
    TailBoundUnsatisfiable,
    TaylorField,
    WaveSample,
    eval_datum,
    growth_envelope,
    psi_fresnel,
    psi_regularized_oracle,
    rho_max,
)
from .operator import (
    CoeffTable,
    TruncationInsufficient,
    apply_plane_wave,
    apply_taylor,
    build_table,
    coeff_bound,
    log_continuity_constant,
    truncation_order,
)
from .superosc import (
    CoefficientOverflow,
    SuperoscParams,
    SupershiftRow,
    a1_distance,
    closed_form_fn,
    superosc_coefficients,
    superosc_sequence,
    supershift_experiment,
)

__all__ = [
    "BoundaryError",
    "BoundaryKind",
    "CartesianPoint",
    "CoeffTable",
    "CoefficientOverflow",
    "DiscreteSuperposition",
    "NonConvergence",
    "PlaneWave",
    "PolarPoint",
    "QuadratureSpec",
    "RegularizedResult",
    "StencilCrossesBarrier",
    "SuperoscParams",
    "SupershiftRow",
    "TailBoundUnsatisfiable",
    "TaylorField",
    "ToleranceNotReached",
    "TruncationInsufficient",
    "WaveSample",
    "a1_distance",
    "apply_plane_wave",
    "apply_taylor",
    "build_table",
    "closed_form_fn",
    "coeff_bound",
    "erfcx",
    "erfcx_by_quadrature",
    "eval_datum",
    "greens",
    "greens_reduced_bound",
    "growth_envelope",
    "in_domain",
    "log_continuity_constant",
    "log_mittag_leffler_half",
    "mittag_leffler_half",
    "on_barrier",
    "psi_fresnel",
    "psi_regularized_oracle",
    "rho_max",
    "schrodinger_residual",
    "superosc_coefficients",
    "superosc_sequence",
    "supershift_experiment",
    "to_cartesian",
    "to_polar",
    "truncation_order",
]

__version__ = "0.1.0"
