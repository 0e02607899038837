"""Monge-Ampere geometry toolkit for semigeostrophic balance.

Exact polynomial generating functions on four Legendre-dual charts,
immersions into phase space, the pull-back Lychagin-Rubtsov metric with
signature classification, projection singularities and caustics,
bicharacteristic ray tracing with analytic oracles, a polynomial solution
family, and full wind-field reconstruction.
"""

from .polyexpr import ParseError, Poly, parse_poly
from .errors import ConfigError, DomainError, MetricSingularError, NoBranchError, SgmaError
from .grid import Axis, Grid
from .ma_core import (
    AMBIENT_COORDS,
    AmbientPoint,
    ChartKind,
    GeneratingFunction,
    Signature,
    SignatureLabel,
    Sym3,
    classification_grid,
    classify,
    hessian,
    hessian_polys,
    immersion,
    immersion_jacobian,
    immersion_polys,
    linearization_matrix,
    ma_residual,
    ma_residual_poly,
    pullback_metric,
    pullback_metric_polys,
)
from .singular import (
    BranchChoice,
    BranchPoint,
    CausticSample,
    CausticSweep,
    GridSpec2D,
    branch_hessian,
    branch_is_convex,
    branch_select_convex,
    caustic_sweep,
    dpi_det,
    fiber_solve,
    multivalued_P,
    singular_locus_poly,
)
from .characteristics import (
    BicharState,
    Termination,
    Trace,
    analytic_null_geodesic,
    eikonal_residual,
    eikonal_residual_grad,
    ham_rhs,
    hamiltonian,
    null_project,
    trace_bicharacteristic,
)
from .family import (
    DegreeReport,
    FamilyError,
    FamilySolution,
    FamilySpec,
    build_family,
    derive_recursions,
    random_generic_spec,
    reference_recursion_report,
)
from .sg import (
    EpsilonChoice,
    PlaneGridSpec,
    SGState,
    WindSample,
    branch_state,
    reconstructed_state,
    velocity_reconstruct,
    wind_field_sweep,
)

__version__ = "0.1.0"
