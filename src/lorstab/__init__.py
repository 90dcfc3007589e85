"""Numerical stability analysis of closed spacelike hypersurfaces in de
Sitter space: curvature algebra, surface construction, weak-form operators,
the eigenvalue stability criterion, and finite-difference variation checks.
"""

from .curvature import (
    CurvatureTable,
    NewtonTransform,
    ShapeSpectrum,
    curvature_table,
    elementary_symmetric,
    newton_traces,
    newton_transform,
    r_area_integrand,
    stability_constant,
    variation_constant,
)
from .fem import (
    EigenResult,
    OperatorPair,
    SolverError,
    assemble,
    first_eigenvalue_meanzero,
    smallest_eigenvalues_meanzero,
    weak_residual,
)
from .harmonics import HarmonicField, SphericalHarmonic, harmonic_basis
from .lorentz import (
    ConformalFieldSpec,
    DeSitterPoint,
    GrwCoordinates,
    KillingFieldSpec,
    chronological_position,
    conformal_field,
    grw_curvature_check,
    grw_embed,
    grw_extract,
    killing_field,
    minkowski_inner,
    normal_geodesic,
)
from .mesh import icosphere, load_mesh, save_mesh
from .stability import (
    DegenerateFieldError,
    QuadraticFormSample,
    StabilityReport,
    Tolerances,
    analyze,
    conformal_identity_check,
    jacobi_second_variation,
    killing_eigen_check,
)
from .surfaces import (
    GraphConstructionError,
    GraphSurface,
    SliceSurface,
    build_graph,
    build_slice,
    shape_operator_at,
    support_function,
    surface_from_mesh_file,
    tangential_gradient,
)
from .variation import (
    FlowError,
    FunctionalTrace,
    NormalVariation,
    VariationCheck,
    flow,
    functional_trace,
    r_area,
    verify_first_variation,
    verify_second_variation,
    verify_sr_evolution,
    volume_balance,
    volume_derivative_check,
)

__version__ = "0.1.0"
