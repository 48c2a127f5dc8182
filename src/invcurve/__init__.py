"""Invariant curves of degenerate planar maps.

Two independent solvers for the unique curve tangent to the positive x-axis
that is invariant under maps of the form
(x, y) -> (x + x^2 + mu xy + ..., -y + lambda xy + ...):

* graph transform: push a short horizontal seed forward, re-graph, refine;
* conjugacy: reduce the inverse second iterate to a cubic model map and read
  the curve off as the image of the conjugating embedding.

Both come with measured certificates and cross-validation utilities.
"""

from .errors import (
    ConjugacyError,
    ConvergenceError,
    DomainError,
    GuardError,
    InvcurveError,
    MapFormatError,
    MapValidationError,
    SeriesError,
)
from .graphtransform import (
    BoundCertificate,
    Curve,
    InvarianceReport,
    SolveDiagnostics,
    SolverConfig,
    TangencyReport,
    bound_certificate,
    graded_grid,
    invariance_residual,
    push_curve,
    rho_refinement,
    seed_curve,
    solve_manifold,
    tangency_fit,
)
from .mapdef import (
    MapSpec,
    Point,
    canon,
    eval_map,
    format_map_spec,
    invert_point,
    parse_map_spec,
    pert,
    to_planar_series,
)
from .normalform import NormalFormResult, normalize_to_order, pullback_curve
from .parameterization import (
    ConjugacyResult,
    GraphInvarianceReport,
    RepulsionTrace,
    build_psi,
    graph_invariance_check,
    parameterize_manifold,
    repulsion_check,
    solve_conjugacy,
    square_map,
)
from .series import (
    DEFAULT_ORDER,
    PlanarSeriesMap,
    Series1,
    Series2,
    compose_maps,
    invert_map_series,
    reverse_series,
)
from .shadowing import (
    OrbitTrace,
    ShadowPair,
    orbit_shadow_experiment,
    shadow_metric,
    shadow_step_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "ConjugacyError",
    "ConjugacyResult",
    "ConvergenceError",
    "Curve",
    "DEFAULT_ORDER",
    "DomainError",
    "GraphInvarianceReport",
    "GuardError",
    "InvarianceReport",
    "InvcurveError",
    "MapFormatError",
    "MapSpec",
    "MapValidationError",
    "NormalFormResult",
    "OrbitTrace",
    "PlanarSeriesMap",
    "Point",
    "RepulsionTrace",
    "Series1",
    "Series2",
    "SeriesError",
    "ShadowPair",
    "SolveDiagnostics",
    "SolverConfig",
    "TangencyReport",
    "bound_certificate",
    "build_psi",
    "canon",
    "compose_maps",
    "eval_map",
    "format_map_spec",
    "graded_grid",
    "graph_invariance_check",
    "invariance_residual",
    "invert_map_series",
    "invert_point",
    "normalize_to_order",
    "orbit_shadow_experiment",
    "parameterize_manifold",
    "parse_map_spec",
    "pert",
    "pullback_curve",
    "push_curve",
    "repulsion_check",
    "reverse_series",
    "rho_refinement",
    "seed_curve",
    "shadow_metric",
    "shadow_step_check",
    "solve_conjugacy",
    "solve_manifold",
    "square_map",
    "tangency_fit",
    "to_planar_series",
]
