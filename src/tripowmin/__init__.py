"""Closed-form minimization of powered distance sums over a triangle.

For a triangle with side lines L1, L2, L3 and a real exponent n > 1, the
function F(P) = d(P,L1)^n + d(P,L2)^n + d(P,L3)^n has a unique minimizer in
the closed triangle.  This package computes that point and the minimum value
in closed form, certifies the answer with first- and second-order optimality
checks, and cross-validates it against two independent numeric oracles.
"""

__version__ = "0.1.0"

from .closed_form import (
    DerivedConstants,
    MinimizerResult,
    VertexMinimum,
    VertexValues,
    minimize_closed_form,
    minimize_n1,
    vertex_values,
)
from .errors import (
    DegenerateTriangle,
    DidNotConverge,
    InvalidExponent,
    PointNotFeasible,
    PointNotInterior,
    TriPowMinError,
)
from .geometry import (
    Altitudes,
    CanonicalTriangle,
    GeneralTriangle,
    Isometry,
    SideDistances,
    altitudes,
    canonicalize,
    contains,
    incenter,
    project_to_triangle,
    side_distances,
)
from .kkt import (
    HessianInfo,
    KktReport,
    Verdict,
    evaluate_F,
    gradient,
    hessian,
    kkt_residual,
)
from .oracle import (
    DiscrepancyReport,
    OracleConfig,
    PgResult,
    compare,
    grid_search,
    projected_gradient,
)
from .sampling import random_canonical_triangle, random_general_triangle

__all__ = [
    "__version__",
    "Altitudes",
    "CanonicalTriangle",
    "DegenerateTriangle",
    "DerivedConstants",
    "DidNotConverge",
    "DiscrepancyReport",
    "GeneralTriangle",
    "HessianInfo",
    "InvalidExponent",
    "Isometry",
    "KktReport",
    "MinimizerResult",
    "OracleConfig",
    "PgResult",
    "PointNotFeasible",
    "PointNotInterior",
    "SideDistances",
    "TriPowMinError",
    "Verdict",
    "VertexMinimum",
    "VertexValues",
    "altitudes",
    "canonicalize",
    "compare",
    "contains",
    "evaluate_F",
    "gradient",
    "grid_search",
    "hessian",
    "incenter",
    "kkt_residual",
    "minimize_closed_form",
    "minimize_n1",
    "project_to_triangle",
    "projected_gradient",
    "random_canonical_triangle",
    "random_general_triangle",
    "side_distances",
    "vertex_values",
]
