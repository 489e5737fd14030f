"""Closed-form minimization of powered distance sums over a triangle.

For a triangle with side lines L1, L2, L3 and a real exponent n >= 1, the
function F(P) = d(P,L1)^n + d(P,L2)^n + d(P,L3)^n has a minimizer in the
closed triangle, unique for n > 1.  This package computes that point and
the minimum value in closed form, certifies the answer with first- and second-order optimality
checks, and cross-validates it against two independent numeric oracles.
"""

__version__ = "0.1.0"

from .closed_form import (
    DerivedConstants,
    MinimizerResult,
    minimize_closed_form,
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
    CanonicalTriangle,
    GeneralTriangle,
    Isometry,
    Point,
    altitudes,
    canonicalize,
    incenter,
)
from .kkt import (
    KktReport,
    Verdict,
    evaluate_F,
    kkt_residual,
)
from .oracle import (
    DiscrepancyReport,
    OracleConfig,
    compare,
    grid_search,
    projected_gradient,
)
from .sampling import random_general_triangle

__all__ = [
    "__version__",
    "CanonicalTriangle",
    "DegenerateTriangle",
    "DerivedConstants",
    "DidNotConverge",
    "DiscrepancyReport",
    "GeneralTriangle",
    "InvalidExponent",
    "Isometry",
    "KktReport",
    "MinimizerResult",
    "OracleConfig",
    "Point",
    "PointNotFeasible",
    "PointNotInterior",
    "TriPowMinError",
    "Verdict",
    "altitudes",
    "canonicalize",
    "compare",
    "evaluate_F",
    "grid_search",
    "incenter",
    "kkt_residual",
    "minimize_closed_form",
    "projected_gradient",
    "random_general_triangle",
]
