"""Tools for mapping out the alternative optima of linear programs.

A solver reports one optimal point; this package reports all of them.  It
enumerates every vertex of the optimal face (or of a near-optimal sublevel
set), projects the result onto the coordinates that matter, and compares
what different model relaxations keep of each other's solutions.  Builders
for three small power-system formulations and a brute-force oracle for
cross-checking the enumerator are included.
"""

from .analysis import (
    ContainmentReport,
    PairResult,
    RankedAlternatives,
    check_containment,
    compare_projected_sets,
    is_in_convex_hull,
    rank_alternatives,
    rank_by_scores,
)
from .binary import BinarySolutionPool, enumerate_binary, solve_binary
from .model import Constraint, LpModel, Objective, Variable
from .power import (
    Generator,
    Line,
    Network,
    NetworkError,
    build_copper_plate,
    build_dcopf,
    build_network_flow,
    canonical_3bus,
    load_network,
    network_from_dict,
    parse_network,
)
from .projection import ProjectionSpec, project_point, project_set, role_projection
from .reporting import make_report, render_report, write_report
from .sets import UniquenessCertificate, VertexSet
from .simplex import SimplexResult, solve_model, solve_standard
from .standard_form import StandardForm, drop_redundant_equalities, to_standard_form
from .sublevel import SublevelSpec, add_level_cut, apply_box_bounds, make_sublevel_model
from .vertices import (
    EnumerationError,
    NumericFailureError,
    OracleGuardError,
    UnboundedRegionError,
    brute_force_vertices,
    enumerate_vertices,
    is_unique_minimizer,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySolutionPool",
    "Constraint",
    "ContainmentReport",
    "EnumerationError",
    "Generator",
    "Line",
    "LpModel",
    "Network",
    "NetworkError",
    "NumericFailureError",
    "Objective",
    "OracleGuardError",
    "PairResult",
    "ProjectionSpec",
    "RankedAlternatives",
    "SimplexResult",
    "StandardForm",
    "SublevelSpec",
    "UnboundedRegionError",
    "UniquenessCertificate",
    "Variable",
    "VertexSet",
    "add_level_cut",
    "apply_box_bounds",
    "brute_force_vertices",
    "build_copper_plate",
    "build_dcopf",
    "build_network_flow",
    "canonical_3bus",
    "check_containment",
    "compare_projected_sets",
    "drop_redundant_equalities",
    "enumerate_binary",
    "enumerate_vertices",
    "is_in_convex_hull",
    "is_unique_minimizer",
    "load_network",
    "make_report",
    "make_sublevel_model",
    "network_from_dict",
    "parse_network",
    "project_point",
    "project_set",
    "rank_alternatives",
    "rank_by_scores",
    "render_report",
    "role_projection",
    "solve_binary",
    "solve_model",
    "solve_standard",
    "to_standard_form",
    "write_report",
]
