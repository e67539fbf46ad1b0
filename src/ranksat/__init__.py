"""Rank-metric covering codes and rank-saturating q-systems.

Exact constructions, radii measured by cross-validating exhaustive
sweeps, and bound tables for the minimal dimension of a saturating
system.
"""

from .bounds import (BoundsEntry, bounds_table, brute_force_s, exact_values,
                     gaussian_binomial, lower_bound, upper_bound,
                     verify_published_rows)
from .constructions import (Decomposition, construct_identity_block,
                            construct_rho1, construct_subgeometry,
                            cutting_system_6_3, cutting_system_8_4,
                            decompose, direct_sum, f_sum, gabidulin,
                            plotkin_sum)
from .covering import (BudgetExceeded, ConsistencyError,
                       SaturationCertificate, check_bound_consistency,
                       hamming_covering_radius, is_linear_cutting_blocking_set,
                       is_maximal, is_minimal_rank_code, puncture_nonscattered,
                       rank_covering_radius, saturation_radius,
                       saturation_radius_geometric)
from .gftower import (FieldError, FieldTower, SmallField, collapse, expand,
                      make_tower, tower_from_json)
from .linalg import (DEFAULT_BUDGET, MatrixExt, RankCode, min_rank_distance,
                     rank_weight, weight_spectrum)
from .qsystem import (LinearSet, QSystem, associated_code, associated_system,
                      is_nondegenerate, is_scattered, lift_system, linear_set,
                      projective_hamming_code, random_system)

__version__ = "0.1.0"

__all__ = [
    "BoundsEntry", "BudgetExceeded", "ConsistencyError", "Decomposition",
    "DEFAULT_BUDGET", "FieldError", "FieldTower", "LinearSet", "MatrixExt",
    "QSystem", "RankCode", "SaturationCertificate", "SmallField",
    "associated_code", "associated_system", "bounds_table", "brute_force_s",
    "check_bound_consistency", "collapse", "construct_identity_block",
    "construct_rho1", "construct_subgeometry", "cutting_system_6_3",
    "cutting_system_8_4", "decompose", "direct_sum", "exact_values",
    "expand", "f_sum", "gabidulin", "gaussian_binomial",
    "hamming_covering_radius", "is_linear_cutting_blocking_set",
    "is_maximal", "is_minimal_rank_code", "is_nondegenerate", "is_scattered",
    "lift_system", "linear_set", "lower_bound", "make_tower",
    "min_rank_distance", "plotkin_sum", "projective_hamming_code",
    "puncture_nonscattered", "random_system", "rank_covering_radius",
    "rank_weight", "saturation_radius", "saturation_radius_geometric",
    "tower_from_json", "upper_bound", "verify_published_rows",
    "weight_spectrum",
]
