"""Composition operators on weighted L^p spaces of rooted-tree truncations.

The library materializes a finite truncation of a rooted tree, equips it with
a strictly positive vertex weight and a self-map (the operator's symbol), and
computes the operator-theoretic quantities that weight and symbol determine:
weight-ratio suprema and exact operator norms, isometry verdicts, compactness
tail diagnostics, singular values, Schatten partial sums and the trace /
fixed-point identity. A dense-matrix Jacobi oracle cross-validates every
closed form.
"""

from .compop import (CompactnessProfile, IsometryVerdict, OperatorNorm,
                     OperatorSpec, RatioSup, apply, boundedness_trend,
                     compactness_profile, isometry_check, operator_norm,
                     preimage_ratio, preimage_weight, ratio_sup, tail_defect)
from .errors import DocumentError
from .lpspace import (basis_vector, inner, norm_p, point_eval_norm, project,
                      validate_exponent)
from .oracle import frobenius_norm, jacobi_eigenvalues, matrix_of, norm_search, svd_values
from .schatten import (TraceDiagonal, hs_norm, schatten_sum, schatten_trend,
                       singular_values_analytic, trace_diagonal)
from .selfmap import (MapProfile, SelfMap, adversary_unbounded,
                      adversary_vanishing, analyze, depth_square_map, dump_map,
                      identity_map, level_shift_map, load_map, parent_map)
from .tree import Tree, build_bary, dump_tree, load_tree, truncate, vertices_at_level
from .weight import (Weight, bounds, constant_weight, custom_weight,
                     dump_weight, geometric_weight, load_weight,
                     reciprocal_depth_weight)

__version__ = "0.1.0"

__all__ = [
    "CompactnessProfile", "DocumentError", "IsometryVerdict", "MapProfile",
    "OperatorNorm", "OperatorSpec", "RatioSup", "SelfMap", "TraceDiagonal",
    "Tree", "Weight", "adversary_unbounded", "adversary_vanishing", "analyze",
    "apply", "basis_vector", "boundedness_trend", "bounds", "build_bary",
    "compactness_profile", "constant_weight", "custom_weight",
    "depth_square_map", "dump_map", "dump_tree", "dump_weight", "frobenius_norm",
    "geometric_weight", "hs_norm", "identity_map", "inner", "isometry_check",
    "jacobi_eigenvalues", "level_shift_map", "load_map", "load_tree",
    "load_weight", "matrix_of", "norm_p", "norm_search",
    "operator_norm", "parent_map", "point_eval_norm", "preimage_ratio",
    "preimage_weight", "project", "ratio_sup", "reciprocal_depth_weight",
    "schatten_sum", "schatten_trend", "singular_values_analytic", "svd_values",
    "tail_defect", "trace_diagonal", "truncate", "validate_exponent",
    "vertices_at_level",
]
