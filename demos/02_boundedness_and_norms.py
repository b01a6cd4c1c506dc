"""Exact operator norms and their structural bounds.

The composition operator's norm on the truncation is
sup_u [w(preimage(u)) / w(u)]^(1/p). For injective symbols it collapses to
ratio_sup^(1/p); bounded multiplicity M sandwiches it between ratio_sup^(1/p)
and (M * ratio_sup)^(1/p). A stochastic search and the dense-matrix oracle
confirm the closed form from below and from the spectrum.
"""

import numpy as np

from spectree import (OperatorSpec, build_bary, constant_weight, matrix_of,
                      norm_search, operator_norm, parent_map, ratio_sup,
                      svd_values)
from spectree.instances import (random_bounded_multiplicity_map,
                                random_permutation_map, random_weight)

rng = np.random.default_rng(7)

print("== the textbook example: parent map, constant weight, p = 2 ==")
tree = build_bary(2, 2)
spec = OperatorSpec(tree, constant_weight(tree, 1.0), parent_map(tree), 2.0)
rs, nrm, mult = ratio_sup(spec).value, operator_norm(spec).value, spec.profile.max_multiplicity
print(f"ratio_sup = {rs}, multiplicity = {mult}")
print(f"exact norm = {nrm:.8f}  (sqrt(3): the root absorbs itself and both children)")
print(f"sandwich:   {rs ** 0.5:.8f} <= norm <= {(mult * rs) ** 0.5:.8f}")
print(f"oracle top singular value = {svd_values(matrix_of(spec))[0]:.8f}")
print(f"random search lower bound  = {norm_search(spec, samples=50, seed=1):.8f}")

print("\n== injective symbols: norm is ratio_sup^(1/p) on the nose ==")
tree = build_bary(3, 4)
weight = random_weight(rng, tree)
for p in (1.0, 1.5, 2.0, 3.0):
    spec = OperatorSpec(tree, weight, random_permutation_map(rng, tree), p)
    rs = ratio_sup(spec).value
    nrm = operator_norm(spec).value
    print(f"p={p}: ratio_sup^(1/p) = {rs ** (1 / p):.10f}, exact norm = {nrm:.10f}")

print("\n== bounded multiplicity: the sandwich in action ==")
for mult in (2, 3, 4):
    symbol = random_bounded_multiplicity_map(rng, tree, mult)
    spec = OperatorSpec(tree, weight, symbol, 2.0)
    rs, nrm = ratio_sup(spec).value, operator_norm(spec).value
    print(f"M={mult}: {rs ** 0.5:9.4f} <= {nrm:9.4f} <= {(mult * rs) ** 0.5:9.4f}")

print("\nthe norm is attained by the normalized indicator of the witness vertex,")
print("so the stochastic search (which includes all indicators) meets it exactly:")
spec = OperatorSpec(tree, weight, random_bounded_multiplicity_map(rng, tree, 3), 2.0)
print(f"norm_search = {norm_search(spec, samples=40, seed=2):.12f}")
print(f"exact norm  = {operator_norm(spec).value:.12f}")
