"""When is the composition operator an isometry?

Exactly when the symbol is a bijection of the vertex set and every weight
ratio weight(v)/weight(symbol(v)) equals 1. The check returns a witness on
failure: a vertex whose normalized indicator is a unit function with image
norm other than 1; its preimage under the symbol shows why. At p = 2 the
verdict coincides with the operator matrix being orthogonal.
"""

import numpy as np

from spectree import (OperatorSpec, apply, build_bary, constant_weight,
                      custom_weight, isometry_check, matrix_of, norm_p,
                      parent_map)
from spectree.instances import (random_nonidentity_permutation_map,
                                random_unit_functions)

rng = np.random.default_rng(11)
tree = build_bary(2, 3)
weight = constant_weight(tree, 2.5)
symbol = random_nonidentity_permutation_map(rng, tree)

print("== constant weight + a random bijection ==")
for p in (1.0, 2.0, 3.0):
    spec = OperatorSpec(tree, weight, symbol, p)
    verdict = isometry_check(spec)
    moved = norm_p(apply(spec, random_unit_functions(rng, weight, p, 3)), weight, p)
    print(f"p={p}: isometry={verdict.is_isometry}, three random unit functions map to norms "
          + ", ".join(f"{m:.12f}" for m in moved))

print("\n== nudging one weight value by 1 percent ==")
moved_vertex = int(np.flatnonzero(symbol.image != np.arange(len(tree)))[0])
values = weight.values.copy()
values[moved_vertex] *= 1.01
spec = OperatorSpec(tree, custom_weight(tree, values), symbol, 2.0)
verdict = isometry_check(spec)
print(f"isometry: {verdict.is_isometry} (reason: {verdict.reason})")
u = verdict.witness_vertex
(v,) = np.flatnonzero(symbol.image == u)  # the preimage of the witness
print(f"ratio vertex {v}: weight ratio = "
      f"{values[v] / values[u]:.6f} (should be 1)")
print(f"the normalized indicator of witness vertex {u} = symbol({v}) maps to norm "
      f"{verdict.witness_image_norm:.6f}")

print("\n== the oracle view at p = 2: orthogonality of the matrix ==")
for label, w in (("constant", weight), ("nudged", custom_weight(tree, values))):
    m = matrix_of(OperatorSpec(tree, w, symbol, 2.0))
    off = float(np.max(np.abs(m.T @ m - np.eye(len(tree)))))
    print(f"{label:9s} weight: max |M^T M - I| = {off:.3e}")

print("\n== a non-injective symbol can never be an isometry ==")
spec = OperatorSpec(tree, weight, parent_map(tree), 2.0)
verdict = isometry_check(spec)
shared_by = np.flatnonzero(spec.symbol.image == verdict.witness_vertex).tolist()
print(f"parent map: isometry={verdict.is_isometry}, reason={verdict.reason}, "
      f"witness vertex={verdict.witness_vertex}, shared by {shared_by}, "
      f"witness image norm={verdict.witness_image_norm:.6f}")
