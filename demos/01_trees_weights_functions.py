"""Trees, weights and the weighted p-norm machinery.

Builds a few finite truncations, attaches weight families, and exercises
norms, basis vectors, point evaluation and truncation projections.
"""

import numpy as np

from spectree import (basis_vector, bounds, build_bary, constant_weight,
                      geometric_weight, inner, norm_p,
                      point_eval_norm, project, reciprocal_depth_weight,
                      vertices_at_level)

print("== a binary truncation of depth 3 ==")
tree = build_bary(2, 3)
print(f"vertices: {len(tree)}, level sizes: {np.diff(tree.level_start).tolist()}")
leaf = int(vertices_at_level(tree, 3)[0])
print(f"the first leaf is {tree.depth_of(leaf)} edges below the root")
a, b = (int(v) for v in vertices_at_level(tree, 1))
up = int(tree.parent[a])  # also the parent of b: the path is a - up - b
print(f"the two depth-1 siblings share the parent {up}, so the path between them has "
      f"{tree.depth_of(a) + tree.depth_of(b) - 2 * tree.depth_of(up)} edges")

print("\n== weight families ==")
flat = constant_weight(tree, 1.0)
shrinking = reciprocal_depth_weight(tree)
dyadic = geometric_weight(tree, 0.5)
for name, w in (("constant 1", flat), ("1/(1+depth)", shrinking), ("0.5^depth", dyadic)):
    lo, hi = bounds(w)
    print(f"{name:12s} bounds: [{lo:.4f}, {hi:.4f}]")

print("\n== norms and the normalized indicator basis ==")
ones = np.ones(len(tree), dtype=complex)
print(f"||1||_2 with constant weight = sqrt({len(tree)}) = {norm_p(ones, flat, 2.0):.6f}")
for p in (1.0, 2.0, 3.0):
    f = basis_vector(shrinking, leaf, p)
    print(f"p={p}: normalized leaf indicator has value {f[leaf].real:.6f} and norm "
          f"{norm_p(f, shrinking, p):.12f}")

print("\nat p = 2 the indicators are orthonormal:")
e1 = basis_vector(shrinking, a, 2.0)
e2 = basis_vector(shrinking, b, 2.0)
print(f"<e_a, e_a> = {inner(e1, e1, shrinking).real:.12f}, "
      f"<e_a, e_b> = {abs(inner(e1, e2, shrinking)):.2e}")

print("\n== point evaluation is a bounded functional ==")
rng = np.random.default_rng(0)
f = rng.standard_normal(len(tree)) + 1j * rng.standard_normal(len(tree))
for p in (1.0, 2.0):
    lhs = abs(f[leaf])
    rhs = point_eval_norm(shrinking, leaf, p) * norm_p(f, shrinking, p)
    print(f"p={p}: |f(leaf)| = {lhs:.4f} <= weight(leaf)^(-1/p) * ||f||_p = {rhs:.4f}")

print("\n== truncation projections are contractions ==")
for level in (0, 1, 2):
    head = project(tree, ones, level)
    tail = ones - head
    print(f"keep depth <= {level}: ||head||_2 = {norm_p(head, flat, 2.0):.6f}, "
          f"||tail||_2 = {norm_p(tail, flat, 2.0):.6f}, ||f||_2 = {norm_p(ones, flat, 2.0):.6f}")
