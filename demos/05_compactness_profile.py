"""Tail suprema as a finite-depth compactness diagnostic.

s[N] is the largest h(u) = w(preimage(u)) / w(u) among vertices u at depth N
or deeper, so s[0] = ||C||^p. On the infinite tree the operator is compact
exactly when h vanishes at infinity, i.e. s[N] tends to zero; a truncation
can only report the trend, and it says so: the verdict is labeled
consistent/not-consistent, never proved. The constant-weight space admits no
compact composition operator with an injective symbol, and the profiles show
why: h never decays.
"""

import numpy as np

from spectree import (OperatorSpec, build_bary, compactness_profile,
                      constant_weight, depth_square_map, geometric_weight,
                      identity_map, level_shift_map, tail_defect)


def show(name, spec):
    prof = compactness_profile(spec)
    values = ", ".join(f"{v:.3g}" for v in prof.values)
    print(f"{name}\n  s = [{values}]")
    print(f"  verdict: {prof.verdict}"
          + (", decay relies on the truncation frontier" if prof.frontier_cliff else ""))


tree = build_bary(2, 10)

show("identity symbol, constant weight (h is 1 everywhere):",
     OperatorSpec(tree, constant_weight(tree, 1.0), identity_map(tree), 2.0))

path = build_bary(1, 10)
show("\nparent-direction shift on a path, weight 0.5^depth (h = 0.5 below the root;"
     "\nthe root's preimage is the root and its child, so s starts at 1.5):",
     OperatorSpec(path, geometric_weight(path, 0.5), level_shift_map(path, 1), 2.0))

show("\ndepth-squaring symbol, weight 2^depth (images far outweigh sources):",
     OperatorSpec(tree, geometric_weight(tree, 2.0), depth_square_map(tree), 2.0))

show("\ndepth-squaring symbol, weight 0.5^depth (sources outweigh images):",
     OperatorSpec(tree, geometric_weight(tree, 0.5), depth_square_map(tree), 2.0))
print("  note: h at depth n^2 grows like 2^(n^2 - n); only the empty tail past")
print("  the deepest image pulls s to zero, hence the frontier-cliff flag.")

print("\n== tail defects: how well C A_n approximates C ==")
spec = OperatorSpec(tree, geometric_weight(tree, 2.0), depth_square_map(tree), 2.0)
prof = compactness_profile(spec)
low = 2
print(f"s[{low}] = {prof.values[low]:.6g}; the defect ||C - C A_n|| for n > {low}:")
for n in range(low + 1, 11, 2):
    d = tail_defect(spec, n, low)
    print(f"  n={n}: defect = {d:.6g}  (bound s[{low}]^(1/2) = {prof.values[low] ** 0.5:.6g})")
