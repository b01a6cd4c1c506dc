"""Singular values, Schatten sums, and the trace / fixed-point identity.

In the normalized indicator basis the operator matrix has one nonzero per
row, so C*C is diagonal and the singular values are sqrt(w(preimage(u))/w(u))
in closed form. The dense oracle rebuilds the matrix and diagonalizes it with
Jacobi rotations; the two spectra agree to machine precision. Partial sums of
singular-value powers across a depth ladder diagnose Schatten-class
membership trends.
"""

import numpy as np

from spectree import (OperatorSpec, build_bary, constant_weight,
                      depth_square_map, geometric_weight, hs_norm, identity_map,
                      matrix_of, parent_map, schatten_sum, schatten_trend,
                      singular_values_analytic, svd_values, trace_diagonal)
from spectree.analysis import spectrum_csv
from spectree.schatten import singular_value_classes

print("== closed form vs oracle on a small instance ==")
tree = build_bary(2, 2)
spec = OperatorSpec(tree, constant_weight(tree, 1.0), parent_map(tree), 2.0)
analytic = singular_values_analytic(spec)
numeric = svd_values(matrix_of(spec))
print(f"analytic: {np.round(analytic, 8)}")
print(f"oracle:   {np.round(numeric, 8)}")
print(f"max difference: {np.max(np.abs(analytic - numeric)):.2e}")
trace = trace_diagonal(spec)
print(f"trace = {trace.value} = number of fixed points = {trace.fixed_point_count} (the root)")

print("\n== Hilbert-Schmidt norm on a geometric path, closed form sqrt(1 + depth * ratio) ==")
for ratio, depth in ((0.5, 6), (0.25, 12), (2.0, 8)):
    path = build_bary(1, depth)
    spec = OperatorSpec(path, geometric_weight(path, ratio), parent_map(path), 2.0)
    print(f"ratio={ratio}, depth={depth}: hs_norm = {hs_norm(spec):.8f} "
          f"(expected {np.sqrt(1 + depth * ratio):.8f})")

print("\n== Schatten partial sums across a depth ladder ==")
print("growing weight + depth-squaring symbol: the singular values decay so fast")
print("that the sums converge; the identity symbol adds 1 per vertex and diverges.")
for label, make in (
    ("depth-squaring, weight 2^depth", lambda t: OperatorSpec(
        t, geometric_weight(t, 2.0), depth_square_map(t), 2.0)),
):
    for q in (1.0, 2.0):
        sums = []
        for n in (2, 3, 4, 5, 6):
            t = build_bary(2, n * n, branch_until=n)
            sums.append(schatten_sum(make(t), q))
        pretty = ", ".join(f"{s:.8f}" for s in sums)
        print(f"  {label}, q={q}: [{pretty}] -> {schatten_trend(sums)}")

sums = []
for depth in (2, 4, 6, 8):
    t = build_bary(2, depth)
    sums.append(schatten_sum(OperatorSpec(t, constant_weight(t, 1.0),
                                          identity_map(t), 2.0), 2.0))
print(f"  identity, q=2: {[round(s, 1) for s in sums]} -> {schatten_trend(sums)}")

print("\n== exporting the spectrum ==")
spec = OperatorSpec(tree, constant_weight(tree, 1.0), parent_map(tree), 2.0)
# distinct singular values with their multiplicities, then the oracle's values
csv_text = spectrum_csv(*singular_value_classes(spec), svd_values(matrix_of(spec)))
print("the CSV that `spectree spectrum --csv` writes for this instance:")
for line in csv_text.splitlines()[:4]:
    print(f"  {line}")
