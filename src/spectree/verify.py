"""Seeded property suites behind the ``verify`` command.

Each suite replays one family of operator-theoretic invariants over
generated instances and collects violations together with a self-contained
document that reproduces the offending instance. Everything is a pure
function of the seed.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .analysis import SCHEMA_VERSION, serialize_instance
from .compop import (OperatorSpec, apply, compactness_profile, isometry_check,
                     operator_norm, ratio_sup, tail_defect)
from .instances import (_P_CHOICES, random_bary_tree, random_function, random_injective_spec,
                        random_multiplicity_spec, random_nonidentity_permutation_map,
                        random_unit_functions, random_weight)
from .lpspace import basis_vector, norm_p, point_eval_norm, project
from .schatten import hs_norm, schatten_sum, singular_values_analytic, trace_diagonal
from .selfmap import adversary_unbounded, adversary_vanishing, analyze
from .tree import build_bary
from .weight import bounds, constant_weight, custom_weight, geometric_weight, reciprocal_depth_weight


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.violations: list[dict] = []

    def check(self, ok: bool, description: str, op: OperatorSpec | None = None) -> None:
        self.cases += 1
        if not ok:
            entry = {"suite": self.name, "case": self.cases, "description": description}
            if op is not None:
                entry["instance"] = serialize_instance(op)
            self.violations.append(entry)

    def result(self) -> dict:
        return {"name": self.name, "cases": self.cases, "violations": self.violations}


def suite_lpspace(seed: int) -> dict:
    rec = _Recorder("lpspace")
    rng = np.random.default_rng([seed, 101])
    for _ in range(6):
        tree = random_bary_tree(rng, max_vertices=200)
        weight = random_weight(rng, tree)
        for p in _P_CHOICES:
            vs = rng.integers(0, len(tree), size=6)
            norms = norm_p([basis_vector(weight, int(v), p) for v in vs], weight, p)
            for v, nrm in zip(vs, norms):
                rec.check(abs(nrm - 1.0) <= 1e-12,
                          f"normalized indicator of vertex {v} has p-norm != 1 (p={p})")
        for _ in range(8):
            p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
            f = random_function(rng, tree)
            g = random_function(rng, tree)
            c = float(rng.uniform(0.1, 5.0))
            v = int(rng.integers(len(tree)))
            n = int(rng.integers(0, tree.truncation_depth + 1))
            head = project(tree, f, n)
            nf, ng, nfg, ncf, nhead, ntail = norm_p([f, g, f + g, c * f, head, f - head], weight, p)
            rec.check(nfg <= nf + ng + 1e-10, f"triangle inequality failed (p={p})")
            rec.check(abs(ncf - c * nf) <= 1e-10 * max(1.0, c * nf),
                      f"absolute homogeneity failed (p={p})")
            bound = point_eval_norm(weight, v, p) * nf
            rec.check(abs(f[v]) <= bound * (1.0 + 1e-10) + 1e-12,
                      f"point evaluation bound failed at vertex {v} (p={p})")
            rec.check(nhead <= nf * (1.0 + 1e-12), "truncation projection is not a contraction")
            rec.check(ntail <= nf * (1.0 + 1e-12),
                      "complement of the truncation projection is not a contraction")
            rec.check(bool(np.array_equal(project(tree, head, n), head)),
                      "truncation projection is not idempotent")
    return rec.result()


def suite_norms(seed: int) -> dict:
    rec = _Recorder("norms")
    rng = np.random.default_rng([seed, 202])
    for _ in range(20):
        op = random_injective_spec(rng)
        rs = ratio_sup(op).value
        nrm = operator_norm(op).value
        expected = rs ** (1.0 / op.p)
        rec.check(abs(nrm - expected) <= 1e-10 * max(expected, 1.0),
                  "injective norm identity: operator_norm != ratio_sup**(1/p)", op)
        m, big = bounds(op.weight)
        rec.check(rs <= (big / m) * (1.0 + 1e-12),
                  "ratio supremum exceeds the weight-bounds quotient", op)
    for _ in range(12):
        mult = int(rng.integers(2, 5))
        op = random_multiplicity_spec(rng, mult)
        rs = ratio_sup(op).value
        nrm = operator_norm(op).value
        low = rs ** (1.0 / op.p)
        high = (mult * rs) ** (1.0 / op.p)
        rec.check(low <= nrm * (1.0 + 1e-10) and nrm <= high * (1.0 + 1e-10),
                  "norm sandwich ratio_sup**(1/p) <= norm <= (M*ratio_sup)**(1/p) failed", op)
    for i in range(6):
        op = random_injective_spec(rng, p=2.0)
        mu1 = float(oracle.svd_values(oracle.matrix_of(op))[0])
        nrm = operator_norm(op).value
        rec.check(abs(mu1 - nrm) <= 1e-8 * max(nrm, 1.0),
                  "largest oracle singular value disagrees with the exact norm", op)
        found = oracle.norm_search(op, samples=20, seed=seed + i)
        rec.check(found <= nrm + 1e-9 and found >= nrm - 1e-9,
                  "stochastic norm search left the [norm - 1e-9, norm + 1e-9] window", op)
    return rec.result()


def suite_isometry(seed: int) -> dict:
    rec = _Recorder("isometry")
    rng = np.random.default_rng([seed, 303])
    for _ in range(8):
        tree = random_bary_tree(rng, max_vertices=200)
        weight = constant_weight(tree, float(rng.uniform(0.1, 10.0)))
        symbol = random_nonidentity_permutation_map(rng, tree)
        p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
        op = OperatorSpec(tree, weight, symbol, p)
        verdict = isometry_check(op)
        rec.check(verdict.is_isometry,
                  "constant weight + vertex-set bijection must be an isometry", op)
        for nrm in norm_p(apply(op, random_unit_functions(rng, weight, p, 20)), weight, p):
            rec.check(abs(nrm - 1.0) <= 1e-9, "an isometry moved the norm of a unit function", op)

        # one weight entry nudged at a non-fixed vertex must flip the verdict
        moved = int(np.flatnonzero(symbol.image != np.arange(len(tree)))[0])
        nudged = weight.values.copy()
        nudged[moved] *= 1.01
        op_bad = OperatorSpec(tree, custom_weight(tree, nudged), symbol, p)
        bad = isometry_check(op_bad)
        rec.check(not bad.is_isometry, "perturbed weight still reported as isometry", op_bad)
        witness_ok = bad.witness_image_norm is not None and abs(bad.witness_image_norm - 1.0) > 1e-6
        rec.check(witness_ok, "non-isometry witness function does not deviate", op_bad)

        op2 = OperatorSpec(tree, weight, symbol, 2.0)
        gram = oracle._gram(*oracle._gram_parts(oracle.matrix_of(op2)))
        orthogonal = bool(np.max(np.abs(gram - np.eye(len(tree)))) <= 1e-10)
        rec.check(orthogonal == isometry_check(op2).is_isometry,
                  "isometry verdict disagrees with the oracle Gram identity", op2)
    return rec.result()


def suite_compactness(seed: int) -> dict:
    rec = _Recorder("compactness")
    rng = np.random.default_rng([seed, 404])
    for i in range(12):
        mult = int(rng.integers(2, 5)) if i % 3 == 2 else 1
        op = random_injective_spec(rng) if mult == 1 else random_multiplicity_spec(rng, mult)
        prof = compactness_profile(op)
        s = prof.values
        rec.check(bool((np.diff(s) <= 1e-300).all()),
                  "tail supremum profile is not nonincreasing", op)
        rs = ratio_sup(op).value
        tol = 1e-12 * max(mult * rs, 1.0)  # M = 1: the injective identity s[0] == ratio_sup
        rec.check(rs - tol <= float(s[0]) <= mult * rs + tol,
                  "profile start left the sandwich ratio_sup <= s[0] <= M*ratio_sup", op)
        depth = op.tree.truncation_depth
        for low in sorted({0, depth // 2}):
            prev = None
            for n in range(low + 1, depth + 1):
                d = tail_defect(op, n, low)
                rec.check(d ** op.p <= float(s[low]) + 1e-10,
                          f"tail defect bound broke at n={n}, N={low}", op)
                if prev is not None:
                    rec.check(d <= prev + 1e-12, "tail defect increased with n", op)
                prev = d
    return rec.result()


def suite_schatten(seed: int) -> dict:
    rec = _Recorder("schatten")
    rng = np.random.default_rng([seed, 505])
    for i in range(10):
        if i % 2 == 0:
            op = random_injective_spec(rng, p=2.0, max_vertices=200)
        else:
            op = random_multiplicity_spec(rng, int(rng.integers(2, 5)), p=2.0, max_vertices=200)
        analytic = singular_values_analytic(op)
        matrix = oracle.matrix_of(op)
        numeric = oracle.svd_values(matrix)
        rec.check(float(np.max(np.abs(analytic - numeric))) <= 1e-8,
                  "analytic singular values disagree with the dense SVD", op)
        hs = hs_norm(op)
        frob = oracle.frobenius_norm(matrix)
        rec.check(abs(hs * hs - frob * frob) <= 1e-9 * max(frob * frob, 1.0),
                  "squared Hilbert-Schmidt norm differs from the Frobenius norm", op)
        rec.check(abs(hs * hs - schatten_sum(op, 2.0)) <= 1e-10 * max(hs * hs, 1.0),
                  "Schatten sum at q = 2 differs from the squared Hilbert-Schmidt norm", op)
        rec.check(abs(float(analytic[0]) - operator_norm(op).value) <= 1e-10,
                  "top singular value differs from the exact operator norm", op)
        trace = trace_diagonal(op)
        rec.check(trace.value == float(trace.fixed_point_count),
                  "trace diagonal is not the fixed-point count", op)
        rec.check(trace.fixed_point_count == len(analyze(op.symbol).fixed_points),
                  "fixed-point count disagrees with the map profile", op)
    return rec.result()


def suite_adversary(seed: int) -> dict:
    rec = _Recorder("adversary")
    for depth in (16, 64):
        path = build_bary(1, depth)
        flat = constant_weight(path, 1.0)
        rec.check(adversary_unbounded(path, flat) is None,
                  "constant weight produced an unbounded-weight adversary")
        rec.check(adversary_vanishing(path, flat) is None,
                  "constant weight produced a vanishing-weight adversary")

        shrinking = reciprocal_depth_weight(path)
        symbol = adversary_vanishing(path, shrinking)
        rec.check(symbol is not None, "reciprocal-depth weight needs a vanishing-weight adversary")
        if symbol is not None:
            op = OperatorSpec(path, shrinking, symbol, 2.0)
            rec.check(analyze(symbol).injective, "adversary symbol must stay injective", op)
            rec.check(ratio_sup(op).value >= float(depth + 1) - 1e-9,
                      "vanishing-weight adversary missed the root-to-frontier ratio", op)

        growing = geometric_weight(path, 2.0)
        symbol = adversary_unbounded(path, growing)
        rec.check(symbol is not None, "geometric growth needs an unbounded-weight adversary")
        if symbol is not None:
            op = OperatorSpec(path, growing, symbol, 2.0)
            rec.check(analyze(symbol).injective, "adversary symbol must stay injective", op)
            rec.check(ratio_sup(op).value >= 2.0 ** depth * (1.0 - 1e-12),
                      "unbounded-weight adversary missed the frontier-to-root ratio", op)
    return rec.result()


SUITES = {
    "lpspace": suite_lpspace,
    "norms": suite_norms,
    "isometry": suite_isometry,
    "compactness": suite_compactness,
    "schatten": suite_schatten,
    "adversary": suite_adversary,
}


def run_verify(names: list[str] | None = None, seed: int = 0) -> dict:
    """Run the selected suites (all by default) and assemble the report."""
    if names:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise ValueError(
                f"unknown suite '{unknown[0]}'; available: {', '.join(sorted(SUITES))}")
        selected = sorted(set(names))
    else:
        selected = sorted(SUITES)
    results = [SUITES[name](seed) for name in selected]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": seed,
        "suites": results,
        "passed": all(not r["violations"] for r in results),
    }
