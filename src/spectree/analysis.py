"""Experiment documents and report assembly for the batch front door.

One JSON document describes an experiment (tree source, weight source, map
source, exponent, truncation-depth ladder) and drives every command. Reports
are machine-readable JSON with real numbers rendered as decimal strings with
15 significant digits; serialization is sorted and timestamp-free so reruns
reproduce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import oracle as oracle_mod
from .compop import (OperatorSpec, boundedness_report, boundedness_trend,
                     compactness_profile, isometry_check, ratio_sup, tail_defect)
from .errors import DocumentError
from .schatten import SpectralReport, schatten_trend, spectral_report
from .selfmap import SelfMap, adversary_unbounded, adversary_vanishing, dump_map, load_map
from .tree import (Tree, build_bary, document_int, document_real, dump_tree, load_tree,
                   truncate)
from .weight import Weight, dump_weight, load_weight

SCHEMA_VERSION = 1

CONVENTION_NOTES = (
    "inner products conjugate their second argument",
    "weights are strictly positive; zero or non-finite weights are rejected",
    "suprema and sums range over the stored truncation; verdicts are finite-depth diagnostics, not proofs",
    "symbols with a partial domain exclude undefined vertices instead of padding them",
)


def real_str(x: float) -> str:
    """Canonical decimal rendering: 15 significant digits."""
    return format(float(x), ".15g")


def report_json(report: Mapping) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _indented(report, "") + "\n"


_CONTAINERS = (dict, list, tuple)


def _indented(value, outer: str) -> str:
    # json.dumps(value, indent=2, sort_keys=True) at indentation ``outer``, for
    # string keys. Any indent makes json use its pure-Python encoder, so only
    # the nesting is written here; containers of scalars go to the C encoder.
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    is_dict, pad = isinstance(value, dict), outer + "  "
    opening, closing = "{}" if is_dict else "[]"
    if not value:
        return opening + closing
    members = value.values() if is_dict else value
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, members))):
        body = json.dumps(value, sort_keys=True, separators=(",\n" + pad, ": "))[1:-1]
    elif is_dict:
        body = (",\n" + pad).join(f"{json.dumps(k)}: {_indented(v, pad)}"
                                  for k, v in sorted(value.items()))
    else:
        body = (",\n" + pad).join(_indented(v, pad) for v in value)
    return f"{opening}\n{pad}{body}\n{outer}{closing}"


@dataclass(frozen=True)
class AnalysisSpec:
    """Parsed experiment document; all file references already verified."""

    tree_source: Mapping
    weight_source: Mapping
    map_source: Mapping
    p: float
    depth_ladder: tuple[int, ...]
    schatten_exponents: tuple[float, ...]
    seed: int
    oracle_enabled: bool
    oracle_max_vertices: int
    isometry_ratio_tol: float
    compact_decay_ratio: float
    base_dir: Path


def _require(document: Mapping, field: str, kind, where: str):
    if field not in document:
        raise DocumentError(f"{where}: missing field \"{field}\"")
    value = document[field]
    if kind is float:
        return document_real(value, f'{where}: field "{field}"')
    if kind is int:
        return document_int(value, f'{where}: field "{field}"')
    if not isinstance(value, kind):
        raise DocumentError(f"{where}: field \"{field}\" has the wrong type")
    return value


def _check_file(source: Mapping, base_dir: Path, where: str) -> None:
    path = source["file"]
    if not isinstance(path, str):
        raise DocumentError(f"{where}: field \"file\" must be a path string")
    if not (base_dir / path).is_file():
        raise DocumentError(f"{where}: referenced file '{path}' not found")


def parse_analysis_spec(document: Mapping, base_dir: Path | str = ".") -> AnalysisSpec:
    base_dir = Path(base_dir)
    if not isinstance(document, Mapping):
        raise DocumentError("analysis spec must be a JSON object")
    version = document.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})")

    tree_source = _require(document, "tree", Mapping, "analysis spec")
    if "file" in tree_source:
        _check_file(tree_source, base_dir, 'analysis spec field "tree"')
    elif tree_source.get("generator") == "bary":
        if _require(tree_source, "branching", int, "tree source") < 1:
            raise DocumentError('tree source: "branching" must be >= 1')
        if tree_source.get("branch_until") is not None:
            document_int(tree_source["branch_until"], 'tree source: "branch_until"')
    else:
        raise DocumentError('tree source must be {"generator": "bary", ...} or {"file": path}')

    weight_source = _require(document, "weight", Mapping, "analysis spec")
    if "file" in weight_source:
        _check_file(weight_source, base_dir, 'analysis spec field "weight"')
    elif "family" not in weight_source and "weights" not in weight_source:
        raise DocumentError('weight source must carry "family", "weights" or "file"')

    map_source = _require(document, "map", Mapping, "analysis spec")
    if "file" in map_source:
        _check_file(map_source, base_dir, 'analysis spec field "map"')
    elif "builtin" not in map_source and "map" not in map_source:
        raise DocumentError('map source must carry "builtin", "map" or "file"')

    p = _require(document, "p", float, "analysis spec")
    if not (1.0 <= p < math.inf):
        raise DocumentError(f'analysis spec: "p" must satisfy 1 <= p < infinity, got {p}')

    ladder = _require(document, "depth_ladder", Sequence, "analysis spec")
    if isinstance(ladder, (str, bytes)) or not ladder:
        raise DocumentError('analysis spec: "depth_ladder" must be a non-empty array')
    depths = [document_int(d, "analysis spec: depth ladder entry") for d in ladder]
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise DocumentError('analysis spec: "depth_ladder" must be strictly increasing')

    exponents = document.get("schatten_exponents", [1, 2])
    if isinstance(exponents, (str, bytes)) or not isinstance(exponents, Sequence) or not exponents:
        raise DocumentError('analysis spec: "schatten_exponents" must be a non-empty array')
    qs = [document_real(q, "analysis spec: Schatten exponent") for q in exponents]
    if not all(1.0 <= q < math.inf for q in qs):
        raise DocumentError('analysis spec: Schatten exponents must be finite numbers >= 1')

    seed = document_int(document.get("seed", 0), 'analysis spec: "seed"')

    oracle_cfg = document.get("oracle", {})
    if not isinstance(oracle_cfg, Mapping):
        raise DocumentError('analysis spec: "oracle" must be an object')
    enabled = oracle_cfg.get("enabled", True)
    if not isinstance(enabled, bool):
        raise DocumentError('analysis spec: "oracle.enabled" must be a boolean')
    cap = document_int(oracle_cfg.get("max_vertices", oracle_mod.DEFAULT_MAX_ORACLE_VERTICES),
                       'analysis spec: "oracle.max_vertices"', low=1)

    tol_cfg = document.get("tolerances", {})
    if not isinstance(tol_cfg, Mapping):
        raise DocumentError('analysis spec: "tolerances" must be an object')
    tols = (tol_cfg.get("isometry_ratio", 1e-12), tol_cfg.get("compactness_decay_ratio", 0.1))
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) and 0 < t < math.inf
               for t in tols):
        raise DocumentError("analysis spec: tolerances must be finite positive numbers")
    iso_tol, decay = (document_real(t, "analysis spec: tolerance") for t in tols)

    return AnalysisSpec(
        tree_source=tree_source, weight_source=weight_source, map_source=map_source,
        p=p, depth_ladder=tuple(depths), schatten_exponents=tuple(qs), seed=seed,
        oracle_enabled=enabled, oracle_max_vertices=cap,
        isometry_ratio_tol=iso_tol, compact_decay_ratio=decay, base_dir=base_dir,
    )


def _strict_object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key '{next(k for k in keys if keys.count(k) > 1)}'")
    return obj


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: Path, what: str = "") -> Mapping:
    """The JSON object in the file at ``path``; ``NaN``, ``Infinity`` and
    duplicate keys are errors. ``what`` names the document in messages."""
    label = f"{what} '{path}'" if what else f"'{path}'"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_strict_object,
                         parse_constant=_no_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {label}: {exc}") from None
    except ValueError as exc:
        raise DocumentError(f"{label} is not valid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{label} must hold a JSON object")
    return doc


def read_analysis_spec(path) -> AnalysisSpec:
    path = Path(path)
    return parse_analysis_spec(read_json(path, "analysis spec"), path.parent)


class _Materializer:
    """Builds the per-depth operator instances an experiment asks for: it
    reads each document once, builds the deepest ladder entry once, resolves
    the weight and an explicit map against it once, and restricts them to
    each entry, whose vertices are an id prefix of the deepest tree. Builtin
    maps are rebuilt per entry (``depth_square`` depends on the depth)."""

    def __init__(self, spec: AnalysisSpec):
        self.spec = spec
        deepest, source = spec.depth_ladder[-1], spec.tree_source
        if "file" in source:
            tree = load_tree(read_json(spec.base_dir / source["file"]))
            too_deep = [d for d in spec.depth_ladder if d > tree.truncation_depth]
            if too_deep:
                raise DocumentError(f"depth ladder entry {too_deep[0]} exceeds the loaded "
                                    f"tree's depth {tree.truncation_depth}")
        else:
            tree = build_bary(source["branching"], deepest, source.get("branch_until"))
        self.base = truncate(tree, deepest)
        # a table may name any vertex of the file tree; rows below the
        # deepest entry are in no entry and are dropped
        below = set((tree.names or ())[len(self.base):])
        weight_doc, self.map_doc = (
            _drop_rows(read_json(spec.base_dir / s["file"]) if "file" in s else s, below)
            for s in (spec.weight_source, spec.map_source))
        self.weight = load_weight(self.base, weight_doc)
        self.symbol = load_map(self.base, self.map_doc) if "map" in self.map_doc else None

    def entry(self, depth: int) -> tuple[Tree, Weight]:
        """Tree and weight at ``depth``."""
        base, weight = self.base, self.weight
        if depth == base.truncation_depth:
            return base, weight
        tree = truncate(base, depth)
        return tree, replace(weight, tree=tree, values=weight.values[:len(tree)])

    def operator_at(self, depth: int) -> OperatorSpec:
        tree, weight = self.entry(depth)
        n, symbol = len(tree), self.symbol
        if symbol is None:
            symbol = load_map(tree, self.map_doc)
        elif n < len(self.base):
            image = symbol.image[:n]
            if (image >= n).any():
                v = int(np.flatnonzero(image >= n)[0])
                raise DocumentError(f"map sends vertex '{tree.name_of(v)}' to unknown vertex "
                                    f"'{self.base.name_of(int(image[v]))}'")
            symbol = SelfMap(tree, image, label="custom")
        return OperatorSpec(tree, weight, symbol, self.spec.p)


def _drop_rows(document: Mapping, names: set) -> Mapping:
    """``document`` without the weight or map table rows ``names`` lists."""
    return {field: {k: v for k, v in table.items() if k not in names}
            if field in ("weights", "map") and isinstance(table, Mapping) else table
            for field, table in document.items()} if names else document


def _spec_echo(spec: AnalysisSpec) -> dict:
    return {
        "tree": dict(spec.tree_source),
        "weight": dict(spec.weight_source),
        "map": dict(spec.map_source),
        "p": real_str(spec.p),
        "depth_ladder": list(spec.depth_ladder),
        "seed": spec.seed,
    }


def _report_head(command: str, spec: AnalysisSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "conventions": list(CONVENTION_NOTES),
        "spec": _spec_echo(spec),
    }


def _tail_defect_pairs(depth: int) -> list[tuple[int, int]]:
    pairs = []
    for low in sorted({0, depth // 2}):
        for n in sorted({low + 1, depth}):
            if n > low:
                pairs.append((low, n))
    return sorted(set(pairs))


def run_analyze(spec: AnalysisSpec) -> dict:
    """Per-depth boundedness, isometry and compactness reports plus the
    growth trend of the weight-ratio supremum across the ladder."""
    mat = _Materializer(spec)
    entries = []
    sups = []
    for depth in spec.depth_ladder:
        op = mat.operator_at(depth)
        tree = op.tree
        # the isometry witness is the largest transient: build it before h is cached
        iso = isometry_check(op, ratio_tol=spec.isometry_ratio_tol)
        bnd = boundedness_report(op)
        comp = compactness_profile(op, decay_ratio=spec.compact_decay_ratio)
        dom = op.symbol.domain
        eff_depth = int(tree.depth[dom].max()) if dom.size else -1
        entry = {
            "depth": depth,
            "vertex_count": len(tree),
            "domain_size": bnd.domain_size,
            "effective_domain_depth": eff_depth,
            "terminal_gap_count": len(tree.terminal_gaps),
            "boundedness": {
                "ratio_sup": real_str(bnd.ratio_sup),
                "ratio_sup_witness": tree.name_of(bnd.ratio_sup_witness) if bnd.ratio_sup_witness >= 0 else None,
                "operator_norm": real_str(bnd.operator_norm),
                "operator_norm_witness": tree.name_of(bnd.operator_norm_witness),
                "norm_lower_bound": real_str(bnd.norm_lower_bound),
                "norm_upper_bound": real_str(bnd.norm_upper_bound),
                "injective": bnd.injective,
                "multiplicity": bnd.multiplicity,
                "surjective": bnd.surjective,
            },
            "isometry": {
                "is_isometry": iso.is_isometry,
                "reason": iso.reason,
                "witness_vertex": _witness_name(tree, iso),
                "witness_image_norm": None if iso.witness_image_norm is None else real_str(iso.witness_image_norm),
                "frontier_only_misses": iso.frontier_only_misses,
            },
            "compactness": {
                "tail_sups": [real_str(v) for v in comp.values],
                "verdict": comp.verdict,
                "compact_consistent": comp.compact_consistent,
                "tail_slope": None if comp.tail_slope is None else real_str(comp.tail_slope),
                "frontier_cliff": comp.frontier_cliff,
                "max_image_depth": comp.max_image_depth,
            },
            "tail_defects": [
                {"N": low, "n": n, "value": real_str(tail_defect(op, n, low))}
                for low, n in _tail_defect_pairs(depth)
            ],
        }
        entries.append(entry)
        sups.append(bnd.ratio_sup)
    report = _report_head("analyze", spec)
    report["entries"] = entries
    report["trend"] = {
        "ratio_sups": [real_str(v) for v in sups],
        "verdict": boundedness_trend(sups),
    }
    return report


def _witness_name(tree: Tree, iso) -> str | None:
    for v in (iso.ratio_vertex, iso.missed_vertex):
        if v is not None:
            return tree.name_of(v)
    if iso.collision is not None:
        return tree.name_of(iso.collision[0])
    return None


def oracle_spectral_report(op: OperatorSpec, exponents) -> SpectralReport:
    """Spectral report assembled purely from the dense oracle: singular
    values from the Jacobi SVD, sums and the Hilbert-Schmidt norm from those
    values, the trace from the matrix diagonal."""
    matrix = oracle_mod.matrix_of(op)
    values = oracle_mod.svd_values(matrix)
    trace = float(np.trace(matrix))
    return SpectralReport(
        singular_values=values,
        schatten_sums={float(q): float(np.sum(values ** float(q))) for q in exponents},
        hs_norm=float(np.sqrt(np.sum(values ** 2))),
        trace_diagonal=trace,
        fixed_point_count=int(round(trace)),
        source="oracle",
    )


def run_spectrum(spec: AnalysisSpec) -> tuple[dict, tuple[np.ndarray, np.ndarray | None]]:
    """Singular values, Schatten partial sums and the trace / fixed-point
    identity per depth, with oracle columns when the instance fits the dense
    cap. Also returns the deepest entry's analytic and oracle singular values
    (None when the oracle did not run) for :func:`spectrum_csv`."""
    if spec.p != 2.0:
        raise DocumentError(
            f"spectrum analysis needs the p = 2 Hilbert space, got p = {real_str(spec.p)}; "
            "singular values are not defined for other exponents here")
    mat = _Materializer(spec)
    entries = []
    sums_by_q: dict[float, list[float]] = {q: [] for q in spec.schatten_exponents}
    for depth in spec.depth_ladder:
        op = mat.operator_at(depth)
        rep = spectral_report(op, spec.schatten_exponents)
        analytic = rep.singular_values
        oracle_entry: dict = {"checked": False, "notice": None}
        oracle_values = None
        if not spec.oracle_enabled:
            oracle_entry["notice"] = "oracle disabled by the spec document"
        elif len(op.tree) > spec.oracle_max_vertices:
            oracle_entry["notice"] = (
                f"skipped: {len(op.tree)} vertices exceed the dense-oracle cap "
                f"{spec.oracle_max_vertices}")
        else:
            orep = oracle_spectral_report(op, spec.schatten_exponents)
            oracle_values = orep.singular_values
            oracle_entry.update({
                "checked": True,
                "max_abs_difference": real_str(float(np.max(np.abs(analytic - oracle_values)))),
                "hs_norm": real_str(orep.hs_norm),
                "trace": real_str(orep.trace_diagonal),
                "fixed_point_count": orep.fixed_point_count,
                "schatten_sums": {real_str(q): real_str(orep.schatten_sums[q])
                                  for q in spec.schatten_exponents},
            })
        for q in spec.schatten_exponents:
            sums_by_q[q].append(rep.schatten_sums[q])
        entries.append({
            "depth": depth,
            "vertex_count": len(op.tree),
            "hs_norm": real_str(rep.hs_norm),
            "trace_diagonal": real_str(rep.trace_diagonal),
            "fixed_point_count": rep.fixed_point_count,
            "schatten_sums": {real_str(q): real_str(rep.schatten_sums[q])
                              for q in spec.schatten_exponents},
            "top_singular_values": [real_str(v) for v in analytic[:10]],
            "oracle": oracle_entry,
        })
    report = _report_head("spectrum", spec)
    report["entries"] = entries
    report["schatten_trends"] = {
        real_str(q): schatten_trend(sums_by_q[q]) for q in spec.schatten_exponents}
    return report, (analytic, oracle_values)


def spectrum_csv(analytic: np.ndarray, oracle_values: np.ndarray | None = None) -> str:
    """The spectrum as CSV, one row per singular value by rank, with an
    oracle column when oracle values are given."""
    columns = [analytic] if oracle_values is None else [analytic, oracle_values]
    lines = ["rank,sigma_analytic" + ",sigma_oracle" * (oracle_values is not None)]
    lines += [",".join([str(i), *map(real_str, row)])
              for i, row in enumerate(zip(*columns), start=1)]
    return "\n".join(lines) + "\n"


def run_adversary(spec: AnalysisSpec) -> dict:
    """Construct the weight-spread witnesses on each ladder depth and report
    the ratio supremum they achieve."""
    mat = _Materializer(spec)
    ladders: dict[str, list] = {"unbounded_weight": [], "vanishing_weight": []}
    for depth in spec.depth_ladder:
        tree, weight = mat.entry(depth)
        for key, build in zip(ladders, (adversary_unbounded, adversary_vanishing)):
            symbol = build(tree, weight)
            found = symbol is not None
            op = OperatorSpec(tree, weight, symbol, spec.p) if found else None
            ladders[key].append({"depth": depth, "found": found,
                                 "ratio_sup": real_str(ratio_sup(op).value) if found else None,
                                 "map": dump_map(symbol) if found else None})
    report = _report_head("adversary", spec)
    for key, ladder in ladders.items():
        verdict = "adversary found" if any(e["found"] for e in ladder) else "no adversary found"
        report[key] = {"entries": ladder, "verdict": verdict}
    return report


def serialize_instance(op: OperatorSpec) -> dict:
    """Self-contained document reproducing one operator instance."""
    return {
        "tree": dump_tree(op.tree),
        "weight": dump_weight(op.weight),
        "map": dump_map(op.symbol),
        "p": real_str(op.p),
    }
