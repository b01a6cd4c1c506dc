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
from typing import Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import oracle as oracle_mod
from .compop import (VERDICT_COMPACT, ClassView, LevelClassSpec, OperatorSpec,
                     boundedness_trend, compactness_profile, isometry_check, operator_norm,
                     ratio_sup, tail_defect)
from .errors import DocumentError
from .schatten import (schatten_sums, schatten_trend, singular_value_classes,
                       trace_diagonal)
from .selfmap import (_ADMISSIBLE, SelfMap, _MapTable, _name_columns, _swap_prefix,
                      _weight_orders, dump_map, level_classes, load_map, parse_builtin)
from .tree import (Tree, bary_level_start, build_bary, document_int, document_keys,
                   document_real, dump_tree, load_tree, truncate)
from .weight import Weight, dump_weight, family_levels, load_weight, parse_family

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


def report_json(report: Mapping, out: TextIO | None = None) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte.
    With ``out``, a text stream, the text is written there instead, a piece
    at a time and never whole, and the empty string is returned."""
    if out is None:
        return "".join(_indented(report, "")) + "\n"
    out.writelines(_indented(report, ""))
    out.write("\n")
    return ""


_CONTAINERS = (dict, list, tuple)
_PIECE = 1 << 16  # characters of a table body per piece
_ROWS = 1 << 11  # rows of a map table per piece


def _indented(value, outer: str) -> Iterator[str]:
    # json.dumps(value, indent=2, sort_keys=True) at indentation ``outer``, for
    # string keys, in pieces. Any indent makes json use its pure-Python encoder,
    # so only the nesting is written here; containers of scalars go to the C
    # encoder, and their text is cut into pieces of at most 64K characters.
    if not isinstance(value, _CONTAINERS) or not value:
        yield json.dumps(value)
        return
    is_dict, pad = isinstance(value, dict), outer + "  "
    opening, closing = "{}" if is_dict else "[]"
    if type(value) is _MapTable:  # names encoded once per tree, rows a slice at a time
        for lo in range(0, len(value), _ROWS):
            piece = [",\n" + pad, None, ": ", None] * min(_ROWS, len(value) - lo)
            piece[1::4], piece[3::4] = (value.column[ids[lo:lo + _ROWS]].tolist()
                                        for ids in (value.ids, value.targets))
            yield "".join(piece) if lo else f"{opening}\n{pad}" + "".join(piece[1:])
    elif any(issubclass(kind, _CONTAINERS) for kind in set(map(type, value.values() if is_dict else value))):
        for i, (key, member) in enumerate(sorted(value.items()) if is_dict else enumerate(value)):
            yield f"{',' if i else opening}\n{pad}" + (f"{json.dumps(key)}: " if is_dict else "")
            yield from _indented(member, pad)
    else:
        text = json.dumps(value, sort_keys=True, separators=(",\n" + pad, ": "))
        yield f"{opening}\n{pad}"
        yield from (text[i:min(i + _PIECE, len(text) - 1)] for i in range(1, len(text) - 1, _PIECE))
    yield f"\n{outer}{closing}"


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
    document_keys(source, ("file",), where)  # inline keys beside a file would be ignored
    path = source["file"]
    if not isinstance(path, str):
        raise DocumentError(f"{where}: field \"file\" must be a path string")
    if not (base_dir / path).is_file():
        raise DocumentError(f"{where}: referenced file '{path}' not found")


# real specs nest 3 levels; the report writer recurses once per echoed level
_MAX_SPEC_NESTING = 8


def parse_analysis_spec(document: Mapping, base_dir: Path | str = ".") -> AnalysisSpec:
    base_dir = Path(base_dir)
    if not isinstance(document, Mapping):
        raise DocumentError("analysis spec must be a JSON object")
    level, nesting = [document], 0
    while level := [c for c in level if isinstance(c, (Mapping, list, tuple))]:
        if (nesting := nesting + 1) > _MAX_SPEC_NESTING:
            raise DocumentError(f"analysis spec nests deeper than {_MAX_SPEC_NESTING} levels")
        level = [m for c in level for m in (c.values() if isinstance(c, Mapping) else c)]
    version = document.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})")
    document_keys(document, ("schema_version", "tree", "weight", "map", "p", "depth_ladder",
                             "schatten_exponents", "seed", "oracle", "tolerances"), "analysis spec")

    tree_source = _require(document, "tree", Mapping, "analysis spec")
    if "file" in tree_source:
        _check_file(tree_source, base_dir, 'analysis spec field "tree"')
    elif tree_source.get("generator") == "bary":
        document_keys(tree_source, ("generator", "branching", "branch_until"), "tree source")
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
    seen: set[float] = set()
    for q in qs:  # a trend needs distinct sums
        if q in seen:
            raise DocumentError(f"analysis spec: Schatten exponent {real_str(q)} is repeated")
        seen.add(q)

    seed = document_int(document.get("seed", 0), 'analysis spec: "seed"')

    oracle_cfg = document.get("oracle", {})
    if not isinstance(oracle_cfg, Mapping):
        raise DocumentError('analysis spec: "oracle" must be an object')
    document_keys(oracle_cfg, ("enabled", "max_vertices"), 'analysis spec field "oracle"')
    enabled = oracle_cfg.get("enabled", True)
    if not isinstance(enabled, bool):
        raise DocumentError('analysis spec: "oracle.enabled" must be a boolean')
    cap = document_int(oracle_cfg.get("max_vertices", oracle_mod.DEFAULT_MAX_ORACLE_VERTICES),
                       'analysis spec: "oracle.max_vertices"', low=1)
    if cap > oracle_mod.MAX_ORACLE_VERTICES:  # refused before any dense matrix is formed
        raise DocumentError('analysis spec: "oracle.max_vertices" must be at most '
                            f'{oracle_mod.MAX_ORACLE_VERTICES}, got {cap}')

    tol_cfg = document.get("tolerances", {})
    if not isinstance(tol_cfg, Mapping):
        raise DocumentError('analysis spec: "tolerances" must be an object')
    document_keys(tol_cfg, ("isometry_ratio", "compactness_decay_ratio"),
                  'analysis spec field "tolerances"')
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
    except RecursionError:
        raise DocumentError(f"{label} is not valid JSON: nested too deeply") from None
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{label} must hold a JSON object")
    return doc


def read_analysis_spec(path) -> AnalysisSpec:
    path = Path(path)
    return parse_analysis_spec(read_json(path, "analysis spec"), path.parent)


def _sources(spec: AnalysisSpec) -> tuple[Tree, Weight, SelfMap]:
    """The tree as loaded or generated (at the deepest ladder entry), with the
    weight and the map resolved against it. Each document is read once, and
    every ladder entry restricts these three to an id prefix."""
    source = spec.tree_source
    if "file" in source:
        tree = load_tree(read_json(spec.base_dir / source["file"]))
        too_deep = [d for d in spec.depth_ladder if d > tree.truncation_depth]
        if too_deep:
            raise DocumentError(f"depth ladder entry {too_deep[0]} exceeds the loaded "
                                f"tree's depth {tree.truncation_depth}")
    else:
        tree = build_bary(source["branching"], spec.depth_ladder[-1], source.get("branch_until"))
    weight_doc, symbol_doc = (read_json(spec.base_dir / s["file"]) if "file" in s else s
                              for s in (spec.weight_source, spec.map_source))
    return tree, load_weight(tree, weight_doc), load_map(tree, symbol_doc)


def _entry(tree: Tree, weight: Weight, depth: int) -> tuple[Tree, Weight]:
    """Tree and weight of the ladder entry at ``depth``."""
    sub = truncate(tree, depth)
    return sub, replace(weight, tree=sub, values=weight.values[:len(sub)])


def _restrict(symbol: SelfMap, tree: Tree) -> SelfMap:
    """``symbol`` on ``tree``, an id prefix of its tree. A total symbol must
    map the prefix into itself; a partial one excludes the vertices whose
    image lies past it."""
    if (n := len(tree)) == len(symbol.tree):
        return symbol
    image = symbol.image[:n]
    if (past := image >= n).any():
        if symbol.is_total:
            v = int(np.flatnonzero(past)[0])
            raise DocumentError(f"map sends vertex '{tree.name_of(v)}' to unknown vertex "
                                f"'{symbol.tree.name_of(int(image[v]))}'")
        image = np.where(past, -1, image)
    return SelfMap(tree, image, label=symbol.label, params=symbol.params)


def _operators(spec: AnalysisSpec) -> Iterator[OperatorSpec]:
    """The operator of each ladder entry, in ladder order."""
    tree, weight, symbol = _sources(spec)
    for depth in spec.depth_ladder:
        sub, w = _entry(tree, weight, depth)
        yield OperatorSpec(sub, w, _restrict(symbol, sub), spec.p)


def _by_level_classes(spec: AnalysisSpec) -> bool:
    """Whether the spec names a generated tree, a family weight and a builtin
    map, all inline: then every per-vertex quantity is constant on level
    classes, and ``analyze`` reads them off the levels."""
    return ("file" not in spec.tree_source
            and "family" in spec.weight_source and "file" not in spec.weight_source
            and "builtin" in spec.map_source and "file" not in spec.map_source)


def _analyzed(spec: AnalysisSpec) -> Iterator[tuple[ClassView, dict, Callable]]:
    """The operator of each ladder entry, in ladder order, with the entry's
    sizes and the namer of its vertices. The documents are checked in the
    order, and with the messages, of :func:`_sources`."""
    if not _by_level_classes(spec):
        for op in _operators(spec):
            dom = op.symbol.domain  # ascending, and depth is nondecreasing along the ids
            yield op, {"vertex_count": len(op.tree), "domain_size": int(dom.size),
                       "effective_domain_depth": op.tree.depth_of(dom[-1]) if dom.size else -1,
                       "terminal_gap_count": len(op.tree.terminal_gaps)}, op.tree.name_of
        return
    source = spec.tree_source
    level_start = bary_level_start(source["branching"], spec.depth_ladder[-1],
                                   source.get("branch_until"))
    weights = family_levels(*parse_family(spec.weight_source), level_start)
    _, lift = parse_builtin(spec.map_source)
    for depth in spec.depth_ladder:
        start = level_start[:depth + 2]
        classes = level_classes(lift, start)
        domain_levels = classes.image_level.size  # never 0: the root is in every domain
        yield (LevelClassSpec(start, weights[:depth + 1], classes, spec.p),
               {"vertex_count": int(start[-1]), "domain_size": int(start[domain_levels]),
                "effective_domain_depth": domain_levels - 1, "terminal_gap_count": 0}, str)


def _report_head(command: str, spec: AnalysisSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "conventions": list(CONVENTION_NOTES),
        "spec": {"tree": dict(spec.tree_source), "weight": dict(spec.weight_source),
                 "map": dict(spec.map_source), "p": real_str(spec.p),
                 "depth_ladder": list(spec.depth_ladder), "seed": spec.seed},
    }


def _tail_defect_pairs(depth: int) -> list[tuple[int, int]]:
    return [(low, n) for low in sorted({0, depth // 2}) for n in sorted({low + 1, depth}) if n > low]


def run_analyze(spec: AnalysisSpec) -> dict:
    """Per-depth boundedness, isometry and compactness reports plus the
    growth trend of the weight-ratio supremum across the ladder."""
    entries = []
    sups = []
    for depth, (op, sizes, name_of) in zip(spec.depth_ladder, _analyzed(spec)):
        iso = isometry_check(op, ratio_tol=spec.isometry_ratio_tol)
        rs, nrm, profile = ratio_sup(op), operator_norm(op), op.profile
        comp = compactness_profile(op, decay_ratio=spec.compact_decay_ratio)
        entry = {
            "depth": depth,
            **sizes,
            "boundedness": {
                "ratio_sup": real_str(rs.value),
                "ratio_sup_witness": name_of(rs.witness) if rs.witness >= 0 else None,
                "operator_norm": real_str(nrm.value),
                "operator_norm_witness": name_of(nrm.witness),
                "norm_lower_bound": real_str(rs.value ** (1.0 / op.p)),
                "norm_upper_bound": real_str((profile.max_multiplicity * rs.value) ** (1.0 / op.p)),
                "injective": profile.injective,
                "multiplicity": profile.max_multiplicity,
                "surjective": profile.surjective_on_truncation,
            },
            "isometry": {
                "is_isometry": iso.is_isometry,
                "reason": iso.reason,
                "witness_vertex": None if iso.witness_vertex is None else name_of(iso.witness_vertex),
                "witness_image_norm": None if iso.witness_image_norm is None else real_str(iso.witness_image_norm),
                "frontier_only_misses": iso.frontier_only_misses,
            },
            "compactness": {
                "tail_sups": [real_str(v) for v in comp.values],
                "verdict": comp.verdict,
                "compact_consistent": comp.verdict == VERDICT_COMPACT,
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
        sups.append(rs.value)
    report = _report_head("analyze", spec)
    report["entries"] = entries
    report["trend"] = {
        "ratio_sups": [real_str(v) for v in sups],
        "verdict": boundedness_trend(sups),
    }
    return report


def run_spectrum(spec: AnalysisSpec) -> tuple[dict, tuple]:
    """Singular values, Schatten partial sums and the trace / fixed-point
    identity per depth, with oracle columns when the instance fits the dense
    cap. Every figure is read off the entry's classes, so on level classes
    the oracle cross-checks them. Also returns the deepest entry's singular
    values, descending, with their multiplicities, and its oracle singular
    values (None when the oracle did not run) for :func:`spectrum_csv`."""
    if spec.p != 2.0:
        raise DocumentError(
            f"spectrum analysis needs the p = 2 Hilbert space, got p = {real_str(spec.p)}; "
            "singular values are not defined for other exponents here")
    entries = []
    sums_by_q: dict[float, list[float]] = {q: [] for q in spec.schatten_exponents}
    oracle_ops = _oracle_operators(spec)  # level classes only; it builds at the first next()
    for depth, (view, sizes, _) in zip(spec.depth_ladder, _analyzed(spec)):
        n = sizes["vertex_count"]
        values, counts = singular_value_classes(view)
        *q_sums, hs_sq = schatten_sums(view, [*spec.schatten_exponents, 2.0]).tolist()
        sums = dict(zip(spec.schatten_exponents, q_sums))
        oracle_entry: dict = {"checked": False, "notice": None}
        oracle_values = None
        if not spec.oracle_enabled:
            oracle_entry["notice"] = "oracle disabled by the spec document"
        elif n > spec.oracle_max_vertices:
            oracle_entry["notice"] = (
                f"skipped: {n} vertices exceed the dense-oracle cap {spec.oracle_max_vertices}")
        else:
            # every oracle figure is read off the dense matrix, none off the analytic
            # path; on level classes the matrix needs the entry's vertex operator
            matrix = oracle_mod.matrix_of(view if isinstance(view, OperatorSpec) else next(oracle_ops))
            oracle_values = oracle_mod.svd_values(matrix)
            trace = float(np.trace(matrix))
            del matrix  # n^2 floats; freed before the next, larger entry is formed
            analytic = np.repeat(values, counts)
            oracle_entry.update({
                "checked": True,
                "max_abs_difference": real_str(float(np.max(np.abs(analytic - oracle_values)))),
                "hs_norm": real_str(float(np.sqrt(np.sum(oracle_values ** 2)))),
                "trace": real_str(trace),
                "fixed_point_count": int(round(trace)),
                "schatten_sums": {real_str(q): real_str(float(np.sum(oracle_values ** q)))
                                  for q in spec.schatten_exponents},
            })
        for q in spec.schatten_exponents:
            sums_by_q[q].append(sums[q])
        diagonal = trace_diagonal(view)
        top = np.repeat(values[:10], np.minimum(counts[:10], 10))[:10]  # the ten largest
        entries.append({
            "depth": depth,
            "vertex_count": n,
            "hs_norm": real_str(math.sqrt(hs_sq)),
            "trace_diagonal": real_str(diagonal.value),
            "fixed_point_count": diagonal.fixed_point_count,
            "schatten_sums": {real_str(q): real_str(sums[q]) for q in spec.schatten_exponents},
            "top_singular_values": [real_str(v) for v in top],
            "oracle": oracle_entry,
        })
    report = _report_head("spectrum", spec)
    report["entries"] = entries
    report["schatten_trends"] = {
        real_str(q): schatten_trend(sums_by_q[q]) for q in spec.schatten_exponents}
    return report, (values, counts, oracle_values)


def _oracle_operators(spec: AnalysisSpec) -> Iterator[OperatorSpec]:
    """The level-class entries within the oracle cap as vertex operators, from one build."""
    source = spec.tree_source
    start = bary_level_start(source["branching"], spec.depth_ladder[-1], source.get("branch_until"))
    ladder = tuple(d for d in spec.depth_ladder if start[d + 1] <= spec.oracle_max_vertices)
    yield from _operators(replace(spec, depth_ladder=ladder))  # built at the deepest of them


def spectrum_csv(values: np.ndarray, multiplicities: np.ndarray,
                 oracle_values: np.ndarray | None = None) -> str:
    """The spectrum as CSV, one row per singular value by rank (``values[j]``
    on ``multiplicities[j]`` rows), with an oracle column when oracle values
    are given."""
    columns = [np.repeat(values, multiplicities)] + ([] if oracle_values is None else [oracle_values])
    lines = ["rank,sigma_analytic" + ",sigma_oracle" * (oracle_values is not None)]
    lines += [",".join([str(i), *map(real_str, row)])
              for i, row in enumerate(zip(*columns), start=1)]
    return "\n".join(lines) + "\n"


def run_adversary(spec: AnalysisSpec) -> dict:
    """Construct the weight-spread witnesses on each ladder depth and report
    the ratio supremum they achieve. The deepest entry's weight is sorted once,
    and its names once, at the first witness; each entry restricts them."""
    deep, deep_weight = _entry(*_sources(spec)[:2], spec.depth_ladder[-1])  # the map is dropped
    orders, named = _weight_orders(deep_weight.values), None
    ladders: dict[str, list] = {"unbounded_weight": [], "vanishing_weight": []}
    for depth in spec.depth_ladder:
        tree, weight = _entry(deep, deep_weight, depth)
        heavy_light = tuple(order[order < len(tree)] for order in orders)
        for key, label in zip(ladders, _ADMISSIBLE):
            symbol = _swap_prefix(tree, weight, heavy_light, label)
            found = symbol is not None
            if found and named is None:
                named = _name_columns(deep)
            op = OperatorSpec(tree, weight, symbol, spec.p) if found else None
            ladders[key].append({"depth": depth, "found": found,
                                 "ratio_sup": real_str(ratio_sup(op).value) if found else None,
                                 "map": {"map": _MapTable(symbol.image, *named)} if found else None})
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
