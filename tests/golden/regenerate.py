"""The golden report corpus: a fixed set of experiment documents, the report
each command writes for them, and the sha256 of every report.

    PYTHONPATH=src python tests/golden/regenerate.py            # rewrite manifest.json
    PYTHONPATH=src python tests/golden/regenerate.py --out DIR  # also write the documents and reports to DIR

``tests/test_golden.py`` regenerates the reports in process and compares
them with ``manifest.json``. Rewrite the manifest only by hand, after a
deliberate report change, and record the regeneration and its reason in
CHANGES.md. Reports written with ``--out`` on two commits can be compared
with ``diff -r``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from spectree import build_bary
from spectree.analysis import (read_analysis_spec, report_json, run_adversary,
                               run_analyze, run_spectrum, spectrum_csv)
from spectree.verify import run_verify

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

WEIGHTS = {
    "constant": {"family": "constant", "params": {"value": 2.0}},
    "reciprocal_depth": {"family": "reciprocal_depth"},
    "geometric": {"family": "geometric", "params": {"ratio": 0.5}},
}
MAPS = {
    "identity": {"builtin": "identity"},
    "parent": {"builtin": "parent"},
    "level_shift": {"builtin": "level_shift", "params": {"k": 2}},
    "depth_square": {"builtin": "depth_square"},
}
TREES = {  # branching: (tree source, ladder), each entry at most 31 vertices
    1: ({"generator": "bary", "branching": 1}, [1, 4, 9]),
    2: ({"generator": "bary", "branching": 2}, [1, 2, 4]),
    3: ({"generator": "bary", "branching": 3, "branch_until": 2}, [1, 2, 4]),
}
VERIFY_SEEDS = range(10)


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _file_tree_documents(workdir: Path) -> dict:
    """A depth-5 binary tree document with shuffled ids and document order, a
    weight table and a map table covering all 63 vertices, and a spec whose
    ladder stops at depth 3. The map sends each vertex to a vertex no deeper
    than itself, so it is closed under truncation, and it is not injective."""
    rng = np.random.default_rng(11)
    tree = build_bary(2, 5)
    n = len(tree)
    names = [f"x{t}" for t in rng.permutation(n)]
    order = rng.permutation(n).tolist()
    weights = 10.0 ** rng.uniform(-2, 2, n)
    targets = [int(rng.choice(np.flatnonzero(tree.depth == tree.depth[v]))) for v in range(n)]
    _write(workdir / "tree.json", {"vertices": [
        {"id": names[v], "parent": names[tree.parent[v]] if v else None} for v in order]})
    _write(workdir / "weight.json", {"weights": {names[v]: float(weights[v]) for v in order}})
    _write(workdir / "map.json", {"map": {names[v]: names[targets[v]] for v in order}})
    return {"tree": {"file": "tree.json"}, "weight": {"file": "weight.json"},
            "map": {"file": "map.json"}, "depth_ladder": [1, 3]}


def documents(workdir: Path) -> dict[str, tuple[str, ...]]:
    """Write every experiment document (and the files they reference) to
    ``workdir``; map each spec file name to the commands run on it."""
    specs: dict[str, tuple[dict, tuple[str, ...]]] = {}
    for b, (tree, ladder) in TREES.items():
        for wname, weight in WEIGHTS.items():
            for mname, symbol in MAPS.items():
                for p in (1, 2, 3):
                    commands = ("analyze",) + (("spectrum",) if p == 2 else ())
                    if p == 2 and mname == "identity":
                        commands += ("adversary",)  # adversary reads neither map nor p
                    specs[f"b{b}-{wname}-{mname}-p{p}.json"] = (
                        {"tree": tree, "weight": weight, "map": symbol, "p": p,
                         "depth_ladder": ladder}, commands)
    # an explicit map swapping vertices 1 and 2 under the weight 1 + v
    swap = {"map": {str(v): str({1: 2, 2: 1}.get(v, v)) for v in range(7)}}
    specs["swap-1-2.json"] = ({
        "tree": {"generator": "bary", "branching": 2},
        "weight": {"weights": {str(v): 1.0 + v for v in range(7)}},
        "map": swap, "p": 2, "depth_ladder": [1, 2]}, ("analyze", "spectrum"))
    # the same swap under the weight 1 + v / 100, whose ratios the wider
    # isometry tolerance accepts
    specs["tolerances.json"] = ({
        "tree": {"generator": "bary", "branching": 2},
        "weight": {"weights": {str(v): 1.0 + v / 100 for v in range(7)}},
        "map": swap, "p": 2, "depth_ladder": [1, 2],
        "tolerances": {"isometry_ratio": 0.05, "compactness_decay_ratio": 0.5}}, ("analyze",))
    # the spectrum oracle switched off, and capped below the deepest entry (31 vertices)
    tree, ladder = TREES[2]
    for name, oracle in (("oracle-disabled.json", {"enabled": False}),
                         ("oracle-capped.json", {"max_vertices": 10})):
        specs[name] = ({"tree": tree, "weight": WEIGHTS["geometric"], "map": MAPS["parent"],
                        "p": 2, "depth_ladder": ladder, "oracle": oracle}, ("spectrum",))
    specs["file-tree.json"] = (dict(_file_tree_documents(workdir), p=2),
                               ("analyze", "spectrum", "adversary"))
    for name, (doc, _) in specs.items():
        _write(workdir / name, {"schema_version": 1, **doc,
                                "schatten_exponents": [1, 2, 3]})
    return {name: commands for name, (_, commands) in specs.items()}


def reports(workdir: Path) -> dict[str, str]:
    """Every report of the corpus, keyed by the command line that writes it."""
    out = {}
    for name, commands in documents(workdir).items():
        spec = read_analysis_spec(workdir / name)
        for command in commands:
            if command == "spectrum":
                report, values = run_spectrum(spec)
                out[f"spectrum {name} --csv"] = spectrum_csv(*values)
            else:
                report = (run_analyze if command == "analyze" else run_adversary)(spec)
            out[f"{command} {name}"] = report_json(report)
    for seed in VERIFY_SEEDS:
        out[f"verify --seed {seed}"] = report_json(run_verify(None, seed=seed))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path,
                        help="write the documents and reports to this directory too")
    args = parser.parse_args(argv)
    if args.out is None:
        with tempfile.TemporaryDirectory() as workdir:
            texts = reports(Path(workdir))
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        texts = reports(args.out)
        for key, text in texts.items():  # "spectrum x.json --csv" -> spectrum_x.json_csv.out
            name = key.replace(" --", " ").replace(" ", "_") + ".out"
            (args.out / name).write_text(text, encoding="utf-8")
    manifest = {"numpy": np.__version__,
                "reports": {key: digest(text) for key, text in sorted(texts.items())}}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"{len(texts)} reports; manifest written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
