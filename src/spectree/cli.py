"""Command line front door.

Exit codes: 0 on success, 1 when a verify suite finds a violation, 2 on
input validation problems. Reports go to stdout or, with ``--out``, to a
file; reruns on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (read_analysis_spec, report_json, run_adversary,
                       run_analyze, run_spectrum, spectrum_csv)
from .verify import SUITES, run_verify


def _emit(report: dict, out: str | None) -> None:
    if not out:
        report_json(report, sys.stdout)
        return
    with open(out, "w", encoding="utf-8") as fh:
        report_json(report, fh)
    print(f"report written to {out}")


def _summarize_analyze(report: dict) -> None:
    for entry in report["entries"]:
        b = entry["boundedness"]
        print(f"depth {entry['depth']}: {entry['vertex_count']} vertices, "
              f"ratio_sup={b['ratio_sup']}, norm={b['operator_norm']}, "
              f"injective={'yes' if b['injective'] else 'no'}, "
              f"isometry={'yes' if entry['isometry']['is_isometry'] else 'no'}, "
              f"compactness={entry['compactness']['verdict']}")
    print(f"ratio_sup trend across the ladder: {report['trend']['verdict']}")


def _summarize_spectrum(report: dict) -> None:
    for entry in report["entries"]:
        oracle_note = "oracle ok" if entry["oracle"]["checked"] else (
            entry["oracle"]["notice"] or "oracle unavailable")
        print(f"depth {entry['depth']}: hs_norm={entry['hs_norm']}, "
              f"trace={entry['trace_diagonal']} "
              f"(fixed points: {entry['fixed_point_count']}), {oracle_note}")
    for q, verdict in sorted(report["schatten_trends"].items()):
        print(f"Schatten sum trend (q={q}): {verdict}")


def _summarize_adversary(report: dict) -> None:
    for key in ("unbounded_weight", "vanishing_weight"):
        section = report[key]
        sups = [e["ratio_sup"] for e in section["entries"] if e["found"]]
        label = key.replace("_", " ")
        if sups:
            print(f"{label}: {section['verdict']} (ratio_sup ladder: {', '.join(sups)})")
        else:
            print(f"{label}: {section['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectree",
        description="Composition-operator analysis on weighted L^p spaces of "
                    "finite rooted-tree truncations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="boundedness, isometry and compactness report")
    p_analyze.add_argument("spec", help="path to the experiment JSON document")
    p_analyze.add_argument("--out", help="write the JSON report here instead of stdout")

    p_spectrum = sub.add_parser("spectrum", help="singular values, Schatten sums, trace")
    p_spectrum.add_argument("spec", help="path to the experiment JSON document (p must be 2)")
    p_spectrum.add_argument("--csv", help="write the deepest-entry spectrum as CSV")
    p_spectrum.add_argument("--out", help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(SUITES),
                          help="restrict to one suite (repeatable)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")

    p_adv = sub.add_parser("adversary", help="construct weight-spread witness symbols")
    p_adv.add_argument("spec", help="path to the experiment JSON document")
    p_adv.add_argument("--out", help="write the JSON report here instead of stdout")

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report = run_analyze(read_analysis_spec(args.spec))
            _summarize_analyze(report)
            _emit(report, args.out)
            return 0
        if args.command == "spectrum":
            report, values = run_spectrum(read_analysis_spec(args.spec))
            _summarize_spectrum(report)
            if args.csv:
                Path(args.csv).write_text(spectrum_csv(*values), encoding="utf-8")
                print(f"spectrum CSV written to {args.csv}")
            _emit(report, args.out)
            return 0
        if args.command == "adversary":
            report = run_adversary(read_analysis_spec(args.spec))
            _summarize_adversary(report)
            _emit(report, args.out)
            return 0
        if args.command == "verify":
            report = run_verify(args.suite, seed=args.seed)
            for suite in report["suites"]:
                print(f"suite {suite['name']}: {suite['cases']} cases, "
                      f"{len(suite['violations'])} violations")
            print("PASS" if report["passed"] else "FAIL")
            _emit(report, args.out)
            return 0 if report["passed"] else 1
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:  # DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
