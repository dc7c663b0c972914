"""Command-line interface: analyze, render, eval.

Exit codes: 0 success, 1 internal failure, 2 bad input or usage.  Bad
input and usage errors are raised as FormatError (ConfigError for analysis
options); any other exception is an internal failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .evaluate import evaluate_report, load_annotations
from .fixes import DEFAULT_THRESHOLD
from .model import FormatError, GridlintError, load_workbook
from .pipeline import PHASES, AnalysisConfig, analyze_workbook, audit_payload
from .report import (
    assign_colors,
    audit_json,
    audit_text,
    build_adjacency,
    global_view_chunks,
    render_empty_view,
)
from .vectors import analyze_sheet_vectors

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    workbook = load_workbook(args.workbook)
    parse_seconds = time.perf_counter() - t0
    config = AnalysisConfig(threshold=args.threshold, preprocess=not args.no_preprocess)
    analysis = analyze_workbook(workbook, config)
    payload = audit_payload(analysis, config.threshold)
    text = audit_json(payload) if args.format == "json" else audit_text(payload)
    _write_or_print(text, args.out)
    print(
        f"analyzed {len(analysis.sheets)} sheet(s): "
        f"{analysis.total_regions()} regions, {analysis.total_fixes()} proposed fixes",
        file=sys.stderr,
    )
    print(f"  parse: {parse_seconds * 1000:.1f} ms", file=sys.stderr)
    for phase in PHASES:
        print(f"  {phase}: {analysis.timings[phase] * 1000:.1f} ms", file=sys.stderr)
    for sheet in analysis.sheets:
        for diagnostic in sheet.table.diagnostics:
            print(diagnostic, file=sys.stderr)
    return EXIT_OK


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "sheet"


def cmd_render(args: argparse.Namespace) -> int:
    workbook = load_workbook(args.workbook)
    if not workbook.sheets:
        print("error: workbook has no sheets to render", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    # A page shows the vector table alone.  All tables are built first, so a
    # refused used range writes no page; one shape dictionary serves them all.
    shapes: dict = {}
    tables = [analyze_sheet_vectors(workbook, sheet, shapes) if sheet.cells else None for sheet in workbook.sheets]
    written: set[str] = set()
    for sheet, table in zip(workbook.sheets, tables):
        # Sheet names that sanitize alike get _2, _3, ... in sheet order.
        stem = name = f"{_safe_name(workbook.name)}_{_safe_name(sheet.name)}"
        suffix = 1
        while name in written:
            suffix += 1
            name = f"{stem}_{suffix}"
        written.add(name)
        path = out_dir / f"{name}.html"
        if table is None:
            path.write_text(render_empty_view(sheet.name), encoding="utf-8")
        else:
            # The page holds one <rect> per used-range cell; written as it
            # is built, it is never whole in memory.
            graph = build_adjacency(table)
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(global_view_chunks(table, graph, assign_colors(graph)))
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid report JSON: {exc}") from exc
    truth = load_annotations(args.annotations)
    result = evaluate_report(report, truth)
    _write_or_print(json.dumps(result, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlint",
        description="find spreadsheet formula inconsistencies by layout analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="rank likely formula errors in a workbook")
    p_analyze.add_argument("workbook", help="path to a .gridbook JSON workbook")
    p_analyze.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                           help="fraction of cells a reader will inspect (default %(default)s)")
    p_analyze.add_argument("--no-preprocess", action="store_true",
                           help="skip the delimiter-split preprocessing pass")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_render = sub.add_parser("render", help="write a colored HTML view per sheet")
    p_render.add_argument("workbook")
    p_render.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_render.set_defaults(func=cmd_render)

    p_eval = sub.add_parser("eval", help="score an audit report against annotations")
    p_eval.add_argument("report", help="audit JSON produced by analyze")
    p_eval.add_argument("annotations", help="ground-truth annotation JSON")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GridlintError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # Anything else is a bug in gridlint, never bad input: keep the
        # traceback for the bug report, then the one-line summary.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
