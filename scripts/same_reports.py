#!/usr/bin/env python3
"""Check that two source trees of gridlint write the same reports, regions, vector tables, diagnostics, candidate scores and pages.

    python3 scripts/same_reports.py OLD_SRC NEW_SRC [--seeds 7 11] [--python EXE]

OLD_SRC and NEW_SRC are directories that hold the `gridlint` package
(`src/` of two checkouts).  The inputs are every workbook of
`fixtures/`, analysed with and without preprocessing, and every workbook
of the `corpus`, `adversarial` and `lookups` workloads at each seed,
generated by `perfbench/workloads.py` and analysed with preprocessing.
Each side runs, in one child interpreter of its own (EXE, by default
this one) and with the CLI's defaults otherwise:

* `gridlint analyze` on every input, once per report format (JSON and
  text), keeping the regions of each sheet that the analysis decomposed
  it into (`SheetAnalysis.regions`) as [rect, fingerprint] lists, each
  sheet's vector table (`SheetVectors`: the grid's code rows, its
  palette as `repr`, and the `refs` items, every formula cell's
  references in order), and each sheet's diagnostics
  (`SheetVectors.diagnostics`: the formulas refused, with the parser's
  message and offset), which the CLI prints to stderr, and each sheet's
  scored candidates (every `ProposedFix` that `fixes.score_candidates`
  returns, in order, before ranking and the budget cut: source, target,
  and `float.hex` of its entropy delta, distance and score), so a
  changed score shows even where no report holds the fix;
* `gridlint render` on every workbook, once;
* `gridlint eval` of the JSON report of `fixtures/weekly_totals`
  against its annotations.

Exit codes are compared too.  Prints the outputs that differ or exist
on one side only; exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "adversarial", "lookups")

# Run in each child: sys.argv = [-c, src, variants.json, out_dir, annotations, eval file name].
# Reports go to out_dir, each workbook's pages to out_dir/render/<name>/, the
# regions of its sheets, as [sheet, [[rect, fingerprint], ...]] pairs, to
# out_dir/regions/<name>.json, their vector tables, as [sheet, code rows,
# repr(palette), [[cell, refs], ...]] lists, to out_dir/vectors/<name>.json,
# their diagnostics, as [sheet, [line, ...]] pairs, to
# out_dir/diagnostics/<name>.json, and their scored candidates, as [sheet,
# [[source, target, delta hex, distance hex, score hex], ...]] pairs, to
# out_dir/scores/<name>.json.  The CLI's analysis is kept by wrapping the
# `analyze_workbook` it calls, and the scores by wrapping
# `fixes.score_candidates`, which `build_fixes` calls once per sheet with cells.
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from gridlint import cli, fixes
out_dir = Path(sys.argv[3])
for kind in ("regions", "vectors", "diagnostics", "scores"):
    (out_dir / kind).mkdir()
analyses = []
scores = []

def keeping(*args, _analyze=cli.analyze_workbook, **kwargs):
    scores.clear()
    analysis = _analyze(*args, **kwargs)
    analyses[:] = [analysis]
    return analysis

def scoring(candidates, table, *args, _score=fixes.score_candidates, **kwargs):
    scored = _score(candidates, table, *args, **kwargs)
    scores.append([table.sheet_name, [[f.source, f.target, f.delta_entropy.hex(), f.distance.hex(), f.score.hex()]
                                      for f in scored]])
    return scored

cli.analyze_workbook = keeping
fixes.score_candidates = scoring
codes = {}
with contextlib.redirect_stderr(io.StringIO()):
    for name, path, preprocess in json.loads(Path(sys.argv[2]).read_text()):
        analyses.clear()
        for fmt, ext in (("json", "json"), ("text", "txt")):
            argv = ["analyze", path, "--format", fmt, "--out", str(out_dir / f"{name}.{ext}")]
            codes[f"{name}.{ext}"] = cli.main(argv + ([] if preprocess else ["--no-preprocess"]))
        if analyses:
            sheets = [[s.name, [[r.rect, r.fingerprint] for r in s.regions]] for s in analyses[0].sheets]
            (out_dir / "regions" / f"{name}.json").write_text(json.dumps(sheets))
            tables = [[s.name, s.table.grid.code_rows, repr(s.table.grid.palette), list(s.table.refs.items())]
                      for s in analyses[0].sheets]
            (out_dir / "vectors" / f"{name}.json").write_text(json.dumps(tables))
            diagnostics = [[s.name, s.table.diagnostics] for s in analyses[0].sheets]
            (out_dir / "diagnostics" / f"{name}.json").write_text(json.dumps(diagnostics))
            (out_dir / "scores" / f"{name}.json").write_text(json.dumps(scores))
        if preprocess:
            codes[f"render/{name}"] = cli.main(["render", path, "--out", str(out_dir / "render" / name)])
    codes[sys.argv[5]] = cli.main(["eval", str(out_dir / "fixtures-weekly_totals.json"), sys.argv[4],
                                   "--out", str(out_dir / sys.argv[5])])
(out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True))
"""
EVAL = "eval-weekly_totals.json"


def write_variants(directory: Path, seeds: list[int]) -> list[tuple[str, str, bool]]:
    """(report name, workbook path, preprocess) for every input; workload
    workbooks are written under directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS as GENERATORS

    variants = []
    for path in sorted((ROOT / "fixtures").glob("*.gridbook")):
        variants.append((f"fixtures-{path.stem}", str(path), True))
        variants.append((f"fixtures-{path.stem}-no-preprocess", str(path), False))
    for seed in seeds:
        for workload in WORKLOADS:
            for book in GENERATORS[workload](seed):
                path = directory / f"{workload}-{seed}-{book.name}.gridbook"
                path.write_text(book.gridbook())
                variants.append((path.stem, str(path), True))
    return variants


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--python", default=sys.executable, help="interpreter of both children")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "gridlint" / "__init__.py").is_file():
            parser.error(f"{src} holds no gridlint package")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        variants = write_variants(tmp / "inputs", args.seeds)
        (tmp / "variants.json").write_text(json.dumps(variants))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        children = []
        annotations = ROOT / "fixtures" / "weekly_totals.annotations.json"
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            (tmp / side).mkdir()
            children.append(subprocess.Popen(
                [args.python, "-c", CHILD, str(src.resolve()), str(tmp / "variants.json"), str(tmp / side),
                 str(annotations), EVAL],
                env=env,
            ))
        if any([child.wait() != 0 for child in children]):
            print("error: a child interpreter failed", file=sys.stderr)
            return 2

        old, new = (
            {p.relative_to(tmp / side).as_posix() for p in (tmp / side).rglob("*") if p.is_file()}
            for side in ("old", "new")
        )
        _, mismatch, errors = filecmp.cmpfiles(tmp / "old", tmp / "new", sorted(old & new), shallow=False)
        only = sorted(old ^ new)
        for name in mismatch + errors:
            print(f"differs: {name}")
        for name in only:
            print(f"one side only: {name}")
        outputs = (old | new) - {"exit_codes.json"}
        pages = sum(name.startswith("render/") for name in outputs)
        regions = sum(name.startswith("regions/") for name in outputs)
        tables = sum(name.startswith("vectors/") for name in outputs)
        diagnostics = sum(name.startswith("diagnostics/") for name in outputs)
        scores = sum(name.startswith("scores/") for name in outputs)
        reports = len(outputs) - pages - regions - tables - diagnostics - scores - (EVAL in outputs)
        if mismatch or errors or only:
            print(f"{len(mismatch) + len(errors) + len(only)} of {len(outputs)} outputs differ "
                  f"({reports} reports, {regions} region lists, {tables} vector tables, {diagnostics} diagnostic lists, "
                  f"{scores} candidate score lists, {pages} render pages and the eval output; "
                  f"{len(variants)} variants, seeds {args.seeds})")
            return 1
        print(f"all {reports} reports and their exit codes identical "
              f"({len(variants)} variants, seeds {args.seeds})")
        print(f"all {regions} region lists identical")
        print(f"all {tables} vector tables identical")
        print(f"all {diagnostics} diagnostic lists identical")
        print(f"all {scores} candidate score lists identical")
        print(f"all {pages} render pages and the eval output identical, with their exit codes")
        return 0


if __name__ == "__main__":
    sys.exit(main())
