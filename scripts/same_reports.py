#!/usr/bin/env python3
"""Check that two source trees of gridlint write the same audit reports.

    python3 scripts/same_reports.py OLD_SRC NEW_SRC [--seeds 7 11] [--python EXE]

OLD_SRC and NEW_SRC are directories that hold the `gridlint` package
(`src/` of two checkouts).  The inputs are every workbook of
`fixtures/`, analysed with and without preprocessing, and every workbook
of the `corpus`, `adversarial` and `lookups` workloads at each seed,
generated by `perfbench/workloads.py` and analysed with preprocessing.
Each side runs `gridlint analyze` on every input, once per report
format (JSON and text), in one child interpreter of its own (EXE, by
default this one), with the CLI's defaults otherwise.  Exit codes are
compared too.  Prints the reports that differ or exist on one side
only; exits 1 if there are any, else 0.
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

# Run in each child: sys.argv = [-c, src, variants.json, out_dir].
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from gridlint.cli import main
out_dir = Path(sys.argv[3])
codes = {}
for name, path, preprocess in json.loads(Path(sys.argv[2]).read_text()):
    for fmt, ext in (("json", "json"), ("text", "txt")):
        argv = ["analyze", path, "--format", fmt, "--out", str(out_dir / f"{name}.{ext}")]
        with contextlib.redirect_stderr(io.StringIO()):
            codes[f"{name}.{ext}"] = main(argv + ([] if preprocess else ["--no-preprocess"]))
(out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True))
"""


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
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            (tmp / side).mkdir()
            children.append(subprocess.Popen(
                [args.python, "-c", CHILD, str(src.resolve()), str(tmp / "variants.json"), str(tmp / side)],
                env=env,
            ))
        if any([child.wait() != 0 for child in children]):
            print("error: a child interpreter failed", file=sys.stderr)
            return 2

        old = sorted(p.name for p in (tmp / "old").iterdir())
        new = sorted(p.name for p in (tmp / "new").iterdir())
        _, mismatch, errors = filecmp.cmpfiles(tmp / "old", tmp / "new", sorted(set(old) & set(new)), shallow=False)
        only = sorted(set(old) ^ set(new))
        for name in mismatch + errors:
            print(f"differs: {name}")
        for name in only:
            print(f"one side only: {name}")
        reports = len(set(old) | set(new)) - 1  # less exit_codes.json
        if mismatch or errors or only:
            print(f"{len(mismatch) + len(errors) + len(only)} of {reports} reports differ "
                  f"({len(variants)} variants, seeds {args.seeds})")
            return 1
        print(f"all {reports} reports and their exit codes identical "
              f"({len(variants)} variants, seeds {args.seeds})")
        return 0


if __name__ == "__main__":
    sys.exit(main())
