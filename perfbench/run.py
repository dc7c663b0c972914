"""gridlint benchmark: seeded workbooks, checked reports, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root. It generates the workload's workbooks
from the seed, measures set-up time (fresh interpreters importing
gridlint.cli against bytecode compiled beforehand), then runs
passes.py in a fresh interpreter to analyse and check them. The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Generated files live
under .bench_build/perfbench and are removed after the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refclock import RefClock  # noqa: E402
from tracer import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Workbooks that fail today, by a fault the benchmark keeps in view.
KNOWN_FAULTS = {
    "deep_formula": "parser recursion: RecursionError from about 150 levels",
    "sum_1100000": "RangeTooLargeError turns the formula into text",
}
SETUP_LAUNCHES = 21
IMPORT = "import gridlint.cli"
PASS_TIMEOUT_S = 170


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True)
    manifest = []
    for book in WORKLOADS[workload](seed):
        (directory / f"{book.name}.gridbook").write_text(book.gridbook())
        (directory / f"{book.name}.expected.json").write_text(json.dumps(book.expectation()))
        manifest.append({"name": book.name, "file": f"{book.name}.gridbook",
                         "expected": f"{book.name}.expected.json",
                         "known_fault": KNOWN_FAULTS.get(book.name)})
    (directory / "manifest.json").write_text(json.dumps(manifest))


def setup_seconds(env: dict) -> float:
    """Median time, in reference seconds, of fresh interpreters importing gridlint.cli.

    One import with bytecode writing on fills the benchmark's own cache
    (PYTHONPYCACHEPREFIX) first, so the timed launches read compiled
    bytecode whatever PYTHONDONTWRITEBYTECODE says.
    """
    command = [sys.executable, "-c", IMPORT]
    warm = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(command, env=warm, check=True)
    timed = dict(env, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    clock = RefClock()
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(command, env=timed, check=True)
        samples.append(clock.scale(time.perf_counter() - start))
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "gridlint" / "cli.py").is_file():
        print(f"perfbench: no gridlint sources at {src}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench"
    inputs = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    try:
        write_inputs(args.workload, args.seed, inputs)
        setup_s = None if args.trace else setup_seconds(env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), "--inputs", str(inputs),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S, check=True, text=True,
        )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    for name, found in sorted(out["problems"].items()):
        tag = "known fault" if name in KNOWN_FAULTS else "FAILED"
        print(f"{tag}: {name}: {'; '.join(found)[:300]}", file=sys.stderr)
    correct = not out["unexpected"]
    if args.trace:
        for hook in out["missing_hooks"]:
            print(f"trace: hook {hook} is missing; its metrics read 0", file=sys.stderr)
        if out["traced_report_differs"]:
            print(f"FAILED: traced reports differ: {out['traced_report_differs']}", file=sys.stderr)
            correct = False
        layers = out["layers"]
        units = {m: "s" for m in TIME_METRICS.values()} | {m: "count" for m in COUNT_METRICS}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "analyze_s": {"value": out["analyze_s"], "unit": "s"},
            "workbook_p50_s": {"value": out["workbook_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {out['rounds']} rounds, "
          f"{out['attempted']} workbooks analysed, {out['failed']} failed; "
          f"a round takes {out['analyze_wall_s']:.3f} s wall, {out['analyze_s']:.3f} reference s",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
