"""Analyse one workload's generated workbooks and check every report.

Run by run.py in a fresh interpreter, so that the peak resident set size
is that of the analysis alone:

    python3 perfbench/passes.py --inputs DIR --seconds S --trace 0|1

The untraced pass repeats whole rounds over every workbook until S
seconds have passed, each analysis following the path of
`gridlint analyze`: load_workbook -> analyze_workbook -> audit_payload
-> audit_json, with the command's defaults. Round one is checked
against the generator's expectations (checks.py); later rounds must
repeat its reports byte for byte. With --trace 1 a single traced round
follows, whose reports must equal the untraced ones. Prints one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check_workbook  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402

from gridlint import model, pipeline, report  # noqa: E402

THRESHOLD = "0.05"  # the CLI default, as text so the budget check is exact


def analyze(path: str, tracer: Tracer | None = None):
    """(report text, analysis) for one workbook along the CLI's path."""
    config = pipeline.AnalysisConfig(threshold=float(THRESHOLD), preprocess=True)
    if tracer is None:
        workbook = model.load_workbook(path)
        analysis = pipeline.analyze_workbook(workbook, config)
        text = report.audit_json(pipeline.audit_payload(analysis, config.threshold))
        return text, analysis
    workbook = tracer.span("model.load", model.load_workbook, path)
    tracer.span("trace.count", tracer.add_cells, workbook)
    analysis = tracer.span("pipeline", pipeline.analyze_workbook, workbook, config)
    payload = tracer.span("report.render", pipeline.audit_payload, analysis, config.threshold)
    return report.audit_json(payload), analysis


def timed(path: str, tracer: Tracer | None = None):
    """(seconds, report text or None, analysis or None, error or None)."""
    start = time.perf_counter()
    try:
        text, analysis = analyze(path, tracer)
    except Exception as exc:  # a raising workbook is a failed operation, not a crash
        return time.perf_counter() - start, None, None, f"{type(exc).__name__}: {str(exc)[:120]}"
    return time.perf_counter() - start, text, analysis, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())

    reports: dict[str, str | None] = {}
    problems: dict[str, list[str]] = {}
    scaled: dict[str, list[float]] = {book["name"]: [] for book in manifest}  # reference seconds
    wall: dict[str, list[float]] = {book["name"]: [] for book in manifest}
    rounds = failed = 0
    start = time.perf_counter()
    clock = RefClock()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds += 1
        for book in manifest:
            name = book["name"]
            seconds, text, analysis, error = timed(str(inputs / book["file"]))
            scaled[name].append(clock.scale(seconds))
            wall[name].append(seconds)
            if name not in reports:
                reports[name] = text
                if error is not None:
                    problems[name] = [error]
                else:
                    expectation = json.loads((inputs / book["expected"]).read_text())
                    found = check_workbook(analysis, json.loads(text), expectation, THRESHOLD)
                    if found:
                        problems[name] = found
            elif text != reports[name]:
                problems.setdefault(name, []).append("report differs from round one")
            del analysis
            failed += name in problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # One round's time as the sum of each workbook's median over rounds:
    # a burst of noise then moves one workbook's sample, not a round.
    book_medians = [statistics.median(times) for times in scaled.values()]
    known = {book["name"] for book in manifest if book.get("known_fault")}
    result = {
        "attempted": rounds * len(manifest),
        "failed": failed,
        "rounds": rounds,
        "unexpected": sorted(set(problems) - known),
        "problems": problems,
        "analyze_s": sum(book_medians),
        "analyze_wall_s": sum(statistics.median(times) for times in wall.values()),
        "workbook_p50_s": statistics.median(t for times in scaled.values() for t in times),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = 0.0
        mismatched = []
        try:
            for book in manifest:
                seconds, text, _, _ = timed(str(inputs / book["file"]), tracer)
                traced += clock.scale(seconds)
                if text != reports[book["name"]]:
                    mismatched.append(book["name"])
        finally:
            tracer.remove()
        layers = tracer.metrics()
        layers["trace.overhead_s"] = traced - sum(book_medians)
        result["layers"] = layers
        result["missing_hooks"] = tracer.missing
        result["traced_report_differs"] = mismatched
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
