"""Time the ROADMAP's full-size adversarial rows once.

    python3 perfbench/roadmap_sizes.py [--seed N]

These sizes take too long for every benchmark run (running totals at
n = 500 alone take half a minute), so the workloads use smaller ones
and the README records these figures. Each row is analysed once along
the CLI's path and checked like a workload's workbooks.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_workbook  # noqa: E402
from passes import THRESHOLD, analyze  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import column_sum_book, noisy_book, running_totals_book, stripes_book  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    rows = [
        ("running totals, n = 500", running_totals_book(rng, 500)),
        ("noisy 40x40", noisy_book(rng, 40, "noisy_40x40", mask_seed=4000)),
        ("stripes 200x200", stripes_book(rng, 200, 200)),
        ("=SUM(B1:B200000)", column_sum_book(rng, 200_000)),
    ]
    work = HERE.parent / ".bench_build" / "perfbench" / "roadmap"
    work.mkdir(parents=True, exist_ok=True)
    try:
        clock = RefClock()
        for label, book in rows:
            path = work / f"{book.name}.gridbook"
            path.write_text(book.gridbook())
            start = time.perf_counter()
            text, analysis = analyze(str(path))
            wall = time.perf_counter() - start
            scaled = clock.scale(wall)
            problems = check_workbook(analysis, json.loads(text), book.expectation(), THRESHOLD)
            verdict = "checks pass" if not problems else "; ".join(problems)[:200]
            print(f"{label}: {wall:.2f} s wall, {scaled:.2f} reference s, {verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
