#!/usr/bin/env python3
"""Measure how often delimiter preprocessing changes the final region set.

Three grid classes, from friendly to hostile:

  plain     solid tiles separated by uniform blank lines on every band
            boundary; the class the invariance guarantee covers
  adjacent  some band boundaries have no blank line, so distinct tiles
            touch directly
  deviant   plain layout plus a few interior cells relabeled to another
            tile's fingerprint

For each class this decomposes random grids with and without the
preprocessing pass and reports how often the coalesced region sets agree
exactly.  The plain class should sit at 100%; the others quantify how
quickly the guarantee erodes once delimiters stop being clean.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridlint.entropy import decompose_grid  # noqa: E402
from gridlint.grid import FingerprintGrid  # noqa: E402


def band_layout(rng: random.Random, separators: bool) -> tuple[list[int], list[int]]:
    n_bands = rng.randint(2, 3)
    widths = [rng.randint(3, 6) for _ in range(n_bands)]
    if separators:
        seps = [rng.randint(1, 2) for _ in range(n_bands - 1)]
    else:
        seps = [rng.choice((0, 1, 2)) for _ in range(n_bands - 1)]
    return widths, seps


def make_grid(rng: random.Random, *, separators: bool, deviants: int) -> FingerprintGrid:
    ws, vseps = band_layout(rng, separators)
    hs, hseps = band_layout(rng, separators)
    width = sum(ws) + sum(vseps)
    height = sum(hs) + sum(hseps)
    rows = [["E"] * width for _ in range(height)]
    tiles: list[tuple[int, int, int, int, str]] = []
    tile = 0
    x0 = 1
    for bx, w in enumerate(ws):
        y0 = 1
        for by, h in enumerate(hs):
            tile += 1
            label = f"T{tile}"
            tiles.append((x0, y0, x0 + w - 1, y0 + h - 1, label))
            for y in range(y0, y0 + h):
                rows[y - 1][x0 - 1:x0 - 1 + w] = [label] * w
            y0 += h + (hseps[by] if by < len(hseps) else 0)
        x0 += w + (vseps[bx] if bx < len(vseps) else 0)
    labels = [t[4] for t in tiles]
    for _ in range(deviants):
        left, top, right, bottom, label = rng.choice(tiles)
        if right - left < 2 or bottom - top < 2:
            continue
        x = rng.randint(left + 1, right - 1)
        y = rng.randint(top + 1, bottom - 1)
        rows[y - 1][x - 1] = rng.choice([l for l in labels if l != label])
    return FingerprintGrid(rows)


CLASSES = {
    "plain": dict(separators=True, deviants=0),
    "adjacent": dict(separators=False, deviants=0),
    "deviant": dict(separators=True, deviants=2),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300, help="grids per class")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'class':<10} {'trials':>6} {'identical':>9} {'rate':>8}")
    for name, params in CLASSES.items():
        rng = random.Random(args.seed)
        identical = 0
        for _ in range(args.trials):
            grid = make_grid(rng, **params)
            with_pre = sorted(decompose_grid(grid, preprocess=True))
            without = sorted(decompose_grid(grid, preprocess=False))
            identical += with_pre == without
        rate = 100.0 * identical / args.trials
        print(f"{name:<10} {args.trials:>6} {identical:>9} {rate:>7.1f}%")


if __name__ == "__main__":
    main()
