"""Checks of one analysed workbook against facts computed apart from gridlint.

The expected fingerprints come from the generator's closed forms
(`workloads.py`); everything else is a property any correct analysis has:

* each cell has the fingerprint its formula's references give it;
* regions are disjoint, tile the used range and each carries the
  fingerprint of every cell it covers;
* no two regions with one fingerprint could merge into a rectangle;
* the fixes flag at most ceil(threshold x cells) cells, in exact
  rational arithmetic;
* each fix lowers entropy, its score recomputes as
  size / (-delta x max(distance, 1)), and scores descend by rank;
* every injected error is among the flagged cells.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from workloads import TEXT_FP, a1

EMPTY_FP = (0, 0, 0, 0)
MAX_LISTED = 3
_A1 = re.compile(r"^([A-Z]+)([0-9]+)$")


def parse_a1(text: str) -> tuple[int, int]:
    m = _A1.match(text)
    if not m:
        raise ValueError(f"not an A1 address: {text!r}")
    column = 0
    for ch in m.group(1):
        column = column * 26 + ord(ch) - ord("A") + 1
    return column, int(m.group(2))


def rect_area(text: str) -> int:
    """Cell count of an A1 cell or range such as B5 or B5:D9."""
    first, _, last = text.partition(":")
    (c0, r0), (c1, r1) = parse_a1(first), parse_a1(last or first)
    return (abs(c1 - c0) + 1) * (abs(r1 - r0) + 1)


def _listed(kind: str, items: list[str]) -> list[str]:
    if not items:
        return []
    more = f" (+{len(items) - MAX_LISTED} more)" if len(items) > MAX_LISTED else ""
    return [f"{kind}: " + "; ".join(items[:MAX_LISTED]) + more]


def expected_fingerprints(exp: dict) -> dict:
    return {(c, r): tuple(fp) for c, r, *fp in exp["fingerprints"]}


def check_fingerprints(sheet, exp: dict) -> list[str]:
    """Every written cell has its closed-form fingerprint and no other cell
    has one. A formula the generator marks as one a parser may refuse may
    instead be text, provided a diagnostic names it."""
    expected = expected_fingerprints(exp)
    may_be_text = {tuple(cell) for cell in exp["may_be_text"]}
    got = {cell: tuple(fp) for cell, fp in sheet.table.fingerprints.items() if tuple(fp) != EMPTY_FP}
    bad = []
    for cell in sorted(set(expected) | set(got)):
        want, have = expected.get(cell, EMPTY_FP), got.get(cell, EMPTY_FP)
        if want == have:
            continue
        named = any(f"!{a1(*cell)}:" in d for d in sheet.table.diagnostics)
        if cell in may_be_text and have == TEXT_FP and named:
            continue
        bad.append(f"{a1(*cell)} is {have}, expected {want}")
    return _listed("fingerprint", bad)


def check_tiling(sheet, exp: dict) -> list[str]:
    """Regions are disjoint, cover the used range exactly, and each cell
    inside a region has the region's fingerprint."""
    expected = expected_fingerprints(exp)
    rect = exp["rect"]
    if rect is None:
        return [] if not sheet.regions else [f"tiling: {len(sheet.regions)} regions on an empty sheet"]
    left, top, right, bottom = rect
    covered: set = set()
    bad = []
    for region in sheet.regions:
        r = region.rect
        fp = tuple(region.fingerprint)
        if r.left < left or r.top < top or r.right > right or r.bottom > bottom:
            bad.append(f"{r} leaves the used range")
            continue
        for row in range(r.top, r.bottom + 1):
            for col in range(r.left, r.right + 1):
                if (col, row) in covered:
                    bad.append(f"{a1(col, row)} is in two regions")
                covered.add((col, row))
                if expected.get((col, row), EMPTY_FP) != fp:
                    bad.append(f"{a1(col, row)} sits in a region of {fp}")
    missing = (right - left + 1) * (bottom - top + 1) - len(covered)
    if missing:
        bad.append(f"{missing} cells of the used range are in no region")
    return _listed("tiling", bad)


def check_maximal(sheet) -> list[str]:
    """No two same-fingerprint regions share a full edge (their union
    would be a rectangle, so coalescing should have merged them)."""
    tops, lefts = {}, {}
    for region in sheet.regions:
        r = region.rect
        tops[(region.fingerprint, r.left, r.right, r.top)] = r
        lefts[(region.fingerprint, r.top, r.bottom, r.left)] = r
    bad = []
    for region in sheet.regions:
        r = region.rect
        below = tops.get((region.fingerprint, r.left, r.right, r.bottom + 1))
        beside = lefts.get((region.fingerprint, r.top, r.bottom, r.right + 1))
        for other in (below, beside):
            if other is not None:
                bad.append(f"{r} and {other} could merge")
    return _listed("maximal", bad)


def check_budget(payload: dict, threshold: str) -> list[str]:
    flagged = sum(len(fix["source"]) for fix in payload["fixes"])
    budget = math.ceil(Fraction(threshold) * payload["cells"])
    if flagged > budget:
        return [f"budget: {flagged} cells flagged, at most {budget} allowed"]
    return []


def check_fixes(payload: dict) -> list[str]:
    bad = []
    previous = math.inf
    for rank, fix in enumerate(payload["fixes"], start=1):
        delta, distance, score = fix["delta_entropy"], fix["distance"], fix["score"]
        if fix["rank"] != rank:
            bad.append(f"fix {rank} is numbered {fix['rank']}")
        if not delta < 0:
            bad.append(f"fix {rank} has delta_entropy {delta}")
            continue
        want = rect_area(fix["target"]) / (-delta * max(distance, 1.0))
        if not math.isclose(score, want, rel_tol=1e-12):
            bad.append(f"fix {rank} scores {score}, recomputed {want}")
        if score > previous:
            bad.append(f"fix {rank} scores {score} after {previous}")
        previous = score
    return _listed("fixes", bad)


def check_injected(payload: dict, exp: dict) -> list[str]:
    flagged = {cell for fix in payload["fixes"] for cell in fix["source"]}
    missed = [a1(c, r) for c, r in exp["injected"] if a1(c, r) not in flagged]
    return _listed("injected error not flagged", missed)


def check_sheet(sheet, payload: dict, exp: dict, threshold: str) -> list[str]:
    """All checks for one sheet: its analysis, report entry and expectation."""
    problems = []
    rect = exp["rect"]
    cells = 0 if rect is None else (rect[2] - rect[0] + 1) * (rect[3] - rect[1] + 1)
    if payload["cells"] != cells:
        problems.append(f"cells: report says {payload['cells']}, used range has {cells}")
    problems += check_fingerprints(sheet, exp)
    problems += check_tiling(sheet, exp)
    problems += check_maximal(sheet)
    problems += check_budget(payload, threshold)
    problems += check_fixes(payload)
    problems += check_injected(payload, exp)
    return [f"{payload['sheet']}: {p}" for p in problems]


def check_workbook(analysis, payload: dict, expectation: dict, threshold: str) -> list[str]:
    """Problems with one analysed workbook; the report is the parsed JSON text."""
    names = list(expectation["sheets"])
    if [s["sheet"] for s in payload["sheets"]] != names or [s.name for s in analysis.sheets] != names:
        return [f"sheets: report lists {[s['sheet'] for s in payload['sheets']]}, expected {names}"]
    problems = []
    for sheet, sheet_payload in zip(analysis.sheets, payload["sheets"]):
        problems += check_sheet(sheet, sheet_payload, expectation["sheets"][sheet.name], threshold)
    return problems
