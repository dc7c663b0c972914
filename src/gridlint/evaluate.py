"""Scoring flagged cells against hand-labelled ground truth.

Some inconsistencies come as a pair of mutually conflicting formula
groups where no label can say which side is wrong; credit for those is
capped at the smaller side's size no matter how many cells get flagged.
A random-guessing baseline (drawing the same number of cells without
replacement) anchors an adjusted precision.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .model import CellKind, FormatError, GridlintError, Rect, parse_a1
from .vectors import SheetVectors, offset_box

Cell = tuple[int, int]


class DomainError(GridlintError):
    """A baseline parameter is outside its valid range."""


@dataclass(frozen=True)
class BugDual:
    """Two internally consistent but mutually conflicting cell groups."""

    c1: frozenset
    c2: frozenset

    def __post_init__(self):
        if not self.c1 or not self.c2:
            raise FormatError("dual sides must be nonempty")
        if self.c1 & self.c2:
            raise FormatError("dual sides must be disjoint")

    @property
    def cells(self) -> frozenset:
        return self.c1 | self.c2

    @property
    def cap(self) -> int:
        return min(len(self.c1), len(self.c2))


@dataclass(frozen=True)
class SheetTruth:
    errors: frozenset
    duals: tuple[BugDual, ...]
    not_bugs: frozenset

    def __post_init__(self):
        for dual in self.duals:
            if not dual.cells <= self.errors:
                raise FormatError("every dual cell must also be listed as an error")

    @property
    def capped_error_count(self) -> int:
        """Total credit available: plain errors plus each dual's cap."""
        dual_cells = frozenset().union(*(d.cells for d in self.duals)) if self.duals else frozenset()
        return len(self.errors - dual_cells) + sum(d.cap for d in self.duals)


@dataclass(frozen=True)
class GroundTruth:
    workbook: str
    sheets: Mapping[str, SheetTruth]


@dataclass(frozen=True)
class EvalResult:
    tp: int
    fp: int
    fn: int
    flagged: int
    precision: float
    recall: float
    expected_random_tp: float
    adjusted_precision: float


def count_true_positives(flagged: Iterable[Cell], truth: SheetTruth) -> int:
    flagged_set = set(flagged)
    dual_cells = set()
    for d in truth.duals:
        dual_cells |= d.cells
    tp = sum(1 for c in flagged_set if c in truth.errors and c not in dual_cells)
    for d in truth.duals:
        tp += min(len(flagged_set & d.cells), d.cap)
    return tp


def precision_recall(tp: int, fp: int, fn: int, flagged: int, truth_error_count: int) -> tuple[float, float]:
    if flagged == 0:
        precision = 1.0
    elif truth_error_count == 0:
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    return precision, recall


def expected_random_tp(m: int, r: int, n: int) -> float:
    """Mean true positives when n of m cells are flagged blindly.

    Drawing without replacement is hypergeometric; its mean is n*r/m.
    """
    if m < 1:
        raise DomainError(f"total cells {m} must be at least 1")
    if n < 0 or r < 0 or n > m or r > m:
        raise DomainError(f"need 0 <= flagged {n} <= {m} and 0 <= errors {r} <= {m}")
    return n * r / m


def adjusted_precision(tp: int, fp: int, flagged: int, expected: float) -> float:
    if flagged == 0:
        return 1.0
    adjusted_tp = tp - expected
    return min(1.0, max(0.0, adjusted_tp / flagged))


def evaluate_sheet(flagged: Iterable[Cell], truth: SheetTruth, total_cells: int) -> EvalResult:
    flagged_set = set(flagged)
    tp = count_true_positives(flagged_set, truth)
    capped = truth.capped_error_count
    fp = len(flagged_set) - tp
    fn = capped - tp
    precision, recall = precision_recall(tp, fp, fn, len(flagged_set), capped)
    expected = expected_random_tp(total_cells, min(capped, total_cells), min(len(flagged_set), total_cells))
    adjusted = adjusted_precision(tp, fp, len(flagged_set), expected)
    return EvalResult(tp, fp, fn, len(flagged_set), precision, recall, expected, adjusted)


# --- layout statistics ---


def _connected_clusters(table: SheetVectors) -> list[tuple[frozenset, tuple]]:
    """Maximal edge-connected same-fingerprint cell sets, skipping blanks.

    Returns (cells, fingerprint) pairs; deterministic order."""
    rect = table.rect
    seen: set[Cell] = set()
    clusters: list[tuple[frozenset, tuple]] = []
    for y in range(rect.top, rect.bottom + 1):
        for x in range(rect.left, rect.right + 1):
            if (x, y) in seen or table.kind(x, y) is CellKind.EMPTY:
                continue
            fp = table.fingerprint(x, y)
            stack = [(x, y)]
            members = set()
            while stack:
                cx, cy = stack.pop()
                if (cx, cy) in members:
                    continue
                members.add((cx, cy))
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if (
                        rect.contains(nx, ny)
                        and (nx, ny) not in members
                        and table.kind(nx, ny) is not CellKind.EMPTY
                        and table.fingerprint(nx, ny) == fp
                    ):
                        stack.append((nx, ny))
            seen |= members
            clusters.append((frozenset(members), fp))
    return clusters


def _is_rectangular(cells: frozenset) -> bool:
    left = min(c[0] for c in cells)
    right = max(c[0] for c in cells)
    top = min(c[1] for c in cells)
    bottom = max(c[1] for c in cells)
    return Rect(left, top, right, bottom).area == len(cells)


def rectangularity_stats(tables: Sequence[SheetVectors]) -> tuple[Optional[float], Optional[float]]:
    """(rectangular fraction of all content clusters, of formula-only
    clusters); None when a denominator is empty."""
    all_total = all_rect = 0
    formula_total = formula_rect = 0
    for table in tables:
        for cells, _fp in _connected_clusters(table):
            rectangular = _is_rectangular(cells)
            all_total += 1
            all_rect += rectangular
            if all(table.kind(x, y) is CellKind.FORMULA for x, y in cells):
                formula_total += 1
                formula_rect += rectangular
    frac_all = all_rect / all_total if all_total else None
    frac_formula = formula_rect / formula_total if formula_total else None
    return frac_all, frac_formula


def _union_key(boxes: Sequence[tuple[int, int, int, int, int]]) -> tuple:
    """Canonical form of a union of integer boxes (z, x0, y0, x1, y1), bounds
    inclusive: per z, the maximal runs of rows that cover the same merged
    x-intervals.  Two unions hold the same points exactly when their keys
    are equal, without listing the points."""
    key = []
    for z in sorted({b[0] for b in boxes}):
        layer = [b for b in boxes if b[0] == z]
        edges = sorted({b[2] for b in layer} | {b[4] + 1 for b in layer})
        bands: list[tuple[int, int, tuple]] = []
        for y0, y_end in zip(edges, edges[1:]):
            merged: list[list[int]] = []
            for x0, x1 in sorted((b[1], b[3]) for b in layer if b[2] <= y0 <= b[4]):
                if merged and x0 <= merged[-1][1] + 1:
                    merged[-1][1] = max(merged[-1][1], x1)
                else:
                    merged.append([x0, x1])
            spans = tuple(map(tuple, merged))
            if bands and bands[-1][1] == y0 - 1 and bands[-1][2] == spans:
                bands[-1] = (bands[-1][0], y_end - 1, spans)
            elif spans:
                bands.append((y0, y_end - 1, spans))
        key.append((z, tuple(bands)))
    return tuple(key)


def collision_rate(tables: Sequence[SheetVectors]) -> float:
    """Fraction of same-fingerprint formula pairs whose reference-vector
    sets differ (the fingerprint sum hides a real shape difference).

    A reference's vectors fill a box (vectors.offset_box); each cell's set
    is compared through the canonical form of the union of its boxes.  The
    pairs that differ are the same-fingerprint pairs less the same-set ones."""
    by_fingerprint: Counter = Counter()
    by_set: Counter = Counter()
    for table in tables:
        for cell, rects in table.refs.items():
            fingerprint = table.fingerprint(*cell)
            boxes = [offset_box(r, *cell, table.sheet_name, table.workbook_name) for r in rects]
            by_fingerprint[fingerprint] += 1
            by_set[fingerprint, _union_key(boxes)] += 1
    pairs = sum(n * (n - 1) // 2 for n in by_fingerprint.values())
    same = sum(n * (n - 1) // 2 for n in by_set.values())
    return (pairs - same) / pairs if pairs else 0.0


# --- annotation file handling ---


def _parse_cell_list(values, where: str) -> frozenset:
    if not isinstance(values, list):
        raise FormatError(f"{where} must be a list of cell names")
    out = set()
    for v in values:
        if not isinstance(v, str):
            raise FormatError(f"{where} entries must be strings")
        out.add(parse_a1(v))
    return frozenset(out)


def parse_annotations(data: dict) -> GroundTruth:
    if not isinstance(data, dict) or "workbook" not in data or "sheets" not in data:
        raise FormatError("annotations must be an object with workbook and sheets")
    if not isinstance(data["workbook"], str):
        raise FormatError("workbook must be a string")
    sheets_raw = data["sheets"]
    if not isinstance(sheets_raw, dict):
        raise FormatError("sheets must be an object keyed by sheet name")
    sheets: dict[str, SheetTruth] = {}
    for name, body in sheets_raw.items():
        if not isinstance(body, dict):
            raise FormatError(f"sheet {name!r} annotations must be an object")
        errors = _parse_cell_list(body.get("errors", []), f"{name}.errors")
        not_bugs = _parse_cell_list(body.get("not_bugs", []), f"{name}.not_bugs")
        duals_raw = body.get("duals", [])
        if not isinstance(duals_raw, list):
            raise FormatError(f"{name}.duals must be a list of objects")
        duals = []
        for i, dual_raw in enumerate(duals_raw):
            if not isinstance(dual_raw, dict):
                raise FormatError(f"{name}.duals[{i}] must be an object")
            duals.append(
                BugDual(
                    _parse_cell_list(dual_raw.get("c1", []), f"{name}.duals[{i}].c1"),
                    _parse_cell_list(dual_raw.get("c2", []), f"{name}.duals[{i}].c2"),
                )
            )
        sheets[name] = SheetTruth(errors, tuple(duals), not_bugs)
    return GroundTruth(data["workbook"], sheets)


def load_annotations(path) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and
            # integers past Python's digit limit.
            raise FormatError(f"invalid annotation JSON: {exc}") from exc
    return parse_annotations(data)


def _parse_report_sheet(sheet) -> tuple[str, set, int]:
    """Check one report sheet's shape; return its name, flagged cells and cell count."""
    if not isinstance(sheet, dict) or not isinstance(sheet.get("sheet"), str):
        raise FormatError("malformed report sheet: each sheet needs a 'sheet' name string")
    name = sheet["sheet"]
    cells = sheet.get("cells", 0)
    if not isinstance(cells, int) or isinstance(cells, bool):
        raise FormatError(f"malformed report sheet {name!r}: 'cells' must be an integer")
    fixes = sheet.get("fixes", [])
    if not isinstance(fixes, list) or not all(isinstance(fix, dict) for fix in fixes):
        raise FormatError(f"malformed report sheet {name!r}: 'fixes' must be a list of objects")
    flagged = set()
    for fix in fixes:
        flagged |= _parse_cell_list(fix.get("source", []), f"malformed report sheet {name!r}: source")
    return name, flagged, max(1, cells)


def evaluate_report(report: dict, truth: GroundTruth) -> dict:
    """Score an audit report against annotations; JSON-ready result.

    The report's workbook name must match the annotations'.
    """
    if not isinstance(report, dict) or "workbook" not in report or "sheets" not in report:
        raise FormatError("report must be an audit payload with workbook and sheets")
    if report["workbook"] != truth.workbook:
        raise FormatError(
            f"workbook mismatch: report {report['workbook']!r} vs annotations {truth.workbook!r}"
        )
    if not isinstance(report["sheets"], list):
        raise FormatError("report sheets must be a list")
    sheet_results = []
    totals = {"tp": 0, "fp": 0, "fn": 0, "flagged": 0}
    expected_total = 0.0
    for sheet in report["sheets"]:
        name, flagged, total_cells = _parse_report_sheet(sheet)
        sheet_truth = truth.sheets.get(name, SheetTruth(frozenset(), (), frozenset()))
        result = evaluate_sheet(flagged, sheet_truth, total_cells)
        totals["tp"] += result.tp
        totals["fp"] += result.fp
        totals["fn"] += result.fn
        totals["flagged"] += result.flagged
        expected_total += result.expected_random_tp
        sheet_results.append(
            {
                "sheet": name,
                "tp": result.tp,
                "fp": result.fp,
                "fn": result.fn,
                "flagged": result.flagged,
                "precision": result.precision,
                "recall": result.recall,
                "expected_random_tp": result.expected_random_tp,
                "adjusted_precision": result.adjusted_precision,
            }
        )
    truth_total = sum(t.capped_error_count for t in truth.sheets.values())
    precision, recall = precision_recall(
        totals["tp"], totals["fp"], totals["fn"], totals["flagged"], truth_total
    )
    overall = {
        "tp": totals["tp"],
        "fp": totals["fp"],
        "fn": totals["fn"],
        "flagged": totals["flagged"],
        "precision": precision,
        "recall": recall,
        "expected_random_tp": expected_total,
        "adjusted_precision": adjusted_precision(
            totals["tp"], totals["fp"], totals["flagged"], expected_total
        ),
    }
    return {"workbook": truth.workbook, "sheets": sheet_results, "overall": overall}
