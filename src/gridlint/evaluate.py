"""Scoring flagged cells against hand-labelled ground truth.

Some inconsistencies come as a pair of mutually conflicting formula
groups where no label can say which side is wrong; credit for those is
capped at the smaller side's size no matter how many cells get flagged.
A random-guessing baseline (drawing the same number of cells without
replacement) anchors an adjusted precision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .model import FormatError, GridlintError, parse_a1

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


def adjusted_precision(tp: int, flagged: int, expected: float) -> float:
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
    adjusted = adjusted_precision(tp, len(flagged_set), expected)
    return EvalResult(tp, fp, fn, len(flagged_set), precision, recall, expected, adjusted)


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
    sheets = []
    tp = fp = fn = flagged = 0
    expected = 0.0
    for sheet in report["sheets"]:
        name, cells, total_cells = _parse_report_sheet(sheet)
        sheet_truth = truth.sheets.get(name, SheetTruth(frozenset(), (), frozenset()))
        result = evaluate_sheet(cells, sheet_truth, total_cells)
        sheets.append({"sheet": name, **asdict(result)})
        tp += result.tp
        fp += result.fp
        fn += result.fn
        flagged += result.flagged
        expected += result.expected_random_tp
    truth_total = sum(t.capped_error_count for t in truth.sheets.values())
    precision, recall = precision_recall(tp, fp, fn, flagged, truth_total)
    overall = EvalResult(tp, fp, fn, flagged, precision, recall, expected,
                         adjusted_precision(tp, flagged, expected))
    return {"workbook": truth.workbook, "sheets": sheets, "overall": asdict(overall)}
