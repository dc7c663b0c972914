"""Whole-workbook analysis: vectors -> regions -> ranked fixes, timed.

Each sheet is processed independently, in sheet coordinates (column,
row) throughout: the grid sits at the used range, so its regions and
fixes need no translation.  `analyze_workbook` runs with the cyclic
garbage collector paused (`model.collector_paused`); `audit_payload`
does not, so a caller that loops over workbooks still gets the
collector's full collections between them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .entropy import Region, decompose_grid
from .fixes import DEFAULT_THRESHOLD, ProposedFix, build_fixes
from .grid import FingerprintGrid
from .model import FormatError, Workbook, Worksheet, collector_paused
from .report import audit_sheet_payload, audit_workbook_payload
from .vectors import EMPTY_FINGERPRINT, SheetVectors, analyze_sheet_vectors

# Timed phases, once per sheet and summed per workbook.  The workbook's
# load ("parse") is timed by whoever loads it, as the CLI does.
PHASES = ("vectors", "decomposition", "fixes")


class ConfigError(FormatError, ValueError):
    """An analysis option is out of range: a usage error, not a bug.

    Also a ValueError, so callers that validate options that way still
    catch it.
    """


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = DEFAULT_THRESHOLD
    preprocess: bool = True

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold {self.threshold} must be in (0, 1]")


@dataclass
class SheetAnalysis:
    name: str
    table: SheetVectors
    regions: list[Region]
    fixes: list[ProposedFix]
    cells: int
    timings: dict[str, float]


@dataclass
class WorkbookAnalysis:
    name: str
    sheets: list[SheetAnalysis]
    timings: dict[str, float]

    def total_regions(self) -> int:
        return sum(len(s.regions) for s in self.sheets)

    def total_fixes(self) -> int:
        return sum(len(s.fixes) for s in self.sheets)


def grid_from_table(table: SheetVectors) -> FingerprintGrid:
    """The grid the vectors pass wrote over the used range, for decomposition."""
    return table.grid


def analyze_sheet(workbook: Workbook, sheet: Worksheet, config: Optional[AnalysisConfig] = None,
                  shapes: Optional[dict] = None) -> SheetAnalysis:
    """Analyse one sheet; `shapes` is the formula-shape dictionary of
    `analyze_sheet_vectors`, shared by the sheets of a workbook.  A used
    range of more than `vectors.MAX_USED_CELLS` cells raises FormatError
    there, before any formula is read."""
    config = config or AnalysisConfig()
    if not sheet.cells:
        # Nothing on the sheet: empty table over a placeholder 1x1 range.
        table = SheetVectors(sheet.name, workbook.name, FingerprintGrid([[EMPTY_FINGERPRINT]]), {})
        return SheetAnalysis(sheet.name, table, [], [], 0, dict.fromkeys(PHASES, 0.0))
    timings = {}
    t0 = time.perf_counter()
    table = analyze_sheet_vectors(workbook, sheet, shapes)
    timings["vectors"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    regions = decompose_grid(grid_from_table(table), preprocess=config.preprocess)
    timings["decomposition"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cells = table.rect.area
    fixes = build_fixes(table, regions, cells, config.threshold)
    timings["fixes"] = time.perf_counter() - t0
    return SheetAnalysis(sheet.name, table, regions, fixes, cells, timings)


@collector_paused
def analyze_workbook(workbook: Workbook, config: Optional[AnalysisConfig] = None) -> WorkbookAnalysis:
    config = config or AnalysisConfig()
    shapes: dict = {}
    sheets = [analyze_sheet(workbook, sheet, config, shapes) for sheet in workbook.sheets]
    timings = {phase: sum(s.timings[phase] for s in sheets) for phase in PHASES}
    return WorkbookAnalysis(workbook.name, sheets, timings)


def audit_payload(analysis: WorkbookAnalysis, threshold: float) -> dict:
    per_sheet = [
        audit_sheet_payload(s.name, s.fixes, threshold, s.cells) for s in analysis.sheets
    ]
    return audit_workbook_payload(analysis.name, threshold, per_sheet)
