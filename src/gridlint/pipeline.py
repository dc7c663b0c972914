"""Whole-workbook analysis: vectors -> regions -> ranked fixes, timed.

Each sheet is processed independently; coordinates in results are sheet
coordinates (column, row), not positions within the used range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .entropy import Region, decompose_grid
from .fixes import ProposedFix, build_fixes
from .grid import FingerprintGrid
from .model import FormatError, Rect, Workbook, Worksheet
from .report import audit_sheet_payload, audit_workbook_payload
from .vectors import EMPTY_FINGERPRINT, SheetVectors, analyze_sheet_vectors

# Timed phases: parse once per workbook, the rest once per sheet.
PHASES = ("parse", "vectors", "decomposition", "fixes")

# Largest used range analysed, in cells.  The fingerprint grid, the
# entropy tree and the HTML view are dense over the used range, so a
# sheet holding only A1 and XFD1048576 (about 1.7e10 cells) is refused
# up front instead of exhausting memory.
MAX_USED_CELLS = 2**20


class ConfigError(FormatError, ValueError):
    """An analysis option is out of range: a usage error, not a bug.

    Also a ValueError, so callers that validate options that way still
    catch it.
    """


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = 0.05
    preprocess: bool = True
    fmt: str = "json"

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold {self.threshold} must be in (0, 1]")
        if self.fmt not in ("json", "text"):
            raise ConfigError(f"format {self.fmt!r} must be json or text")


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
    """Used range re-based to (1, 1) for decomposition: the grid the
    vectors pass wrote."""
    return table.grid


def _to_sheet_coords(region: Region, rect: Rect) -> Region:
    r = region.rect
    return Region(
        Rect(
            r.left + rect.left - 1,
            r.top + rect.top - 1,
            r.right + rect.left - 1,
            r.bottom + rect.top - 1,
        ),
        region.fingerprint,
    )


def analyze_sheet(workbook: Workbook, sheet: Worksheet, config: Optional[AnalysisConfig] = None,
                  shapes: Optional[dict] = None) -> SheetAnalysis:
    """Analyse one sheet; `shapes` is the formula-shape dictionary of
    `analyze_sheet_vectors`, shared by the sheets of a workbook."""
    config = config or AnalysisConfig()
    if not sheet.cells:
        # Nothing on the sheet: empty table over a placeholder 1x1 range.
        table = SheetVectors(sheet.name, workbook.name, Rect(1, 1, 1, 1), {},
                             FingerprintGrid([[EMPTY_FINGERPRINT]]), {})
        return SheetAnalysis(sheet.name, table, [], [], 0, dict.fromkeys(PHASES[1:], 0.0))
    used = sheet.used_range()
    if used.area > MAX_USED_CELLS:
        raise FormatError(
            f"sheet {sheet.name!r}: used range {used.a1()} spans {used.area} cells, "
            f"more than the {MAX_USED_CELLS} analysed"
        )
    timings = {}
    t0 = time.perf_counter()
    table = analyze_sheet_vectors(workbook, sheet, shapes)
    timings["vectors"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = grid_from_table(table)
    local = decompose_grid(grid, preprocess=config.preprocess)
    regions = [_to_sheet_coords(r, table.rect) for r in local]
    timings["decomposition"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    fixes = build_fixes(table, regions, table.rect.area, config.threshold)
    timings["fixes"] = time.perf_counter() - t0
    return SheetAnalysis(sheet.name, table, regions, fixes, table.rect.area, timings)


def analyze_workbook(workbook: Workbook, config: Optional[AnalysisConfig] = None,
                     parse_seconds: float = 0.0) -> WorkbookAnalysis:
    config = config or AnalysisConfig()
    shapes: dict = {}
    sheets = [analyze_sheet(workbook, sheet, config, shapes) for sheet in workbook.sheets]
    timings = {"parse": parse_seconds}
    for phase in PHASES[1:]:
        timings[phase] = sum(s.timings.get(phase, 0.0) for s in sheets)
    return WorkbookAnalysis(workbook.name, sheets, timings)


def audit_payload(analysis: WorkbookAnalysis, threshold: float) -> dict:
    per_sheet = [
        audit_sheet_payload(s.name, s.fixes, threshold, s.cells) for s in analysis.sheets
    ]
    return audit_workbook_payload(analysis.name, threshold, per_sheet)
