"""gridlint: spreadsheet layout analyzer.

Finds likely formula errors by turning every cell into a reference
shape fingerprint, carving the sheet into minimum-entropy rectangles,
and ranking the small edits that would make the layout more regular.
"""

from .model import (
    CellContent,
    CellKind,
    Rect,
    Workbook,
    Worksheet,
    load_workbook,
    parse_a1,
    to_a1,
)
from .vectors import Fingerprint, LocFingerprint, analyze_sheet_vectors
from .grid import FingerprintGrid
from .entropy import Region, decompose_grid, entropy_tree, normalized_entropy
from .fixes import ProposedFix, build_fixes
from .pipeline import AnalysisConfig, SheetAnalysis, WorkbookAnalysis, analyze_workbook

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CellContent",
    "CellKind",
    "Fingerprint",
    "FingerprintGrid",
    "LocFingerprint",
    "ProposedFix",
    "Rect",
    "Region",
    "SheetAnalysis",
    "Workbook",
    "WorkbookAnalysis",
    "Worksheet",
    "analyze_sheet_vectors",
    "analyze_workbook",
    "build_fixes",
    "decompose_grid",
    "entropy_tree",
    "load_workbook",
    "normalized_entropy",
    "parse_a1",
    "to_a1",
    "__version__",
]
