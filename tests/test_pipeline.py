"""Whole-workbook analysis orchestration."""

from __future__ import annotations

from dataclasses import fields

import pytest

from conftest import inconsistent_sum_workbook
from gridlint import vectors
from gridlint.cli import build_parser
from gridlint.entropy import Region
from gridlint.grid import FingerprintGrid
from gridlint.model import CellContent, FormatError, Rect, Workbook, Worksheet, load_workbook
from gridlint.pipeline import (
    PHASES,
    AnalysisConfig,
    analyze_sheet,
    analyze_workbook,
    audit_payload,
    grid_from_table,
)
from gridlint.vectors import (
    EMPTY_FINGERPRINT,
    MAX_USED_CELLS,
    NUMBER_FINGERPRINT,
    TEXT_FINGERPRINT,
    analyze_sheet_vectors,
)


class TestAnalysisConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.threshold == 0.05
        assert config.preprocess is True
        assert [f.name for f in fields(AnalysisConfig)] == ["threshold", "preprocess"]

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5])
    def test_threshold_range(self, threshold):
        with pytest.raises(ValueError):
            AnalysisConfig(threshold=threshold)

    def test_threshold_of_one_allowed(self):
        assert AnalysisConfig(threshold=1.0).threshold == 1.0

    def test_format_names(self, capsys):
        # The report format is the CLI's to check, not the analysis's.
        parser = build_parser()
        assert parser.parse_args(["analyze", "w", "--format", "text"]).format == "text"
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["analyze", "w", "--format", "xml"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err


class TestGridFromTable:
    def test_grid_sits_at_the_used_range(self):
        workbook = inconsistent_sum_workbook()
        table = analyze_sheet_vectors(workbook, workbook.sheets[0])
        grid = grid_from_table(table)
        assert grid.full_rect() == table.rect == Rect(2, 6, 6, 11)
        assert grid.fingerprint_at(2, 6) == NUMBER_FINGERPRINT  # B6
        assert grid.fingerprint_at(6, 6) == table.fingerprint(6, 6)  # F6
        assert grid.fingerprint_at(6, 7) == table.fingerprint(6, 7)  # F7

    def test_holes_are_empty_cells(self):
        sheet = Worksheet("S", {(2, 3): CellContent.number(1.0), (4, 4): CellContent.text("x")})
        table = analyze_sheet_vectors(Workbook("w", [sheet]), sheet)
        grid = grid_from_table(table)
        assert grid.palette == (NUMBER_FINGERPRINT, EMPTY_FINGERPRINT, TEXT_FINGERPRINT)
        assert grid.code_rows == [[0, 1, 1], [1, 1, 2]]


class TestAnalyzeSheet:
    def test_fixture_sheet(self):
        workbook = inconsistent_sum_workbook()
        analysis = analyze_sheet(workbook, workbook.sheets[0])
        assert analysis.name == "Totals"
        assert analysis.cells == 30
        assert len(analysis.regions) == 3
        assert sorted(r.rect for r in analysis.regions) == [
            Rect(2, 6, 5, 11),
            Rect(6, 6, 6, 6),
            Rect(6, 7, 6, 11),
        ]
        assert len(analysis.fixes) == 1
        assert analysis.fixes[0].source_cells == ((6, 6),)
        assert set(analysis.timings) == {"vectors", "decomposition", "fixes"}
        assert all(t >= 0 for t in analysis.timings.values())

    def test_regions_use_sheet_coordinates(self):
        workbook = inconsistent_sum_workbook()
        analysis = analyze_sheet(workbook, workbook.sheets[0])
        for region in analysis.regions:
            assert region.rect.left >= 2
            assert region.rect.top >= 6

    def test_empty_sheet(self):
        workbook = Workbook("w", [Worksheet("Empty", {})])
        analysis = analyze_sheet(workbook, workbook.sheets[0])
        assert analysis.regions == []
        assert analysis.fixes == []
        assert analysis.cells == 0

    def test_single_cell_sheet(self):
        workbook = Workbook("w", [Worksheet("One", {(3, 3): CellContent.number(5.0)})])
        analysis = analyze_sheet(workbook, workbook.sheets[0])
        assert analysis.cells == 1
        assert analysis.regions == [Region(Rect(3, 3, 3, 3), NUMBER_FINGERPRINT)]
        assert analysis.fixes == []


class TestRangesInClosedForm:
    def test_million_row_sum_is_analysed_without_expansion(self):
        sheet = Worksheet("S", {(3, 1): CellContent.formula("=SUM(B1:B1100000)")})
        workbook = Workbook("w", [sheet])
        analysis = analyze_workbook(workbook)
        (sheet_analysis,) = analysis.sheets
        assert sheet_analysis.table.fingerprint(3, 1) == (-1100000, 604999450000, 0, 0)
        assert sheet_analysis.table.diagnostics == []
        assert sheet_analysis.fixes == []


class TestAnalyzeWorkbook:
    def test_phases_and_totals(self):
        workbook = inconsistent_sum_workbook()
        analysis = analyze_workbook(workbook)
        assert analysis.name == "inconsistent_sum"
        assert set(analysis.timings) == set(PHASES)
        assert analysis.total_regions() == 3
        assert analysis.total_fixes() == 1

    def test_multiple_sheets(self):
        base = inconsistent_sum_workbook()
        workbook = Workbook(
            "multi",
            [base.sheets[0], Worksheet("Empty", {}),
             Worksheet("One", {(1, 1): CellContent.number(1.0)})],
        )
        analysis = analyze_workbook(workbook)
        assert [s.name for s in analysis.sheets] == ["Totals", "Empty", "One"]
        assert analysis.total_fixes() == 1
        assert analysis.total_regions() == 4

    def test_parse_seconds_carried_through(self):
        analysis = analyze_workbook(inconsistent_sum_workbook(), parse_seconds=1.25)
        assert analysis.timings["parse"] == 1.25

    def test_fixtures_make_no_counts_in_call(self, fixtures_dir, monkeypatch):
        # The tree and the delimiter preprocessing count their own strips.
        calls = []
        counts_in = FingerprintGrid.counts_in

        def counting(self, rect):
            calls.append(rect)
            return counts_in(self, rect)

        monkeypatch.setattr(FingerprintGrid, "counts_in", counting)
        for path in sorted(fixtures_dir.glob("*.gridbook")):
            for preprocess in (True, False):
                analyze_workbook(load_workbook(path), AnalysisConfig(preprocess=preprocess))
        assert calls == []


class TestTwoTablesFixture:
    """Two stacked tables split by a blank row, one bad aggregate."""

    def analysis(self, fixtures_dir, preprocess=True):
        workbook = load_workbook(fixtures_dir / "two_tables.gridbook")
        return analyze_workbook(workbook, AnalysisConfig(preprocess=preprocess))

    def test_region_layout(self, fixtures_dir):
        sheet = self.analysis(fixtures_dir).sheets[0]
        assert sheet.cells == 52
        assert sorted(r.rect for r in sheet.regions) == [
            Rect(1, 1, 3, 6),
            Rect(1, 7, 4, 7),
            Rect(1, 8, 3, 13),
            Rect(4, 1, 4, 6),
            Rect(4, 8, 4, 9),
            Rect(4, 10, 4, 10),
            Rect(4, 11, 4, 13),
        ]

    def test_ranked_fixes(self, fixtures_dir):
        sheet = self.analysis(fixtures_dir).sheets[0]
        assert [(f.source_cells, f.target) for f in sheet.fixes] == [
            (((4, 10),), Rect(4, 11, 4, 13)),
            (((4, 8), (4, 9)), Rect(4, 10, 4, 10)),
        ]
        assert sheet.fixes[0].score == pytest.approx(9.729020911905135, rel=1e-12)
        assert sheet.fixes[1].score == pytest.approx(5.967493456507592, rel=1e-12)

    def test_preprocessing_invariant_here(self, fixtures_dir):
        with_pre = self.analysis(fixtures_dir, preprocess=True).sheets[0]
        without = self.analysis(fixtures_dir, preprocess=False).sheets[0]
        assert sorted(with_pre.regions) == sorted(without.regions)
        assert with_pre.fixes == without.fixes


class TestUsedRangeLimit:
    def test_limit_covers_every_bundled_sheet(self, fixtures_dir):
        # 200 x 200 is the largest sheet of the benchmark workloads.
        assert MAX_USED_CELLS >= 200 * 200
        for path in fixtures_dir.glob("*.gridbook"):
            for sheet in load_workbook(path).sheets:
                assert sheet.used_range().area <= MAX_USED_CELLS

    def test_checked_before_analysis(self, monkeypatch):
        monkeypatch.setattr(vectors, "MAX_USED_CELLS", 12)
        at_limit = Worksheet("S", {(1, 1): CellContent.number(1.0), (3, 4): CellContent.formula("=A1")})
        assert analyze_sheet(Workbook("w", [at_limit]), at_limit).cells == 12
        past = Worksheet("S", {(1, 1): CellContent.number(1.0), (3, 5): CellContent.formula("=A1")})

        def unreachable(*args):
            raise AssertionError("the limit must be checked before any formula is read")

        monkeypatch.setattr(vectors, "shape_key", unreachable)
        monkeypatch.setattr(vectors, "parse_formula", unreachable)
        with pytest.raises(FormatError, match="A1:C5 spans 15 cells"):
            analyze_sheet(Workbook("w", [past]), past)


class TestAuditPayload:
    def test_schema(self):
        analysis = analyze_workbook(inconsistent_sum_workbook())
        payload = audit_payload(analysis, 0.05)
        assert payload["workbook"] == "inconsistent_sum"
        assert payload["threshold"] == 0.05
        (sheet,) = payload["sheets"]
        assert sheet["sheet"] == "Totals"
        assert sheet["cells"] == 30
        assert sheet["message"] == "1 proposed fixes"
        (entry,) = sheet["fixes"]
        assert entry["source"] == ["F6"]
        assert entry["target"] == "F7:F11"

    def test_empty_sheet_payload(self):
        workbook = Workbook("w", [Worksheet("Empty", {})])
        payload = audit_payload(analyze_workbook(workbook), 0.05)
        assert payload["sheets"][0]["cells"] == 0
        assert payload["sheets"][0]["message"] == "no errors found"
