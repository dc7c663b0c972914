"""Whole-workbook analysis orchestration."""

from __future__ import annotations

import gc
import json
import math
from dataclasses import fields

import pytest

from conftest import inconsistent_sum_workbook
from gridlint import cli, pipeline, vectors
from gridlint.cli import build_parser
from gridlint.entropy import Region
from gridlint.grid import FingerprintGrid
from gridlint.model import (
    CellContent, FormatError, Rect, Workbook, Worksheet, load_workbook, parse_a1, parse_workbook_json,
)
from gridlint.report import audit_json
from gridlint.pipeline import (
    AnalysisConfig,
    analyze_sheet,
    analyze_workbook,
    audit_payload,
    grid_from_table,
)
from gridlint.vectors import (
    DATA_KINDS,
    EMPTY_FINGERPRINT,
    MAX_USED_CELLS,
    NUMBER_FINGERPRINT,
    TEXT_FINGERPRINT,
    Fingerprint,
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
        assert set(analysis.timings) == {"vectors", "decomposition", "fixes"}
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


def term(area: int, cells: int) -> float:
    """A region's share p of the sheet's cells times log2(p)."""
    p = area / cells
    return p * math.log2(p)


class TestCancellingFixture:
    """fixtures/cancelling.gridbook: formulas whose reference vectors
    cancel take the reserved fingerprint, so none tiles with data."""

    CANCELLING = {"Readings": ["C5", "E4"], "Run": ["B6", "C6"], "Pairs": ["A2", "B2"]}

    def test_report(self, fixtures_dir):
        analysis = analyze_workbook(load_workbook(fixtures_dir / "cancelling.gridbook"))
        # Readings: C5 =(B5+D5)/2 and E4 =100*12 are one-cell formula
        # regions among numbers, so C2 rejects every candidate they are in.
        # Run: row 6 of the copied run B2:C9 sums the cells above and below
        # (=B5+B7, =C5+C7), beside the blank D6.  Its areas are 4, 8, 8, 4,
        # 2, 1, 6, 3 of 36.  B6:C6 following B2:C5 merges into B2:C6 and then
        # B2:C9, so areas 8, 2 and 6 give way to 16; its location sums move
        # from (4, 12) and (6, 12) to A6's (1, 6) and B6's (2, 6).  Following
        # the smaller B7:C9 scores less, and the budget of ceil(0.05 * 36) = 2
        # cells is spent.
        # Pairs: A2 =A1+A3 beside B2 =B1+B3+1, areas 2, 2, 1, 1 of 6.  A2
        # following B2 makes A2:B2 and still reads A1 and A3; the tie with
        # B2 following A2 goes to the earlier source, in a budget of 1 cell.
        run_delta = (term(8, 36) + term(2, 36) + term(6, 36) - term(16, 36)) / math.log2(36)
        run_distance = math.hypot(3, 6) + math.hypot(4, 6)
        pairs_delta = (2 * term(1, 6) - term(2, 6)) / math.log2(6)

        def fix(score, delta, distance, source, target):
            return {"rank": 1, "score": pytest.approx(score, rel=1e-12),
                    "delta_entropy": pytest.approx(delta, rel=1e-12),
                    "distance": pytest.approx(distance, rel=1e-12), "source": source, "target": target}

        def sheet(name, cells, fixes):
            return {"sheet": name, "threshold": 0.05, "cells": cells, "fixes": fixes,
                    "message": f"{len(fixes)} proposed fixes" if fixes else "no errors found"}

        assert audit_payload(analysis, 0.05) == {"workbook": "cancelling", "threshold": 0.05, "sheets": [
            sheet("Readings", 40, []),
            sheet("Run", 36, [fix(8 / (-run_delta * run_distance), run_delta, run_distance, ["B6", "C6"], "B2:C5")]),
            sheet("Pairs", 6, [fix(1 / -pairs_delta, pairs_delta, 0.0, ["A2"], "B2")]),
        ]}

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_no_cancelling_formula_tiles_with_data(self, fixtures_dir, preprocess):
        workbook = load_workbook(fixtures_dir / "cancelling.gridbook")
        analysis = analyze_workbook(workbook, AnalysisConfig(preprocess=preprocess))
        for sheet in analysis.sheets:
            for a1 in self.CANCELLING[sheet.name]:
                cell = parse_a1(a1)
                assert sheet.table.fingerprint(*cell) in (Fingerprint(0, 0, 0, 2), Fingerprint(0, 0, 0, 3))
                (region,) = [r for r in sheet.regions if r.rect.contains(*cell)]
                assert region.fingerprint not in DATA_KINDS


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


def book_text(cells: dict) -> str:
    return json.dumps({"workbook": "w", "sheets": [{"name": "S", "cells": cells}]})


GOOD = book_text({"A1": {"n": 1}, "A2": {"n": 2}, "A3": {"f": "=A1+A2"}, "B3": {"f": "=SUM(A1:A2)"}})
MALFORMED = '{"workbook": "w", "sheets": ['
DUPLICATE = '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": 1}, "a1": {"n": 2}}}]}'
PAST_LIMIT = book_text({"A1": {"n": 1}, "C1048576": {"f": "=A1"}})


def entry_point_calls(tmp_path):
    """(name, call, the exception it raises or None) for the library
    entry points that `gridlint analyze` calls, for `cli.main`, and for
    a config the CLI refuses."""
    paths = {}
    for name, text in (("good", GOOD), ("malformed", MALFORMED), ("duplicate", DUPLICATE), ("past", PAST_LIMIT)):
        paths[name] = tmp_path / f"{name}.gridbook"
        paths[name].write_text(text)
    analysis = analyze_workbook(parse_workbook_json(GOOD))
    payload = audit_payload(analysis, 0.05)

    def main(name, code, *options):
        def call():
            assert cli.main(["analyze", str(paths[name]), "--out", str(tmp_path / "report.json"), *options]) == code
        return call

    return [
        ("config threshold 0", lambda: AnalysisConfig(threshold=0), FormatError),
        ("parse", lambda: parse_workbook_json(GOOD), None),
        ("parse malformed", lambda: parse_workbook_json(MALFORMED), FormatError),
        ("parse duplicate", lambda: parse_workbook_json(DUPLICATE), FormatError),
        ("load", lambda: load_workbook(str(paths["good"])), None),
        ("load malformed", lambda: load_workbook(str(paths["malformed"])), FormatError),
        ("analyze", lambda: analyze_workbook(parse_workbook_json(GOOD)), None),
        ("analyze past the limit", lambda: analyze_workbook(parse_workbook_json(PAST_LIMIT)), FormatError),
        ("payload", lambda: audit_payload(analysis, 0.05), None),
        ("json", lambda: audit_json(payload), None),
        ("json of no JSON value", lambda: audit_json({"x": object()}), TypeError),
        ("main", main("good", 0), None),
        ("main malformed", main("malformed", 2), None),
        ("main duplicate", main("duplicate", 2), None),
        ("main past the limit", main("past", 2), None),
        ("main threshold 0", main("good", 2, "--threshold", "0"), None),
    ]


class TestCollectorPause:
    """The load and the analysis pause the cyclic garbage collector while
    they run, and every entry point hands the caller back the state it
    had, after a raise too."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_entry_point_restores_the_callers_state(self, enabled, tmp_path, capsys):
        was = gc.isenabled()
        try:
            for name, call, raises in entry_point_calls(tmp_path):
                gc.enable() if enabled else gc.disable()
                if raises is None:
                    call()
                else:
                    with pytest.raises(raises):
                        call()
                assert gc.isenabled() is enabled, name
        finally:
            gc.enable() if was else gc.disable()

    def test_paused_while_the_analysis_runs_and_not_while_it_reports(self, monkeypatch):
        # The report steps leave the collector running, so a caller that
        # loops over workbooks still gets its full collections.
        seen = []

        def spy(name):
            original = getattr(pipeline, name)

            def recorded(*args):
                seen.append((name, gc.isenabled()))
                return original(*args)

            monkeypatch.setattr(pipeline, name, recorded)

        spy("analyze_sheet_vectors")
        spy("audit_workbook_payload")
        assert gc.isenabled()
        audit_json(audit_payload(analyze_workbook(parse_workbook_json(GOOD)), 0.05))
        assert seen == [("analyze_sheet_vectors", False), ("audit_workbook_payload", True)]
        assert gc.isenabled()

    def test_a_run_leaves_no_cycles(self, fixtures_dir):
        # Load, analyse and both report steps of every fixture, each
        # workbook collected on its own.  DEBUG_SAVEALL is turned off before
        # gc.garbage is cleared, so saved objects are not found twice.
        paths = sorted(fixtures_dir.glob("*.gridbook"))
        assert paths
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = {}
            for path in paths:
                analysis = analyze_workbook(load_workbook(str(path)))
                audit_json(audit_payload(analysis, 0.05))
                del analysis
                found[path.name] = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == dict.fromkeys(found, 0)
