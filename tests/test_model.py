"""Workbook model: addresses, rectangles, cells, JSON round-trips."""

import json

import pytest
from hypothesis import given, strategies as st

from gridlint.model import (
    EMPTY_CELL,
    CellAddress,
    CellContent,
    CellKind,
    DuplicateCellError,
    EmptySheetError,
    FormatError,
    Rect,
    Worksheet,
    column_to_letters,
    letters_to_column,
    parse_a1,
    parse_workbook_json,
    serialize_workbook,
    to_a1,
)


class TestColumnLetters:
    def test_known_values(self):
        assert column_to_letters(1) == "A"
        assert column_to_letters(26) == "Z"
        assert column_to_letters(27) == "AA"
        assert column_to_letters(52) == "AZ"
        assert column_to_letters(53) == "BA"
        assert column_to_letters(702) == "ZZ"
        assert column_to_letters(703) == "AAA"

    def test_inverse_known(self):
        assert letters_to_column("A") == 1
        assert letters_to_column("z") == 26
        assert letters_to_column("aa") == 27

    @given(st.integers(min_value=1, max_value=200_000))
    def test_round_trip(self, column):
        assert letters_to_column(column_to_letters(column)) == column

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            column_to_letters(0)
        with pytest.raises(ValueError):
            letters_to_column("")
        with pytest.raises(ValueError):
            letters_to_column("A1")


class TestA1:
    def test_parse(self):
        assert parse_a1("F6") == (6, 6)
        assert parse_a1("AA10") == (27, 10)
        assert parse_a1("a1") == (1, 1)

    def test_to_a1(self):
        assert to_a1(6, 6) == "F6"
        assert to_a1(27, 10) == "AA10"

    @given(st.integers(1, 1000), st.integers(1, 1000))
    def test_round_trip(self, column, row):
        assert parse_a1(to_a1(column, row)) == (column, row)

    @pytest.mark.parametrize("bad", ["", "6F", "A0", "A-1", "A1B", "$A$1", "A 1"])
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_a1(bad)


class TestRect:
    def test_bounding_box_of_two_cells(self):
        # cells at A1 and C3
        r = Rect(
            min(1, 3), min(1, 3), max(1, 3), max(1, 3)
        )
        assert r == Rect(1, 1, 3, 3)
        assert r.area == 9

    def test_dimensions(self):
        r = Rect(2, 6, 6, 11)
        assert (r.width, r.height, r.area) == (5, 6, 30)

    def test_contains(self):
        r = Rect(2, 3, 4, 5)
        assert r.contains(2, 3) and r.contains(4, 5) and r.contains(3, 4)
        assert not r.contains(1, 3) and not r.contains(2, 6)

    def test_cells_row_major(self):
        assert list(Rect(1, 1, 2, 2).cells()) == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_a1_names(self):
        assert Rect(6, 6, 6, 6).a1() == "F6"
        assert Rect(6, 7, 6, 11).a1() == "F7:F11"

    @pytest.mark.parametrize("bad", [(2, 1, 1, 1), (1, 2, 1, 1), (0, 1, 1, 1)])
    def test_degenerate_rejected(self, bad):
        with pytest.raises(ValueError):
            Rect(*bad)


class TestCellContent:
    def test_formula(self):
        c = CellContent.formula("=SUM(A1:A2)")
        assert c.kind is CellKind.FORMULA and c.value == "=SUM(A1:A2)"

    def test_formula_requires_equals(self):
        with pytest.raises(FormatError):
            CellContent.formula("SUM(A1)")

    def test_number(self):
        assert CellContent.number(3.5).value == 3.5
        assert CellContent.number(True).value == 1.0

    def test_text(self):
        assert CellContent.text("label").kind is CellKind.TEXT

    def test_empty(self):
        assert EMPTY_CELL.kind is CellKind.EMPTY


class TestWorksheet:
    def test_used_range(self):
        ws = Worksheet("S", {(2, 6): CellContent.number(1.0), (6, 11): CellContent.number(2.0)})
        assert ws.used_range() == Rect(2, 6, 6, 11)

    def test_empty_sheet_raises(self):
        with pytest.raises(EmptySheetError):
            Worksheet("S", {}).used_range()


SAMPLE = {
    "workbook": "demo",
    "sheets": [
        {
            "name": "Totals",
            "cells": {
                "A1": {"n": 3},
                "B1": {"s": "label"},
                "C2": {"f": "=A1+1"},
            },
        }
    ],
}


class TestJsonFormat:
    def test_load_kinds(self):
        wb = parse_workbook_json(json.dumps(SAMPLE))
        ws = wb.sheet("Totals")
        assert ws.cells[(1, 1)].kind is CellKind.NUMBER
        assert ws.cells[(2, 1)].kind is CellKind.TEXT
        assert ws.cells[(3, 2)].kind is CellKind.FORMULA

    def test_round_trip(self):
        wb = parse_workbook_json(json.dumps(SAMPLE))
        assert parse_workbook_json(serialize_workbook(wb)) == wb

    def test_serialize_is_stable(self):
        wb = parse_workbook_json(json.dumps(SAMPLE))
        assert serialize_workbook(wb) == serialize_workbook(wb)

    def test_whitespace_only_text_dropped(self):
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"s": "   "}, "B1": {"n": 1}}}]}
        wb = parse_workbook_json(json.dumps(doc))
        assert (1, 1) not in wb.sheet("S").cells

    def test_duplicate_cell_rejected(self):
        text = (
            '{"workbook": "w", "sheets": [{"name": "S", '
            '"cells": {"A1": {"n": 1}, "A1": {"n": 2}}}]}'
        )
        with pytest.raises(DuplicateCellError):
            parse_workbook_json(text)

    def test_case_duplicate_cell_rejected(self):
        text = (
            '{"workbook": "w", "sheets": [{"name": "S", '
            '"cells": {"A1": {"n": 1}, "a1": {"n": 2}}}]}'
        )
        with pytest.raises(DuplicateCellError):
            parse_workbook_json(text)

    @pytest.mark.parametrize(
        "cell",
        [
            {"n": 1, "s": "x"},
            {"f": "=1", "n": 2},
            {},
            {"q": 1},
            {"f": "A1"},
            {"n": "three"},
        ],
    )
    def test_bad_cell_payloads(self, cell):
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": cell}}]}
        with pytest.raises(FormatError):
            parse_workbook_json(json.dumps(doc))

    def test_duplicate_sheet_names_rejected(self):
        doc = {
            "workbook": "w",
            "sheets": [{"name": "S", "cells": {}}, {"name": "S", "cells": {}}],
        }
        with pytest.raises(FormatError):
            parse_workbook_json(json.dumps(doc))


class TestCellAddress:
    def test_a1_rendering(self):
        assert CellAddress(6, 6, "S", "wb").a1() == "F6"

    def test_ordering_is_by_position(self):
        a = CellAddress(1, 2, "S", "wb")
        b = CellAddress(2, 1, "S", "wb")
        assert min(a, b) in (a, b)
