"""Workbook model: addresses, rectangles, cells, JSON round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gridlint import model
from gridlint.model import (
    EMPTY_CELL,
    CellAddress,
    CellContent,
    CellKind,
    DuplicateCellError,
    EmptySheetError,
    FormatError,
    GridlintError,
    Rect,
    Worksheet,
    column_to_letters,
    letters_to_column,
    parse_a1,
    parse_workbook_json,
    serialize_workbook,
    to_a1,
)

from oracle import naive_parse_workbook_json


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


class TestColumnMemo:
    def test_holds_only_valid_upper_case_spellings(self):
        for letters in ["A", "xfd", "XFD", "XFE", "AAAAAAAA", "Ab", "ZZ"]:
            letters_to_column(letters)
        assert len(model._COLUMNS) <= 16_384
        assert all(column_to_letters(column) == letters and column <= 16_384
                   for letters, column in model._COLUMNS.items())
        assert {"A", "XFD", "ZZ"} <= set(model._COLUMNS)
        assert not {"xfd", "XFE", "AAAAAAAA", "Ab"} & set(model._COLUMNS)

    def test_memoised_and_computed_columns_agree(self):
        for column in (1, 26, 27, 702, 16_384, 16_385, 10**6):
            letters = column_to_letters(column)
            assert letters_to_column(letters) == letters_to_column(letters) == column
            assert letters_to_column(letters.lower()) == column


class TestCellsOffTheSheet:
    @pytest.mark.parametrize("address", ["XFE1", "xfe1", "AAAA7", "A0"])
    def test_refused(self, address):
        with pytest.raises(FormatError, match="outside the sheet"):
            parse_a1(address)
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {address: {"n": 1}}}]}
        with pytest.raises(FormatError, match="outside the sheet"):
            parse_workbook_json(json.dumps(doc))

    def test_last_column_and_rows_past_the_last_are_read(self):
        assert parse_a1("XFD1") == (16_384, 1)
        assert parse_a1("A1048577") == (1, 1_048_577)


class TestDuplicateKeys:
    def test_in_cells_names_source_sheet_and_address(self):
        text = '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": 1}, "B1": {"n": 3}, "B1": {"n": 2}}}]}'
        with pytest.raises(DuplicateCellError) as info:
            parse_workbook_json(text, source="book.json")
        assert str(info.value) == "book.json: sheet 'S': duplicate cell address 'B1'"

    @pytest.mark.parametrize("text, key", [
        ('{"workbook": "w", "workbook": "x", "sheets": []}', "workbook"),
        ('{"workbook": "w", "sheets": [{"name": "S", "name": "T", "cells": {}}]}', "name"),
        ('{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": 1, "n": 2}}}]}', "n"),
        ('{"workbook": "w", "sheets": [], "x": {"A1": 1, "A1": 2}}', "A1"),
    ])
    def test_elsewhere_names_source_and_key(self, text, key):
        with pytest.raises(FormatError) as info:
            parse_workbook_json(text, source="book.json")
        assert type(info.value) is FormatError
        assert str(info.value) == f"book.json: duplicate key {key!r}"

    def test_first_object_to_close_is_named(self):
        text = ('{"workbook": "w", "workbook": "w", "sheets": [{"name": "S", '
                '"cells": {"A1": {"s": "a", "s": "b"}, "A1": {"n": 1}}}]}')
        with pytest.raises(FormatError, match="duplicate key 's'"):
            parse_workbook_json(text, source="book.json")


class TestOneKeyCells:
    def test_contents_are_named_tuples(self):
        wb = parse_workbook_json(json.dumps(SAMPLE))
        cell = wb.sheet("Totals").cells[(1, 1)]
        assert cell == CellContent(CellKind.NUMBER, 3) and isinstance(cell, tuple)
        assert cell._replace(value=4).value == 4

    def test_boolean_number_reads_as_an_integer(self):
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": True}, "A2": {"n": False}}}]}
        cells = parse_workbook_json(json.dumps(doc)).sheet("S").cells
        assert [(type(c.value), c.value) for c in cells.values()] == [(int, 1), (int, 0)]

    @pytest.mark.parametrize("cells, message", [
        ({"n": 1}, "invalid cell address: 'n'"),
        ({"f": "=A1"}, "invalid cell address: 'f'"),
        ({"s": " "}, "invalid cell address: 's'"),
    ])
    def test_cell_object_in_place_of_the_cells(self, cells, message):
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": cells}]}
        with pytest.raises(FormatError) as info:
            parse_workbook_json(json.dumps(doc))
        assert str(info.value) == message


# -- the loader against the oracle's ------------------------------------------


class Obj:
    """A JSON object as written: its pairs in order, repeats allowed."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __repr__(self):
        return f"Obj({self.pairs!r})"


def dump(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value.pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


ADDRESSES = ["A1", "B2", "b2", "B02", "a1", "C3", "XFD1", "XFE1", "A0", "A", "1A", "AB10", "ab10", "A1\n"]
scalars = st.one_of(
    st.booleans(), st.integers(-5, 5), st.floats(allow_nan=True, allow_infinity=True), st.none(),
    st.sampled_from(["=A1", "=SUM(", "A1", "", "  ", "\t\n", "x", " y "]),
)


@st.composite
def payloads(draw):
    """A cell object, mostly a well-formed one-key cell, or something else
    that may stand where one belongs."""
    kind = draw(st.sampled_from(["cell"] * 6 + ["one", "extra", "empty", "scalar", "list", "nested"]))
    if kind == "cell":
        return draw(st.sampled_from([
            Obj([("f", "=A1+1")]), Obj([("n", 2.5)]), Obj([("n", 7)]), Obj([("s", "label")]),
            Obj([("n", True)]), Obj([("s", " \t")]), Obj([("n", float("nan"))]),
        ]))
    if kind == "one":
        return Obj([(draw(st.sampled_from("fns")), draw(scalars))])
    if kind == "extra":
        keys = draw(st.lists(st.sampled_from(["f", "n", "s", "q", "F"]), min_size=2, max_size=3,
                             unique=draw(st.integers(0, 3)) > 0))
        return Obj([(k, draw(scalars)) for k in keys])
    if kind == "empty":
        return Obj([])
    if kind == "nested":
        return Obj([(draw(st.sampled_from("fns")), Obj([("n", 1)]))])
    return [draw(scalars)] if kind == "list" else draw(scalars)


def one_in(draw, n: int) -> bool:
    # Drawn away from the ends of the range, which hypothesis favours.
    return 400 <= draw(st.integers(0, 999)) < 400 + 1000 // n


@st.composite
def documents(draw):
    """Workbook JSON, mostly well-formed, with a malformation here and there."""
    sheets = []
    for name in draw(st.lists(st.sampled_from(["S", "T", "Sheet 3"]), min_size=1, max_size=3,
                              unique=not one_in(draw, 8))):
        addresses = st.sampled_from(ADDRESSES if one_in(draw, 3) else ["A1", "B2", "C3", "AB10", "B1", "A2"])
        cells = Obj(draw(st.lists(st.tuples(addresses, payloads()), min_size=1, max_size=6,
                                    unique_by=None if one_in(draw, 8) else (lambda t: t[0]))))
        if one_in(draw, 12):
            cells = draw(payloads())
        sheets.append(Obj([("name", "" if one_in(draw, 20) else name), ("cells", cells)]))
    pairs = [("workbook", draw(st.sampled_from(["", 3])) if one_in(draw, 20) else "w"), ("sheets", sheets)]
    if one_in(draw, 12):
        pairs.insert(draw(st.integers(0, 2)), (draw(st.sampled_from(["workbook", "sheets", "x"])), "w"))
    return dump(draw(payloads()) if one_in(draw, 20) else Obj(pairs))


def loaded(parse, text):
    """The workbook as comparable values (NaN equal to itself, 1 unequal
    to 1.0), or the error's class and message."""
    try:
        wb = parse(text, source="book.json")
    except GridlintError as exc:
        return type(exc), str(exc)
    return wb.name, [(ws.name, [(cell, c.kind, type(c.value), repr(c.value)) for cell, c in ws.cells.items()])
                     for ws in wb.sheets]


class TestLoaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_same_workbook_or_same_error(self, text):
        assert loaded(parse_workbook_json, text) == loaded(naive_parse_workbook_json, text)

    @pytest.mark.parametrize("text", [
        json.dumps(SAMPLE),
        '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": NaN}, "B1": {"n": -Infinity}}}]}',
        '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"s": "  "}, "a1": {"n": 1}}}]}',
        '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A01": {"n": 1}, "a1": {"n": 1}}}]}',
        '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"f": "A1"}}}]}',
        '{"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"f": "=1", "f": "=2"}}}]}',
        '{"n": 1}',
        '[{"n": 1}]',
    ])
    def test_hand_cases(self, text):
        assert loaded(parse_workbook_json, text) == loaded(naive_parse_workbook_json, text)
