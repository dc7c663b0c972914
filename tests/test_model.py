"""Workbook model: addresses, rectangles, cells, JSON round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gridlint import model
from gridlint.model import (
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

from oracle import CellAddress, naive_parse_a1, naive_parse_workbook_json


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

    @pytest.mark.parametrize("parse", [parse_a1, naive_parse_a1])
    @pytest.mark.parametrize("bad", ["A1\n", "B2\n", "A1\n\n", "\nA1"])
    def test_rejects_a_newline(self, parse, bad):
        # "$" in a regular expression also matches before a final newline.
        with pytest.raises(FormatError, match="invalid cell address"):
            parse(bad)


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

    @pytest.mark.parametrize("bad", [(2, 1, 1, 1), (1, 2, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 0, 0, 0)])
    def test_degenerate_rejected(self, bad):
        with pytest.raises(ValueError):
            Rect(*bad)

    def test_immutable(self):
        r = Rect(2, 3, 4, 5)
        with pytest.raises(AttributeError):
            r.left = 1
        with pytest.raises(TypeError):
            r[0] = 1
        with pytest.raises(AttributeError):
            r.extra = 1

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=12))
    def test_hashes_and_orders_as_its_corners(self, shapes):
        corners = [(left, top, left + w, top + h) for left, top, w, h in shapes]
        rects = [Rect(*c) for c in corners]
        for rect, c in zip(rects, corners):
            assert rect == c and hash(rect) == hash(c) and tuple(rect) == c
        assert sorted(rects) == sorted(corners)
        assert set(rects) == set(corners)
        assert {rect: i for i, rect in enumerate(rects)} == {c: i for i, c in enumerate(corners)}
        assert all((a < b) == (ca < cb) for a, ca in zip(rects, corners) for b, cb in zip(rects, corners))


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
        empty = CellContent(CellKind.EMPTY)
        assert empty.kind is CellKind.EMPTY and empty.value is None


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
        [ws] = wb.sheets
        assert ws.name == "Totals"
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
        assert (1, 1) not in wb.sheets[0].cells

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
        cell = wb.sheets[0].cells[(1, 1)]
        assert cell == CellContent(CellKind.NUMBER, 3) and isinstance(cell, tuple)
        assert cell._replace(value=4).value == 4

    def test_boolean_number_reads_as_an_integer(self):
        doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": True}, "A2": {"n": False}}}]}
        cells = parse_workbook_json(json.dumps(doc)).sheets[0].cells
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


# -- a sheet's cells in row-major order ---------------------------------------

_ROW_MAJOR_KEY = lambda cell: (cell[1], cell[0])  # noqa: E731
_CONTENTS = [{"n": 1}, {"n": 2.5}, {"s": "x"}, {"s": " "}, {"f": "=A1+1"}, {"f": "=SUM(A1:B2)"},
             {"f": "=$A$1*2"}, {"f": "=SUM(B$1:B3)"}, {"f": "=Other!A1"}, {"f": "=SUM("}, {"f": "=A0"}]


@st.composite
def stored_sheets(draw):
    """A sheet's cells as (column, row) -> .gridbook payload: one cell, one
    row, one column, none, or scattered.  Some payloads are whitespace
    text, which the loader drops, and some formulas do not parse."""
    shape = draw(st.sampled_from(["cell", "row", "column", "empty", "any", "any"]))
    if shape == "empty":
        return {}
    column, row = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if shape == "cell":
        addresses = [(column, row)]
    elif shape == "row":
        addresses = [(c, row) for c in draw(st.sets(st.integers(1, 12), min_size=1))]
    elif shape == "column":
        addresses = [(column, r) for r in draw(st.sets(st.integers(1, 12), min_size=1))]
    else:
        addresses = draw(st.sets(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=30))
    return {address: draw(st.sampled_from(_CONTENTS)) for address in addresses}


def gridbook(items) -> str:
    return json.dumps({"workbook": "wb", "sheets": [{"name": "S", "cells": {to_a1(*a): p for a, p in items}}]})


def table_values(sheet: Worksheet):
    """What the vectors pass gives a sheet, as comparable values, in order."""
    from gridlint.vectors import analyze_sheet_vectors

    table = analyze_sheet_vectors(model.Workbook("wb", [sheet]), sheet)
    return table.grid.code_rows, table.grid.palette, list(table.refs.items()), table.diagnostics


class TestRowMajorRecord:
    """`in_row_major_order` gives a sheet's addresses in row-major order and
    its used range, as the sort and the bounds scan do, whether its cells
    are stored in that order (one pass) or in any other (sorted)."""

    @staticmethod
    def assert_sorted_and_scanned(sheet: Worksheet) -> None:
        stored = list(sheet.cells)
        columns, rows = [a[0] for a in stored], [a[1] for a in stored]
        oracle = Rect(min(columns), min(rows), max(columns), max(rows))
        assert sheet.used_range() == oracle
        addresses, rect = sheet.in_row_major_order()
        assert (list(addresses), rect) == (sorted(stored, key=_ROW_MAJOR_KEY), oracle)

    @settings(max_examples=200, deadline=None)
    @given(stored_sheets(), st.randoms(use_true_random=False))
    def test_shuffled_addresses_give_the_row_major_table(self, payloads, rnd):
        in_order = sorted(payloads.items(), key=lambda item: _ROW_MAJOR_KEY(item[0]))
        shuffled = list(in_order)
        rnd.shuffle(shuffled)
        ordered_sheet = parse_workbook_json(gridbook(in_order)).sheets[0]
        shuffled_sheet = parse_workbook_json(gridbook(shuffled)).sheets[0]
        stored = [a for a, p in shuffled if "s" not in p or p["s"].strip()]
        hand_sheet = Worksheet("S", {a: ordered_sheet.cells[a] for a in stored})
        sheets = (ordered_sheet, shuffled_sheet, hand_sheet)
        assert ordered_sheet.cells == shuffled_sheet.cells == hand_sheet.cells
        if not stored:
            for sheet in sheets:
                with pytest.raises(EmptySheetError):
                    sheet.used_range()
                with pytest.raises(EmptySheetError):
                    sheet.in_row_major_order()
            return
        for sheet in sheets:
            self.assert_sorted_and_scanned(sheet)
        assert table_values(ordered_sheet) == table_values(shuffled_sheet) == table_values(hand_sheet)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 16_384, 16_385, 16_390, 40_000]), st.integers(1, 4)),
                    min_size=1, max_size=12, unique=True), st.booleans())
    def test_hand_built_sheets_past_the_last_column(self, addresses, in_order):
        # A hand-built sheet may hold columns past XFD, which the loader
        # refuses; there a rank row * (XFD + 1) + column no longer orders
        # addresses row first.
        if in_order:
            addresses.sort(key=_ROW_MAJOR_KEY)
        self.assert_sorted_and_scanned(Worksheet("S", dict.fromkeys(addresses, CellContent.number(1.0))))

    def test_hand_built_sheet_in_row_major_order(self):
        n = CellContent.number(1.0)
        sheet = Worksheet("S", {(3, 2): n, (5, 2): n, (2, 4): n, (6, 4): n, (4, 7): n})
        assert sheet.in_row_major_order() == ([(3, 2), (5, 2), (2, 4), (6, 4), (4, 7)], Rect(2, 2, 6, 7))
        assert table_values(sheet) == table_values(Worksheet("S", dict(reversed(sheet.cells.items()))))

    def test_empty_sheet(self):
        with pytest.raises(EmptySheetError):
            Worksheet("S", {}).in_row_major_order()

    def test_a_far_column_does_not_pass_for_row_major(self):
        # As ranks row * 16,385 + column these ascend: 32,771 < 32,775.
        n = CellContent.number(1.0)
        sheet = Worksheet("S", {(1, 2): n, (16_390, 1): n})
        assert sheet.in_row_major_order() == ([(16_390, 1), (1, 2)], Rect(1, 1, 16_390, 2))

    def test_a_changed_sheet_is_sorted_and_scanned_again(self):
        # A1, C1, A2 in row-major order; then C1 goes and B2 comes: the
        # cells stay in row-major order and as many, but span A1:B2.
        sheet = parse_workbook_json(gridbook([((1, 1), {"n": 1}), ((3, 1), {"n": 1}), ((1, 2), {"n": 1})])).sheets[0]
        assert sheet.in_row_major_order() == ([(1, 1), (3, 1), (1, 2)], Rect(1, 1, 3, 2))
        del sheet.cells[(3, 1)]
        sheet.cells[(2, 2)] = CellContent.number(1.0)
        assert sheet.in_row_major_order() == ([(1, 1), (1, 2), (2, 2)], Rect(1, 1, 2, 2))
        # Moving a cell to the end of the dictionary breaks the order.
        sheet.cells[(1, 1)] = sheet.cells.pop((1, 1))
        assert sheet.in_row_major_order() == ([(1, 1), (1, 2), (2, 2)], Rect(1, 1, 2, 2))
        assert table_values(sheet) == table_values(Worksheet("S", dict(sheet.cells)))

    def test_used_range_of_rows_past_the_sheet(self):
        ws = Worksheet("S", {(3, 2_000_000): CellContent.number(1.0), (2, 7): CellContent.number(2.0)})
        assert ws.used_range() == Rect(2, 7, 3, 2_000_000)
