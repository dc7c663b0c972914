"""Reference vectors, fingerprints, location sums, closed forms over ranges."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from gridlint import pipeline, vectors
from gridlint.entropy import Region
from gridlint.fixes import REASON_OWN_INPUTS, CandidateFix, admissible
from gridlint.formula import (
    SHEET_COLUMNS,
    SHEET_ROWS,
    FormulaParseError,
    numeric_constant_count,
    parse_formula,
    ref_template,
    shape_key,
    shape_printer,
)
from gridlint.model import (
    CellContent, CellKind, Rect, Workbook, Worksheet, column_to_letters, letters_to_column, parse_a1, to_a1,
)
from gridlint.vectors import (
    DATA_KINDS,
    EMPTY_FINGERPRINT,
    NUMBER_FINGERPRINT,
    TEXT_FINGERPRINT,
    Fingerprint,
    LocFingerprint,
    analyze_sheet_vectors,
    location_fingerprint,
    null_fingerprint,
    rects_fingerprint,
)

from conftest import inconsistent_sum_workbook
from oracle import (
    CellAddress,
    RefVector,
    formula_fingerprint,
    naive_analyze_sheet_vectors,
    naive_grid,
    reads_only_target,
    ref_rects,
    reference_vectors,
    references,
    resolve_reference,
)


def fingerprint_of(formula, column, row, sheet="S", workbook="wb"):
    ast = parse_formula(formula)
    refs = references(ast)
    vectors = reference_vectors(refs, column, row, sheet, workbook)
    return formula_fingerprint(vectors, numeric_constant_count(ast) > 0)


class TestReferenceVectors:
    def test_relative_offsets(self):
        # "=A1+B1" in C1
        refs = references(parse_formula("=A1+B1"))
        vectors = reference_vectors(refs, 3, 1, "S", "wb")
        assert vectors == (RefVector(-2, 0, 0, 0), RefVector(-1, 0, 0, 0))

    def test_mixed_addressing_modes(self):
        # "=$A1+B$2" in C3: absolute column from origin, relative rest
        refs = references(parse_formula("=$A1+B$2"))
        vectors = reference_vectors(refs, 3, 3, "S", "wb")
        assert vectors == (RefVector(0, -2, 0, 0), RefVector(-1, 1, 0, 0))

    def test_off_sheet_uses_origin_and_z(self):
        refs = references(parse_formula("=Sheet2!B5"))
        (vector,) = reference_vectors(refs, 3, 3, "S", "wb")
        assert vector == RefVector(1, 4, 1, 0)

    def test_same_sheet_explicit_name_not_off_sheet(self):
        refs = references(parse_formula("=S!B5"))
        (vector,) = reference_vectors(refs, 3, 3, "S", "wb")
        assert vector.dz == 0


class TestFingerprints:
    def test_column_sum(self):
        assert fingerprint_of("=SUM(C5:C9)", 3, 10) == Fingerprint(0, -15, 0, 0)

    def test_translated_column_sum_same_fingerprint(self):
        assert fingerprint_of("=SUM(D5:D9)", 4, 10) == Fingerprint(0, -15, 0, 0)

    def test_row_sums(self):
        assert fingerprint_of("=SUM(B6:E6)", 6, 6) == Fingerprint(-10, 0, 0, 0)
        assert fingerprint_of("=SUM(B7:D7)", 6, 7) == Fingerprint(-9, 0, 0, 0)

    def test_alias_pair(self):
        assert fingerprint_of("=SUM(A1:B1)", 3, 1) == Fingerprint(-3, 0, 0, 0)
        assert fingerprint_of("=ABS(A1)", 4, 1) == Fingerprint(-3, 0, 0, 0)

    def test_numeric_constant_overrides_c(self):
        # =5 references nothing, so it takes the reserved fingerprint with its flag set
        assert fingerprint_of("=5", 1, 1) == Fingerprint(0, 0, 0, 3)
        assert fingerprint_of("=A1+5", 2, 1) == Fingerprint(-1, 0, 0, 1)

    def test_cancelling_formulas_take_the_reserved_fingerprint(self):
        assert fingerprint_of("=A1+A3", 1, 2) == Fingerprint(0, 0, 0, 2)
        assert fingerprint_of("=(B5+D5)/2", 3, 5) == Fingerprint(0, 0, 0, 3)
        assert fingerprint_of('="a"', 1, 1) == fingerprint_of("=TRUE", 1, 1) == Fingerprint(0, 0, 0, 2)
        assert fingerprint_of("=Other!A1", 1, 1) == Fingerprint(0, 0, 1, 0)

    def test_null_fingerprints(self):
        assert null_fingerprint(CellKind.NUMBER) == NUMBER_FINGERPRINT == Fingerprint(0, 0, 0, 1)
        assert null_fingerprint(CellKind.TEXT) == TEXT_FINGERPRINT == Fingerprint(0, 0, 0, -1)
        assert null_fingerprint(CellKind.EMPTY) == EMPTY_FINGERPRINT == Fingerprint(0, 0, 0, 0)

    @given(st.integers(1, 50), st.integers(6, 500))
    def test_relative_formula_translation_invariance(self, column, row):
        # the same reference shape re-anchored anywhere keeps one fingerprint
        from gridlint.model import column_to_letters

        letters = column_to_letters(column)
        formula = f"=SUM({letters}{row - 5}:{letters}{row - 1})"
        assert fingerprint_of(formula, column, row) == Fingerprint(0, -15, 0, 0)


class TestLocationFingerprint:
    def test_sum_of_absolute_positions(self):
        refs = ref_rects(parse_formula("=A1+B1"))
        assert location_fingerprint(refs, "S", "wb") == LocFingerprint(3, 2, 0)

    def test_alias_pair_distinguished(self):
        # same fingerprint, different location sums
        a = location_fingerprint(ref_rects(parse_formula("=SUM(A1:B1)")), "S", "wb")
        b = location_fingerprint(ref_rects(parse_formula("=ABS(A1)")), "S", "wb")
        assert a != b

    def test_translation_moves_relative_refs(self):
        refs = ref_rects(parse_formula("=SUM(B7:D7)"))
        base = location_fingerprint(refs, "S", "wb")
        moved = location_fingerprint(refs, "S", "wb", (0, -1))
        assert moved == LocFingerprint(base.x, base.y - 3, base.z)

    def test_translation_identity(self):
        refs = ref_rects(parse_formula("=SUM(B7:D7)+$A$1+Other!B2"))
        assert location_fingerprint(refs, "S", "wb", (0, 0)) == location_fingerprint(refs, "S", "wb")

    def test_absolute_refs_do_not_move(self):
        refs = ref_rects(parse_formula("=$A$1+Other!B2+[x]S!C3"))
        assert location_fingerprint(refs, "S", "wb", (6, 6)) == location_fingerprint(refs, "S", "wb")


class TestResolveReference:
    def test_inherits_sheet(self):
        refs = references(parse_formula("=B5"))
        resolved = resolve_reference(refs[0], CellAddress(1, 1, "Home", "wb"))
        assert resolved == CellAddress(2, 5, "Home", "wb")

    def test_explicit_sheet_kept(self):
        refs = references(parse_formula("=Other!B5"))
        resolved = resolve_reference(refs[0], CellAddress(1, 1, "Home", "wb"))
        assert resolved.sheet == "Other"


class TestAnalyzeSheet:
    def test_fixture_table(self):
        workbook = inconsistent_sum_workbook()
        table = analyze_sheet_vectors(workbook, workbook.sheets[0])
        assert table.rect.area == 30
        assert table.kind(6, 6) is CellKind.FORMULA
        assert table.fingerprint(6, 6) == Fingerprint(-10, 0, 0, 0)
        assert table.fingerprint(6, 7) == Fingerprint(-9, 0, 0, 0)
        assert table.fingerprint(2, 6) == NUMBER_FINGERPRINT
        assert table.fingerprint(1, 1) == EMPTY_FINGERPRINT  # outside content
        assert table.diagnostics == []

    def test_unparseable_formula_downgraded(self):
        sheet = Worksheet(
            "S",
            {
                (1, 1): CellContent.formula("=SUM(A2"),
                (1, 2): CellContent.number(1.0),
            },
        )
        table = analyze_sheet_vectors(Workbook("w", [sheet]), sheet)
        assert table.kind(1, 1) is CellKind.TEXT
        assert table.fingerprint(1, 1) == TEXT_FINGERPRINT
        assert len(table.diagnostics) == 1
        assert "A1" in table.diagnostics[0]


def closed_fingerprint_of(formula, column, row, sheet="S", workbook="wb"):
    ast = parse_formula(formula)
    return rects_fingerprint(ref_rects(ast), column, row, sheet, workbook, numeric_constant_count(ast) > 0)


class TestWholeLineFingerprints:
    def test_whole_column_copied_down_and_right(self):
        n = SHEET_ROWS
        expected = Fingerprint(-n, n * (n - 1) // 2, 0, 0)
        assert closed_fingerprint_of("=SUM(B:B)", 3, 1) == expected
        # The open axis is absolute: copying down changes nothing.
        assert closed_fingerprint_of("=SUM(B:B)", 3, 7) == expected
        assert closed_fingerprint_of("=SUM(C:C)", 4, 1) == expected

    def test_whole_row_copied_right_and_down(self):
        n = SHEET_COLUMNS
        expected = Fingerprint(n * (n - 1) // 2, -2 * n, 0, 0)
        assert closed_fingerprint_of("=SUM(3:3)", 1, 5) == expected
        assert closed_fingerprint_of("=SUM(3:3)", 9, 5) == expected
        assert closed_fingerprint_of("=SUM(4:4)", 1, 6) == expected

    def test_absolute_whole_column_off_sheet(self):
        n = SHEET_ROWS
        assert closed_fingerprint_of("=SUM(Data!$A:$B)", 3, 3) == Fingerprint(n, n * (n - 1), 2 * n, 0)


# -- closed forms against expand-and-sum on random formulas ------------------

_PREFIXES = ["", "S!", "Other!", "[wb]S!", "[Ext]S!", "[wb]Other!", "'S'!"]


@st.composite
def corner_texts(draw):
    column, row = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    c_dollar, r_dollar = ("$" if draw(st.booleans()) else "" for _ in range(2))
    return f"{c_dollar}{column_to_letters(column)}{r_dollar}{row}"


@st.composite
def reference_formulas(draw):
    """Cells and ranges with mixed $ flags and either corner order, on this
    sheet or another, named or not; sometimes a numeric constant."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        prefix = draw(st.sampled_from(_PREFIXES))
        body = draw(corner_texts())
        if draw(st.booleans()):
            body += ":" + draw(corner_texts())
        parts.append(prefix + body)
    if not parts or draw(st.booleans()):
        parts.append(str(draw(st.integers(0, 9))))
    return "=SUM(" + ",".join(parts) + ")"


def naive_location(refs, sheet, workbook, shift=(0, 0)):
    x = y = z = 0
    for ref in refs:
        off = ref.sheet not in (None, sheet) or ref.workbook not in (None, workbook)
        x += ref.column + (0 if off or ref.column_absolute else shift[0])
        y += ref.row + (0 if off or ref.row_absolute else shift[1])
        z += off
    return LocFingerprint(x, y, z)


def naive_reads_only(refs, here: CellAddress, target: Rect) -> bool:
    referents = [resolve_reference(r, here) for r in refs]
    return bool(referents) and all(
        r.sheet == here.sheet and r.workbook == here.workbook and target.contains(r.column, r.row)
        for r in referents
    )


class TestClosedFormOracle:
    @settings(max_examples=300, deadline=None)
    @given(reference_formulas(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
           st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)))
    def test_matches_expand_and_sum(self, text, column, row, to_column, to_row, corners):
        ast = parse_formula(text)
        cells, rects = references(ast), ref_rects(ast)
        constant = numeric_constant_count(ast) > 0
        assert rects_fingerprint(rects, column, row, "S", "wb", constant) == formula_fingerprint(
            reference_vectors(cells, column, row, "S", "wb"), constant
        )
        assert location_fingerprint(rects, "S", "wb") == naive_location(cells, "S", "wb")
        moved = location_fingerprint(rects, "S", "wb", (to_column - column, to_row - row))
        assert moved == naive_location(cells, "S", "wb", (to_column - column, to_row - row))

        # C3: every referent inside the target, on this sheet.
        sheet = Worksheet("S", {(column, row): CellContent.formula(text)})
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        left, right = sorted(corners[::2])
        top, bottom = sorted(corners[1::2])
        target = Rect(left, top, right, bottom)
        own = Region(Rect(column, row, column, row), table.fingerprint(column, row))
        fix = CandidateFix(Rect(column, row, column, row), own, Region(target, EMPTY_FINGERPRINT))
        reads_only = naive_reads_only(cells, CellAddress(column, row, "S", "wb"), target)
        assert reads_only_target(fix, table) == reads_only
        assert (admissible(fix, table) == REASON_OWN_INPUTS) == reads_only
        assert location_fingerprint(table.refs[(column, row)], "S", "wb") == naive_location(cells, "S", "wb")


# -- one parse per formula shape ---------------------------------------------


def sheet_of(formulas: dict[str, str], name: str = "S") -> Worksheet:
    """A sheet holding each formula at its A1 address."""
    return Worksheet(name, {parse_a1(a1): CellContent.formula(text) for a1, text in formulas.items()})


def table_of(formulas: dict[str, str]):
    sheet = sheet_of(formulas)
    return analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)


def assert_matches_uncached(sheet: Worksheet, workbook: Workbook | None = None, shapes: dict | None = None) -> None:
    """Fingerprints, refs, diagnostics, the grid's code rows and palette,
    and the kind of every used-range cell equal the uncached path's, in
    order.  `shapes` is the shape dictionary the workbook's sheets share,
    as `analyze_workbook` shares it."""
    workbook = workbook or Workbook("wb", [sheet])
    got, want = analyze_sheet_vectors(workbook, sheet, shapes), naive_analyze_sheet_vectors(workbook, sheet)
    assert got.rect == want.rect
    assert list(got.fingerprints.items()) == list(want.fingerprints.items())
    assert list(got.refs.items()) == list(want.refs.items())
    assert got.diagnostics == want.diagnostics
    grid = naive_grid(want)
    assert (got.grid.code_rows, got.grid.palette) == (grid.code_rows, grid.palette)
    for (column, row) in got.rect.cells():
        assert got.fingerprint(column, row) == want.fingerprint(column, row)
        assert got.kind(column, row) is want.kind(column, row)
    return got


class TestCopiesThatDoNotShareAFingerprint:
    """Translated copies share a shape, not always a fingerprint."""

    def test_range_anchored_on_one_corner_grows(self):
        table = table_of({"C5": "=SUM(B$1:B5)", "C6": "=SUM(B$1:B6)"})
        assert table.fingerprint(3, 5) == Fingerprint(-5, -10, 0, 0)
        assert table.fingerprint(3, 6) == Fingerprint(-6, -15, 0, 0)

    def test_relative_off_sheet_reference_follows_origin_rule(self):
        table = table_of({"C5": "=Sheet2!B5", "C6": "=Sheet2!B6"})
        assert table.fingerprint(3, 5) == Fingerprint(1, 4, 1, 0)
        assert table.fingerprint(3, 6) == Fingerprint(1, 5, 1, 0)


# Literal pieces: A1-like text the key must leave alone, whole lines, and
# text that fails to parse.
_LITERALS = ["1E5", "2.E5", "3.5", "7", '"A1"', '"say ""B2"""', "TRUE", "B:B", "$B:$D", "3:3", "Other!A:C",
             "$2:4", "A1B", "LOG10(2)", "ATAN2(1,2)", "$$A1", "A1:", "(", "A1:Sheet1!B2", "1E5A1"]
_PREFIXES = ["", "", "S!", "Other!", "'Q1 2019'!", "'It''s A1'!", "[wb]S!", "[Book A1]Other!", "B2!", "'S'!"]
EIGHT_LETTERS = letters_to_column("AAAAAAAA")


@st.composite
def corner_shapes(draw):
    """(column anchored, column value or offset, row anchored, row value or
    offset, lower case): one corner of a formula's shape."""
    col_abs, row_abs = draw(st.booleans()), draw(st.booleans())
    col = draw(st.sampled_from([1, 2, 27, EIGHT_LETTERS])) if col_abs else draw(st.integers(-3, 3))
    row = draw(st.integers(1, 30)) if row_abs else draw(st.integers(-3, 3))
    return col_abs, col, row_abs, row, draw(st.booleans())


@st.composite
def formula_shapes(draw, depth=0):
    """A formula shape: a list of literal strings and corner shapes."""
    kind = draw(st.sampled_from(["cell", "range", "literal", "call"] if depth < 2 else ["cell", "range", "literal"]))
    if kind == "literal":
        return [draw(st.sampled_from(_LITERALS))]
    if kind == "call":
        name = draw(st.sampled_from(["SUM(", "LOG10(", "ATAN2(", "sum("]))
        args = draw(st.lists(formula_shapes(depth + 1), min_size=1, max_size=3))
        out = [name]
        for i, arg in enumerate(args):
            out += ([","] if i else []) + arg
        return out + [")"]
    out = [draw(st.sampled_from(_PREFIXES)), draw(corner_shapes())]
    if kind == "range":
        out += [":", draw(corner_shapes())]
    return out


@st.composite
def top_shapes(draw):
    parts = draw(st.lists(formula_shapes(), min_size=1, max_size=3))
    out = ["="]
    for i, part in enumerate(parts):
        out += ([draw(st.sampled_from(["+", "-", "*", "&", " + "]))] if i else []) + part
    return out


def render(shape, column: int, row: int) -> str | None:
    """The shape's text in the cell at (column, row); None where a
    relative corner would leave the sheet."""
    text = []
    for piece in shape:
        if isinstance(piece, str):
            text.append(piece)
            continue
        col_abs, col, row_abs, r, lower = piece
        c, r = (col if col_abs else column + col), (r if row_abs else row + r)
        if c < 1 or r < 1:
            return None
        letters = column_to_letters(c)
        text.append(f"{'$' if col_abs else ''}{letters.lower() if lower else letters}{'$' if row_abs else ''}{r}")
    return "".join(text)


@st.composite
def copied_runs(draw):
    """(shape, column, row, down, length, breaker, at): a shape copied down
    (or across) `length` cells from (column, row), with the cell `at`
    steps into the run holding the shape `breaker` instead, or a number
    where `breaker` is None."""
    return (draw(top_shapes()), draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.booleans()),
            draw(st.integers(2, 6)), draw(st.none() | top_shapes()), draw(st.integers(1, 5)))


class TestShapeCacheOracle:
    """analyze_sheet_vectors parses a shape once and reads a copy printed
    from a neighbour's shape without lexing it; the uncached path parses
    every cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(top_shapes(), st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                                                      min_size=1, max_size=4)),
                    min_size=1, max_size=4),
           st.lists(copied_runs(), max_size=3))
    def test_random_shapes_and_translated_copies(self, placed, runs):
        cells = {}
        for shape, places in placed:
            for column, row in places:
                text = render(shape, column, row)
                if text is not None:
                    cells[(column, row)] = CellContent.formula(text)
        for shape, column, row, down, length, breaker, at in runs:
            for step in range(length):
                cell = (column, row + step) if down else (column + step, row)
                written = breaker if step == at else shape
                text = render(written, *cell) if written is not None else None
                cells[cell] = CellContent.formula(text) if text is not None else CellContent.number(1.0)
        cells.setdefault((1, 1), CellContent.number(1.0))
        assert_matches_uncached(Worksheet("S", cells))
        # The lexer finds the parser's corners, so every shape that parses is cached.
        for (column, row), content in cells.items():
            if content.kind is not CellKind.FORMULA:
                continue
            try:
                ast = parse_formula(content.value)
            except FormulaParseError:
                continue
            assert shape_key(content.value, column, row)[1] == ref_template(ast)[1]

    @pytest.mark.parametrize("formulas", [
        # A1-like text inside strings and quoted sheet names
        {"B2": '="A1"&\'Q1 2019\'!A1', "B3": '="A1"&\'Q1 2019\'!A2', "C3": "=\"A1\"&'Q1 2019'!B2"},
        {"B2": "='It''s A1'!B2+A1", "C3": "='It''s A1'!C3+B2", "D4": "='It''s A1'!$B$2+C3"},
        # names and numbers that hold cell-like text
        {"B2": "=LOG10(A1)+ATAN2(A1,B1)", "B3": "=LOG10(A2)+ATAN2(A2,B2)"},
        {"B2": "=A1B", "B3": "=1E5+A2", "B4": "=2.E5*A3", "B5": "=1E5+A4", "B6": "=2.E5*A5"},
        # whole lines, lower case, 8-letter columns
        {"B2": "=SUM(B:B)", "B3": "=SUM($B:$D)", "B4": "=SUM(3:3)", "C4": "=SUM(4:4)", "C5": "=SUM(C:C)"},
        {"B2": "=b1+A1", "B3": "=B2+a2", "B4": "=AAAAAAAA1+A3", "B5": "=AAAAAAAA1+A4"},
        # range corners: on a second sheet prefix, reversed, anchored apart
        {"B2": "=A1:Sheet1!B2", "B3": "=SUM(C4:A1)", "B4": "=SUM(C5:A2)", "B5": "=SUM($A1:A$5)", "B6": "=SUM($A2:A$5)"},
        # a sheet named like a cell
        {"C3": "=B2!C3+C2", "C4": "=B2!C4+C3"},
        # offsets that read the same without a separator: (1, 23) and (12, 3)
        {"A1": "=B24", "A2": "=M5"},
        # a token's key against a literal that spells it without delimiters
        {"A1": "=SUM(B24)", "A2": "=SUM(1,23)"},
        # unparseable, each copy with its own offset, then a parseable copy
        {"B9": "=SUM(A8+", "B10": "=SUM(A9+", "B11": "=SUM(A10+", "B12": "=SUM(A11)"},
        # NUL in the text: no key
        {"B2": '="\x00"&A1', "B3": '="\x00"&1+B1'},
        # references outside the sheet, each one text, and past its last row
        {"B2": "=A0+1", "B3": "=XFE1", "B4": "=A1048577", "B5": "=SUM(A:XFE)", "B6": "=SUM(0:3)"},
        # the sheet's last column and row
        {"B2": "=XFD1048576", "B3": "=XFD1048576", "C3": "=$XFD$1", "C4": "=$XFD$1"},
        # a parsed shape whose copy leaves the sheet past its last column
        {"B3": "=A2", "C2": "=D2", "XFD2": "=XFE2"},
        # copies that leave the sheet, or the lexer's reach, beside copies
        # that lend to them: past XFD, at row 0, at a row of 8 digits
        {"XFB2": "=XFC1+$A$1", "XFC2": "=XFD1+$A$1", "XFD2": "=XFE1+$A$1", "XFD3": "=XFE2+$A$1"},
        {"B1": "=A1", "B2": "=A0", "C1": "=B0", "C2": "=B1"},
        {"B2": "=A9999998", "B3": "=A9999999", "B4": "=A10000000", "B5": "=A10000001"},
        # copies spelled otherwise than printed: lower case, leading zeros
        {"B2": "=A1+$C$1", "B3": "=a2+$C$1", "B4": "=A03+$c$1", "B5": "=A4+$C$01", "B6": "=A5+$C$1", "C6": "=B05+$C$1"},
        # copies that differ from the printed copy in the letter case of a
        # sheet name: s! is another sheet than S!
        {"B2": "=s!A1+Other!A1", "B3": "=S!A2+Other!A2", "B4": "=S!A3+other!A3", "C4": "=s!B3+Other!B3"},
        # format characters in literals
        {"B2": '=A1&"%s{}%%{0}%d"', "B3": '=A2&"%s{}%%{0}%d"', "C3": '=B2&"%s{}%%{0}%d"', "C4": '=B3&"%s{}%%{0}"'},
        {"B2": "=A1&'50%{x}'!B1", "B3": "=A2&'50%{x}'!B2", "C3": "=B2&'50%{x}'!C2"},
        # NUL breaking a run: it lends nothing and is lent nothing
        {"B2": '="a"&A1', "B3": '="\x00"&A2', "B4": '="a"&A3', "C4": '="\x00"&B3', "C5": '="a"&B4'},
        # neighbours that fail to parse, with copies that do below them
        {"B2": "=SUM(A1", "B3": "=SUM(A2", "C2": "=SUM(B1", "C3": "=SUM(B2)", "C4": "=SUM(B3)", "D4": "=SUM(C3"},
    ])
    def test_hand_cases(self, formulas):
        assert_matches_uncached(sheet_of(formulas))

    def test_references_outside_the_sheet_are_text(self):
        table = table_of({"B2": "=A0+1", "B3": "=XFE1", "B4": "=SUM(A:XFE)", "B5": "=SUM(0:3)",
                          "B6": "=XFD1048576", "B7": "=$XFD$1", "C2": "=D2", "XFD2": "=XFE2"})
        text = [(2, 2), (16384, 2), (2, 3), (2, 4), (2, 5)]
        assert sorted(cell for cell in table.fingerprints if table.kind(*cell) is CellKind.TEXT) == sorted(text)
        assert len(table.diagnostics) == 5
        assert all("outside the sheet" in d for d in table.diagnostics)

    def test_key_separates_axes(self):
        # Column offset 1 then row 23 against column offset 12 then row 3.
        assert shape_key("=B24", 1, 1)[0] != shape_key("=M5", 1, 2)[0]

    def test_key_follows_translation(self):
        key, corners = shape_key("=SUM(B$1:B5)+$A$1", 3, 5)
        assert shape_key("=SUM(C$1:C9)+$A$1", 4, 9)[0] == key
        assert shape_key("=SUM(B$1:B5)+$A$1", 3, 6)[0] != key
        assert corners == [(2, 1, False, True), (2, 5, False, False), (1, 1, True, True)]

    def test_key_leaves_literals_alone(self):
        key, corners = shape_key("=\"A1\"&'Q1 2019'!A1+LOG10(1E5)+B:B+3:3", 2, 2)
        assert corners == [(1, 1, False, False)]
        assert key == "=\"A1\"&'Q1 2019'!\x00-1,-1\x00+LOG10(1E5)+B:B+3:3"

    def test_no_key_outside_the_sheet(self):
        assert shape_key("=XFE2+A1", 2, 2) == (None, [])
        assert shape_key("=A0", 2, 2) == (None, [])
        assert shape_key("=XFD1", 2, 2)[0] is not None

    def test_copied_down_column_is_lexed_once(self, monkeypatch):
        calls = []

        def counting(text, column, row):
            calls.append((column, row))
            return shape_key(text, column, row)

        monkeypatch.setattr(vectors, "shape_key", counting)
        table = table_of({f"B{row}": f"=SUM($A$1:A{row})*2+C{row + 1}" for row in range(1, 101)})
        assert calls == [(2, 1)]
        assert len(table.refs) == 100 and not table.diagnostics

    @settings(max_examples=300, deadline=None)
    @given(top_shapes(), st.integers(1, 9), st.integers(1, 9), st.integers(-12, 12), st.integers(-12, 12))
    def test_printer_prints_what_shape_key_reads(self, shape, column, row, dc, dr):
        text = render(shape, column, row)
        if text is None:
            return
        key, corners = shape_key(text, column, row)
        if key is None:
            return
        printer = shape_printer(key)
        if text == render([p if isinstance(p, str) else p[:4] + (False,) for p in shape], column, row):
            # Spelled as printed, unless a relative column follows a digit or "." (1E5A1).
            assert printer(column, row) == (text, corners) or re.search("[0-9.]\x00[-0-9]", key)
        copy = printer(column + dc, row + dr)
        if copy is not None:
            assert shape_key(copy[0], column + dc, row + dr) == (key, copy[1])

    @settings(max_examples=500, deadline=None)
    @given(st.text("AEBe$019.:!'\"[]()+,%{} \x00", max_size=14), st.integers(1, 30), st.integers(1, 30),
           st.integers(-30, 30), st.integers(-30, 30))
    def test_printer_on_any_text(self, body, column, row, dc, dr):
        """Texts that mostly fail to parse: the printer's copy still lexes
        to its key and corners wherever it prints one."""
        key, _ = shape_key("=" + body, column, row)
        if key is None:
            return
        copy = shape_printer(key)(column + dc, row + dr)
        if copy is not None:
            assert shape_key(copy[0], column + dc, row + dr) == (key, copy[1])

    @pytest.mark.parametrize("text, copy, printed", [
        ("=B2+1", (16384, 3), "=XFC2+1"),
        ("=B2+1", (16385, 3), "=XFD2+1"),
        ("=B2+1", (16386, 3), None),  # column XFE
        ("=B2+1", (2, 2), "=A1+1"),
        ("=B2+1", (1, 2), None),  # column 0
        ("=B2+1", (2, 1), None),  # row 0
        ("=B2+1", (3, 10000000), "=B9999999+1"),
        ("=B2+1", (3, 10000001), None),  # row 10,000,000: 8 digits
        ("=B$2+1", (3, 10000001), "=B$2+1"),
        ("=$B2+1", (30000, 2), "=$B1+1"),
        ("=1+B2", (6, 3), "=1+E2"),  # E2 after "+", not after the digit
    ])
    def test_printer_refuses_copies_past_the_lexer(self, text, copy, printed):
        key, _ = shape_key(text, 3, 3)
        got = shape_printer(key)(*copy)
        assert (got and got[0]) == printed
        if got is not None:
            assert shape_key(got[0], *copy) == (key, got[1])

    def test_printer_refuses_a_token_after_a_number(self):
        # =1E5 is a number, so a key with a cell token right after a digit prints nothing.
        key, corners = shape_key("=1B5", 3, 5)
        assert corners == [(2, 5, False, False)]
        assert shape_printer(key)(5, 5) is None and shape_printer(key)(3, 5) is None

    def test_deep_formula_key(self):
        text = "=" + "(" * 5000 + "A1+1" + ")" * 5000
        key, corners = shape_key(text, 2, 1)
        assert corners == [(1, 1, False, False)]
        assert key == "=" + "(" * 5000 + "\x00-1,0\x00+1" + ")" * 5000


@st.composite
def placed_formulas(draw, sheets):
    """Per sheet, formula shapes placed at translated copies and data cells
    between them."""
    out = []
    for _ in sheets:
        cells = {}
        for shape, places in draw(st.lists(
                st.tuples(top_shapes(), st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4)),
                min_size=0, max_size=3)):
            for column, row in places:
                text = render(shape, column, row)
                if text is not None:
                    cells[(column, row)] = CellContent.formula(text)
        for column, row, kind in draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7), st.sampled_from("nt")),
                                               max_size=6)):
            cells.setdefault((column, row), CellContent.number(1.0) if kind == "n" else CellContent.text("x"))
        cells.setdefault(draw(st.tuples(st.integers(1, 7), st.integers(1, 7))), CellContent.number(2.0))
        out.append(cells)
    return out


_WHOLE_COLUMNS = re.compile(r"\$?[A-Za-z]+:\$?[A-Za-z]+(?![0-9])")


@st.composite
def reuse_shapes(draw):
    """A shape from one family of the invariance rule: a range anchored
    differently at its corners, a reference naming a sheet (relative or
    absolute), a whole line, or any shape."""
    family = draw(st.sampled_from(["mixed range", "named", "whole line", "any"]))
    if family == "mixed range":
        first, second = draw(corner_shapes()), draw(corner_shapes())
        if first[0] == second[0] and first[2] == second[2]:
            second = (not second[0], 2 if second[0] else 1, *second[2:])
        return ["=SUM(", first, ":", second, ")"]
    if family == "named":
        corner = draw(corner_shapes())
        if draw(st.booleans()):
            corner = (True, draw(st.sampled_from([1, 2, 27])), True, draw(st.integers(1, 9)), corner[4])
        prefix = draw(st.sampled_from(["S!", "Other!", "'Other'!", "[wb]S!", "[x]Other!"]))
        return ["=", prefix, corner, "+", draw(corner_shapes())]
    if family == "whole line":
        line = draw(st.sampled_from(["3:3", "$2:$2", "Other!4:4", "B:B", "$B:$C", "S!A:A"]))
        return ["=SUM(", line, ")+", draw(corner_shapes())]
    return draw(top_shapes())


class TestFingerprintPerShape:
    """Copies of one shape, on one sheet and across the sheets that share
    a shape dictionary, get the fingerprints and code rows the reference
    table sums cell by cell, whether or not the copies share one."""

    @settings(max_examples=100, deadline=None)
    @given(placed_formulas(["S", "Other", "Sheet1"]))
    def test_random_workbooks_of_three_sheets(self, placed):
        workbook = Workbook("wb", [Worksheet(name, cells) for name, cells in zip(["S", "Other", "Sheet1"], placed)])
        shapes: dict = {}
        for sheet in workbook.sheets:
            assert_matches_uncached(sheet, workbook, shapes)

    def copies(self, text_at, cells, name="S"):
        return Worksheet(name, {parse_a1(a1): CellContent.formula(text_at(a1)) for a1 in cells})

    @pytest.mark.parametrize("sheet_names", [("Sheet1", "Sheet2"), ("Sheet2", "Sheet1")])
    def test_one_key_off_one_sheet_and_on_another(self, sheet_names):
        cells = ["C5", "C6", "C7", "D5"]
        sheets = [self.copies(lambda a1: f"=Sheet2!{column_to_letters(parse_a1(a1)[0] - 1)}{a1[1:]}", cells, name)
                  for name in sheet_names]
        workbook = Workbook("wb", sheets)
        shapes: dict = {}
        for sheet in sheets:
            assert_matches_uncached(sheet, workbook, shapes)
        tables = {sheet.name: analyze_sheet_vectors(workbook, sheet) for sheet in sheets}
        # Off the sheet the copies differ; on it they share one fingerprint.
        assert len({tables["Sheet1"].fingerprint(*parse_a1(a1)) for a1 in cells}) == 4
        assert {tables["Sheet2"].fingerprint(*parse_a1(a1)) for a1 in cells} == {Fingerprint(-1, 0, 0, 0)}

    def test_relative_whole_column_in_two_columns(self):
        table = table_of({"B2": "=SUM(B:B)", "C2": "=SUM(B:B)", "C3": "=SUM(B:B)", "D2": "=SUM($B:$B)",
                          "E2": "=SUM($B:$B)"})
        assert table.fingerprint(2, 2) != table.fingerprint(3, 2) == table.fingerprint(3, 3)
        assert table.fingerprint(4, 2) == table.fingerprint(5, 2)
        assert_matches_uncached(sheet_of({"B2": "=SUM(B:B)", "C2": "=SUM(B:B)", "D2": "=SUM($B:$B)",
                                          "E2": "=SUM($B:$B)", "B3": "=SUM(3:3)", "C4": "=SUM(3:3)"}))

    def test_range_anchored_on_one_corner_copied_down(self):
        formulas = {f"C{row}": f"=SUM(B$1:B{row})" for row in range(5, 10)}
        table = table_of(formulas)
        assert len({table.fingerprint(3, row) for row in range(5, 10)}) == 5
        assert_matches_uncached(sheet_of(formulas))

    @pytest.mark.parametrize("prefix", ["[wb]S!", "[wb]Other!", "[other]S!", "S!", "'S'!"])
    def test_workbook_prefix_naming_its_own_workbook(self, prefix):
        formulas = {f"B{row}": f"={prefix}A{row - 1}+{prefix}$A$1" for row in range(2, 7)}
        assert_matches_uncached(sheet_of(formulas))
        table = table_of(formulas)
        shared = len({table.fingerprint(2, row) for row in range(2, 7)}) == 1
        assert shared == (prefix in ("[wb]S!", "S!", "'S'!"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(reuse_shapes(), st.integers(1, 5), st.integers(1, 5), st.booleans(), st.integers(2, 4),
                              st.sampled_from([(True, True), (True, False), (False, True)])),
                    min_size=1, max_size=4))
    def test_copied_runs_on_two_sheets(self, runs):
        """Runs of copies, each on S, on Other or on both: a key that names
        one of them is on-sheet there and off-sheet on the other.  Every
        formula's fingerprint is its own references' and the sum of its
        expanded vectors, whether or not its shape keeps one for all copies."""
        placed: dict[str, dict] = {"S": {}, "Other": {}}
        for shape, column, row, down, length, on in runs:
            for name, here in zip(placed, on):
                for step in range(length * here):
                    cell = (column, row + step) if down else (column + step, row)
                    text = render(shape, *cell)
                    if text is not None:
                        placed[name][cell] = CellContent.formula(text)
        workbook = Workbook("wb", [Worksheet(name, cells) for name, cells in placed.items() if cells])
        shapes: dict = {}
        for sheet in workbook.sheets:
            table = assert_matches_uncached(sheet, workbook, shapes)
            for (column, row), rects in table.refs.items():
                text = sheet.cells[(column, row)].value
                ast = parse_formula(text)
                fingerprint = table.fingerprint(column, row)
                assert fingerprint == rects_fingerprint(rects, column, row, sheet.name, "wb",
                                                        numeric_constant_count(ast) > 0)
                if not _WHOLE_COLUMNS.search(text):  # a million cells each: TestWholeLineFingerprints
                    assert fingerprint == fingerprint_of(text, column, row, sheet.name, "wb")

    def test_invariant_shape_sums_its_fingerprint_once(self, monkeypatch):
        calls = []
        original = vectors.rects_fingerprint
        monkeypatch.setattr(vectors, "rects_fingerprint", lambda *args: calls.append(args[1:3]) or original(*args))
        formulas = {f"C{row}": f"=SUM(A{row}:B{row})*2+$A$1" for row in range(2, 12)}
        formulas.update({f"D{row}": f"=SUM(B$1:B{row})" for row in range(2, 12)})
        formulas.update({f"E{row}": f"=Other!A{row}" for row in range(2, 12)})
        table = table_of(formulas)
        # One sum for the invariant shape, one per copy of the two others.
        assert sorted(calls) == [(3, 2)] + [(column, row) for column in (4, 5) for row in range(2, 12)]
        assert len({table.fingerprint(3, row) for row in range(2, 12)}) == 1
        assert_matches_uncached(sheet_of(formulas))

    @pytest.mark.parametrize("text, invariant", [
        ("=A1+SUM(B2:C3)+$A$1+SUM($A$1:$B$2)+SUM($A1:$B2)+SUM(A$1:B$2)+1", True),
        ("=SUM(C4:A1)", True),
        ("=SUM(B$1:B5)", False),
        ("=SUM($A1:A$5)", False),
        ("=Sheet2!B5", False),
        ("=Sheet2!$B$5", False),
        ("=[wb]S!A1", False),
        ("=SUM(B:B)", False),
        ("=SUM($3:$3)", False),
        ("=PI()", True),
    ])
    def test_translation_invariant(self, text, invariant):
        template, corners = ref_template(parse_formula(text))
        assert vectors.translation_invariant(template, corners) is invariant

    def test_cancelling_formula_gets_a_code_of_its_own(self):
        # A2's vectors cancel: its reserved fingerprint is coded after the
        # blank, which C1 numbers, and A2 is a formula by its fingerprint alone.
        cells = {(1, 1): CellContent.number(1.0), (2, 1): CellContent.number(2.0),
                 (1, 2): CellContent.formula("=A1+A3"), (1, 3): CellContent.number(3.0), (3, 3): CellContent.text("x")}
        sheet = Worksheet("S", cells)
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        assert table.fingerprint(1, 2) == Fingerprint(0, 0, 0, 2)
        assert table.kind(1, 2) is CellKind.FORMULA
        assert table.grid.palette == (NUMBER_FINGERPRINT, EMPTY_FINGERPRINT, Fingerprint(0, 0, 0, 2), TEXT_FINGERPRINT)
        assert table.grid.code_rows == [[0, 0, 1], [2, 1, 1], [0, 1, 3]]
        assert_matches_uncached(sheet)

    @pytest.mark.parametrize("cells", [
        {(1, 1): CellContent.number(1.0)},
        {(3, 2): CellContent.text("x"), (1, 4): CellContent.number(1.0)},
        {(1, 1): CellContent.number(1.0), (2, 2): CellContent.number(1.0), (3, 1): CellContent.formula("=SUM(")},
        {(2, 1): CellContent.formula("=A1+A1-A1-A1"), (1, 2): CellContent.number(1.0), (2, 3): CellContent.formula("=B2")},
    ])
    def test_code_rows_match_a_grid_built_cell_by_cell(self, cells):
        assert_matches_uncached(Worksheet("S", cells))

    def test_rows_without_cells_share_one_list(self):
        sheet = Worksheet("S", {(1, 1): CellContent.number(1.0), (3, 1000): CellContent.text("x")})
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        rows = table.grid.code_rows
        assert len({id(row) for row in rows}) == 3
        assert rows[1] == [1, 1, 1] and rows[-1] == [1, 1, 2]
        assert_matches_uncached(sheet)

    def test_fingerprints_is_a_read_only_view_of_every_stored_cell(self):
        # A2's vectors cancel, alone on its row; C3 is a blank inside the
        # used range.
        table = table_of({"A2": "=A1+A3", "B3": "=A1", "D4": "=SUM("})
        assert list(table.fingerprints) == [(1, 2), (2, 3), (4, 4)]
        assert table.fingerprints[(1, 2)] == Fingerprint(0, 0, 0, 2)
        assert table.kind(1, 2) is CellKind.FORMULA
        assert (3, 3) not in table.fingerprints and table.kind(3, 3) is CellKind.EMPTY
        assert table.fingerprints[(4, 4)] == TEXT_FINGERPRINT
        with pytest.raises(TypeError):
            table.fingerprints[(2, 2)] = EMPTY_FINGERPRINT


@st.composite
def mixed_sheets(draw):
    """Up to 6 x 6 cells mixing numbers, text, blanks, reference-free
    formulas, formulas whose vectors cancel (pairs around the cell, ranges
    centred on it, =$A$1), some with a numeric constant, off-sheet
    references, and plain references."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = {}
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            dx, dy = draw(st.integers(0, x - 1)), draw(st.integers(0, y - 1))
            pair = f"{to_a1(x - dx, y - dy)}+{to_a1(x + dx, y + dy)}"
            choice = draw(st.sampled_from([
                None, "n", "t", "=1", '="a"', "=TRUE", "=100*12", "=$A$1", f"={pair}", f"=({pair})/2", f"={pair}+1",
                f"=SUM({to_a1(x - dx, y)}:{to_a1(x + dx, y)})", f"=Other!{to_a1(x, y)}", f"={pair}+Other!A1",
                f"={to_a1(x, max(y - 1, 1))}",
            ]))
            if choice == "n":
                cells[(x, y)] = CellContent.number(1.0)
            elif choice == "t":
                cells[(x, y)] = CellContent.text("x")
            elif choice is not None:
                cells[(x, y)] = CellContent.formula(choice)
    cells.setdefault(draw(st.tuples(st.integers(1, width), st.integers(1, height))), CellContent.number(2.0))
    return cells


class TestFormulasNeverFingerprintAsData:
    """A formula whose vectors sum to (0, 0, 0) takes the reserved
    (0, 0, 0, 2 + flag), so no formula shares a data cell's fingerprint
    and no data region holds a formula."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_sheets())
    def test_fingerprints_match_expand_and_sum_with_the_reserved_rule(self, cells):
        sheet = Worksheet("S", cells)
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        for (column, row), content in cells.items():
            if content.kind is not CellKind.FORMULA:
                continue
            ast = parse_formula(content.value)
            vectors = reference_vectors(references(ast), column, row, "S", "wb")
            x, y, z = (sum(v[axis] for v in vectors) for axis in range(3))
            flag = 1 if numeric_constant_count(ast) > 0 else 0
            want = Fingerprint(0, 0, 0, 2 + flag) if (x, y, z) == (0, 0, 0) else Fingerprint(x, y, z, flag)
            assert table.fingerprint(column, row) == want
            assert want not in DATA_KINDS
            assert table.kind(column, row) is CellKind.FORMULA
        assert_matches_uncached(sheet)

    @settings(max_examples=60, deadline=None)
    @given(mixed_sheets(), st.booleans())
    def test_no_data_region_covers_a_formula(self, cells, preprocess):
        workbook = Workbook("wb", [Worksheet("S", cells)])
        analysis = pipeline.analyze_sheet(workbook, workbook.sheets[0], pipeline.AnalysisConfig(preprocess=preprocess))
        for region in analysis.regions:
            if region.fingerprint in DATA_KINDS:
                assert not any(cell in analysis.table.refs for cell in region.rect.cells())


class TestShapeCacheEngages:
    def test_running_totals_parse_a_handful_of_times(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_formula(text)

        monkeypatch.setattr(vectors, "parse_formula", counting)
        cells = {(1, row): CellContent.number(float(row)) for row in range(1, 501)}
        cells[(2, 1)] = CellContent.formula("=A1")
        for row in range(2, 501):
            cells[(2, row)] = CellContent.formula(f"=B{row - 1}+A{row}")
        sheet = Worksheet("S", cells)
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        assert len(calls) <= 3
        assert_matches_uncached(sheet)
        assert {table.fingerprint(2, row) for row in range(2, 501)} == {Fingerprint(-1, -1, 0, 0)}

    def test_one_shape_on_two_sheets_parses_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_formula(text)

        monkeypatch.setattr(vectors, "parse_formula", counting)
        first = Worksheet("First", {(1, 1): CellContent.number(1.0), (2, 1): CellContent.formula("=A1+Other!A1"),
                                    (2, 2): CellContent.formula("=A2+Other!A2")})
        second = Worksheet("Other", {(1, 3): CellContent.number(1.0), (2, 3): CellContent.formula("=A3+Other!A3"),
                                     (2, 4): CellContent.formula("=SUM(")})
        workbook = Workbook("wb", [first, second])
        analysis = pipeline.analyze_workbook(workbook)
        # One parse for the shared shape, one for the failing formula.
        assert calls == ["=A1+Other!A1", "=SUM("]
        for sheet, result in zip(workbook.sheets, analysis.sheets):
            want = naive_analyze_sheet_vectors(workbook, sheet)
            assert list(result.table.fingerprints.items()) == list(want.fingerprints.items())
            assert list(result.table.refs.items()) == list(want.refs.items())
            assert result.table.diagnostics == want.diagnostics
        # The same text names its own sheet on one sheet and another on the other.
        assert analysis.sheets[0].table.fingerprint(2, 1) == Fingerprint(-1, 0, 1, 0)
        assert analysis.sheets[1].table.fingerprint(2, 3) == Fingerprint(-2, 0, 0, 0)

    def test_shape_of_another_sheet_lends_no_parse_outside_the_sheet(self):
        # =A4 at B5 and =A0 at B1 share a key; only the first parses.
        first = Worksheet("First", {(2, 5): CellContent.formula("=A4")})
        second = Worksheet("Other", {(2, 1): CellContent.formula("=A0")})
        analysis = pipeline.analyze_workbook(Workbook("wb", [first, second]))
        assert analysis.sheets[0].table.kind(2, 5) is CellKind.FORMULA
        assert analysis.sheets[1].table.kind(2, 1) is CellKind.TEXT
        assert analysis.sheets[1].table.diagnostics == [
            "Other!B1: unparseable formula treated as text (reference A0 outside the sheet at offset 1)"
        ]

    def test_pipeline_calls_the_hooks_the_tracer_wraps(self, monkeypatch):
        # perfbench's tracer wraps vectors.parse_formula and
        # pipeline.analyze_sheet_vectors by name.
        seen = []

        def wrap(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                seen.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        wrap(vectors, "parse_formula")
        wrap(pipeline, "analyze_sheet_vectors")
        workbook = inconsistent_sum_workbook()
        pipeline.analyze_workbook(workbook)
        assert seen.count("analyze_sheet_vectors") == 1
        assert seen.count("parse_formula") == 2  # the two shapes of F6:F11
