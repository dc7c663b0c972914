"""Formula grammar: what a parse accepts, refuses and reads."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from gridlint.formula import (
    MAX_NESTING,
    FormulaParseError,
    SHEET_COLUMNS,
    SHEET_ROWS,
    RefRect,
    parse_formula,
    shape_key,
    shape_printer,
)
from gridlint.model import column_to_letters
from oracle import RangeTooLargeError, RawReference, expand_range, ref_rects, references


def refs_of(text):
    return list(references(parse_formula(text)))


def read(text):
    """(references as rectangles, numeric-constant flag) of a formula."""
    parsed = parse_formula(text)
    return ref_rects(parsed), parsed.numeric_constant


A1, B2 = RefRect(1, 1, 1, 1), RefRect(2, 2, 2, 2)


class TestAtoms:
    def test_number(self):
        assert parse_formula("=42") == ((), [], True)

    def test_float_and_scientific(self):
        for text in ("=3.25", "=1e3", "=2.5E-2", "=.5", "=7."):
            assert read(text) == ([], True)

    def test_string(self):
        assert parse_formula('="hello"') == ((), [], False)

    def test_string_quote_escape(self):
        assert read('="say ""hi"""') == ([], False)
        # Cell-like text inside a string is no reference.
        assert read('="A1 ""B2"""&B2') == ([B2], False)

    def test_plain_ref(self):
        parsed = parse_formula("=B5")
        assert parsed == (((0, 0, None, None),), [(2, 5, False, False)], False)
        assert ref_rects(parsed) == [RefRect(2, 5, 2, 5, False, False, None, None)]

    def test_absolute_flags(self):
        assert parse_formula("=$B$5").corners == [(2, 5, True, True)]
        assert parse_formula("=$B5").corners == [(2, 5, True, False)]
        assert parse_formula("=B$5").corners == [(2, 5, False, True)]

    def test_sheet_qualified(self):
        (rect,) = ref_rects(parse_formula("=Sheet2!A1"))
        assert rect.sheet == "Sheet2" and rect.workbook is None

    def test_quoted_sheet(self):
        (rect,) = ref_rects(parse_formula("='My Sheet'!A1"))
        assert rect.sheet == "My Sheet"

    def test_quoted_sheet_escape(self):
        (rect,) = ref_rects(parse_formula("='It''s'!A1"))
        assert rect.sheet == "It's"

    def test_workbook_qualified(self):
        (rect,) = ref_rects(parse_formula("=[Book2]Sheet1!A1"))
        assert rect.workbook == "Book2" and rect.sheet == "Sheet1"


class TestRanges:
    def test_simple_range(self):
        parsed = parse_formula("=SUM(A1:B2)")
        assert parsed == (((0, 1, None, None),), [(1, 1, False, False), (2, 2, False, False)], False)

    def test_expansion_row_major(self):
        cells = refs_of("=SUM(A1:B2)")
        assert [(r.column, r.row) for r in cells] == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_reversed_corners_normalized(self):
        assert refs_of("=SUM(B2:A1)") == refs_of("=SUM(A1:B2)")

    def test_range_absolute_flags_combine(self):
        (only,) = {(r.column_absolute, r.row_absolute) for r in refs_of("=SUM($A$1:$B$2)")}
        assert only == (True, True)
        flags = {(r.column_absolute, r.row_absolute) for r in refs_of("=SUM($A$1:B2)")}
        assert flags == {(False, False)}

    def test_sheet_propagates_to_cells(self):
        cells = refs_of("=SUM(Sheet2!A1:B2)")
        assert all(r.sheet == "Sheet2" for r in cells)

    def test_mismatched_range_sheets_rejected(self):
        with pytest.raises(FormulaParseError):
            parse_formula("=SUM(A1:Sheet2!B2)")

    def test_huge_range_rejected(self):
        # the guard fires on expansion, before any cell list materializes
        with pytest.raises(RangeTooLargeError):
            refs_of("=SUM(A1:ZZ100000)")

    def test_expand_range_direct(self):
        a = RawReference(1, 1, False, False, None, None)
        b = RawReference(2, 3, False, False, None, None)
        assert len(expand_range(a, b)) == 6


class TestWholeLines:
    def test_whole_column(self):
        (rect,) = ref_rects(parse_formula("=SUM(B:B)"))
        assert rect == RefRect(2, 1, 2, SHEET_ROWS, False, True, None, None)

    def test_absolute_column_span(self):
        (rect,) = ref_rects(parse_formula("=SUM($B:$D)"))
        assert rect == RefRect(2, 1, 4, SHEET_ROWS, True, True, None, None)

    def test_mixed_anchors_are_relative(self):
        (rect,) = ref_rects(parse_formula("=SUM($B:D)"))
        assert (rect.column_absolute, rect.row_absolute) == (False, True)

    def test_whole_row(self):
        (rect,) = ref_rects(parse_formula("=SUM(3:3)"))
        assert rect == RefRect(1, 3, SHEET_COLUMNS, 3, True, False, None, None)
        (rect,) = ref_rects(parse_formula("=$2:$5"))
        assert rect == RefRect(1, 2, SHEET_COLUMNS, 5, True, True, None, None)

    def test_sheet_qualified(self):
        (rect,) = ref_rects(parse_formula("=SUM(Sheet2!A:C)"))
        assert rect == RefRect(1, 1, 3, SHEET_ROWS, False, True, "Sheet2", None)
        (rect,) = ref_rects(parse_formula("=SUM([Book2]'My Sheet'!4:2)"))
        assert rect == RefRect(1, 2, SHEET_COLUMNS, 4, True, False, "My Sheet", "Book2")

    def test_reversed_columns_normalized(self):
        assert ref_rects(parse_formula("=SUM(D:B)")) == ref_rects(parse_formula("=SUM(B:D)"))

    def test_among_other_arguments(self):
        rects, numeric_constant = read("=VLOOKUP(A2,Data!A:E,3,0)+1:1")
        assert [r.sheet for r in rects] == [None, "Data", None]
        assert numeric_constant

    def test_expansion_guard_still_applies(self):
        # The cell-by-cell oracle keeps its limit; ref_rects has none.
        parsed = parse_formula("=SUM(B:C)")
        with pytest.raises(RangeTooLargeError):
            references(parsed)
        assert ref_rects(parsed) == [RefRect(2, 1, 3, SHEET_ROWS, False, True)]

    @pytest.mark.parametrize("text", ["=SUM(B:B)", "=SUM($B:$D)", "=SUM(3:3)", "=Sheet2!A:C",
                                      "=SUM('My Sheet'!$1:5)", "=[Bk]S!B:$C+2"])
    def test_printed_back(self, text):
        # A whole line is fixed in the template and holds no cell token,
        # so the shape printer prints it back as written at any cell.
        (line,) = parse_formula(text).template
        assert type(line) is RefRect
        key, corners = shape_key(text, 3, 4)
        assert (key, corners) == (text, [])
        assert shape_printer(key)(9, 20) == (text, [])

    @pytest.mark.parametrize("bad", ["=SUM(B:B1)", "=SUM(A1:B)", "=SUM(B:)", "=SUM(3:)", "=1:2A"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormulaParseError):
            parse_formula(bad)


class TestRefRects:
    def test_cell_is_one_by_one(self):
        assert ref_rects(parse_formula("=$B5")) == [RefRect(2, 5, 2, 5, True, False, None, None)]

    def test_range_corners_normalized(self):
        assert ref_rects(parse_formula("=SUM(C4:A1)")) == [RefRect(1, 1, 3, 4)]

    def test_axis_absolute_only_when_both_corners_agree(self):
        (rect,) = ref_rects(parse_formula("=SUM($A$1:$B2)"))
        assert (rect.column_absolute, rect.row_absolute) == (True, False)

    def test_source_order_and_qualifiers(self):
        rects = ref_rects(parse_formula("=B1+Other!A1:A3+[W]S!C2"))
        assert [(r.left, r.sheet, r.workbook) for r in rects] == [(2, None, None), (1, "Other", None),
                                                                 (3, "S", "W")]

    def test_a_million_rows_is_one_rect(self):
        assert ref_rects(parse_formula("=SUM(B1:B1100000)")) == [RefRect(2, 1, 2, 1100000)]


class TestOperators:
    def test_power_right_associative(self):
        assert read("=2^3^2") == ([], True)
        # Each right operand of "^" nests one level deeper.
        assert read("=A1" + "^2" * MAX_NESTING) == ([A1], True)
        with pytest.raises(FormulaParseError, match="nesting"):
            parse_formula("=A1" + "^2" * (MAX_NESTING + 1))

    def test_unary_minus(self):
        assert read("=-A1") == ([A1], False)
        assert read("=-2^2") == ([], True)

    def test_percent_postfix(self):
        assert read("=50%") == ([], True)
        assert read("=A1 % %") == ([A1], False)

    def test_comparison_and_concat(self):
        assert read('=A1&"x"<>B2') == ([A1, B2], False)

    def test_parens(self):
        assert read("=(1+2)*3") == ([], True)
        assert read("=( A1 )") == ([A1], False)

    @pytest.mark.parametrize("text, ops, leaves", [
        ("=1-2-3", ("-", "-"), ("1", "2", "3")),
        ("=8/4/2", ("/", "/"), ("8", "4", "2")),
        ('="a"&"b"&"c"', ("&", "&"), ('"a"', '"b"', '"c"')),
        ("=1<2<3", ("<", "<"), ("1", "2", "3")),
        ("=1+2-3", ("+", "-"), ("1", "2", "3")),
        ("=1*2/3", ("*", "/"), ("1", "2", "3")),
    ])
    def test_left_associative_at_every_level(self, text, ops, leaves):
        # A left-associative level is one loop, so a chain of any length
        # nests nothing.
        a, b, c = leaves
        assert text == f"={a}{ops[0]}{b}{ops[1]}{c}"
        chain = f"={a}" + f"{ops[0]}{b}{ops[1]}{c}" * 10 * MAX_NESTING
        assert read(text) == read(chain) == ([], a.isdigit())

    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "=", "<", ">"])
    def test_comparison_read_as_one_operator(self, op):
        # No operand starts with "=" or ">", so a split "<=" would be refused.
        assert read(f"=A1{op}2") == ([A1], True)
        assert read(f"=1{op}2{op}3") == ([], True)


class TestFunctions:
    def test_call(self):
        assert read("=SUM(A1, B2)") == ([A1, B2], False)

    def test_name_uppercased(self):
        # A function or boolean name is read in any case.
        assert parse_formula("=sum(A1)") == parse_formula("=SUM(A1)")
        assert parse_formula("=True") == parse_formula("=TRUE")

    def test_nested(self):
        assert read("=MAX(SUM(A1:A3), 0)") == ([RefRect(1, 1, 1, 3)], True)

    def test_zero_arg(self):
        assert parse_formula("=PI()") == ((), [], False)

    def test_bare_name_without_call_is_error(self):
        with pytest.raises(FormulaParseError):
            parse_formula("=Revenue")


class TestBooleans:
    def test_literals(self):
        assert parse_formula("=TRUE") == ((), [], False)
        assert parse_formula("=false") == ((), [], False)

    def test_in_arguments(self):
        assert read("=IF(A1>0,TRUE,FALSE)") == ([A1], True)
        rects, _ = read("=VLOOKUP(A2,Data!$A$1:$E$99,3,FALSE)")
        assert rects == [RefRect(1, 2, 1, 2), RefRect(1, 1, 5, 99, True, True, "Data")]
        assert len(refs_of("=VLOOKUP(A2,Data!$A$1:$E$99,3,FALSE)")) == 1 + 5 * 99

    def test_constant_but_not_numeric(self):
        assert read("=IF(A1>0,TRUE,FALSE)")[1]  # the 0
        assert not read("=IF(A1,TRUE,FALSE)")[1]

    def test_call_with_parentheses_stays_a_call(self):
        assert read("=TRUE()") == ([], False)
        assert read("=TRUE(A1)") == ([A1], False)

    def test_printed_back(self):
        # The shape printer moves the reference and keeps the booleans as written.
        key, _ = shape_key("=IF(A1,TRUE,false)", 2, 1)
        assert shape_printer(key)(2, 1) == ("=IF(A1,TRUE,false)", [(1, 1, False, False)])
        assert shape_printer(key)(3, 5) == ("=IF(B5,TRUE,false)", [(2, 5, False, False)])


def nested(kind: str, n: int) -> str:
    return {
        "paren": "=" + "(" * n + "A1" + ")" * n,
        "call": "=" + "ABS(" * n + "A1" + ")" * n,
        "sign": "=" + "-" * n + "A1",
        "power": "=A1" + "^2" * n,
    }[kind]


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestNesting:
    @pytest.mark.parametrize("kind", ["paren", "call", "sign", "power"])
    def test_limit_is_exact(self, kind):
        assert len(refs_of(nested(kind, MAX_NESTING))) == 1
        with pytest.raises(FormulaParseError, match="nesting"):
            parse_formula(nested(kind, MAX_NESTING + 1))

    def test_five_thousand_parentheses_is_a_parse_error(self):
        with pytest.raises(FormulaParseError, match="nesting"):
            parse_formula("=" + "(" * 5000 + "A1+1" + ")" * 5000)

    def test_full_depth_needs_few_frames(self):
        # A call level, the costliest, takes nine parser frames: the four
        # binary levels, power, unary sign, postfix, atom and the call.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 10 * MAX_NESTING)
        try:
            assert len(refs_of(nested("call", MAX_NESTING))) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_long_flat_chain_is_analyzed(self):
        text = "=" + "+".join(["A1"] * 2500)
        assert len(text) == 7500
        parsed = parse_formula(text)
        assert len(references(parsed)) == 2500
        assert not parsed.numeric_constant


# One refusal per raise site, with its message and offset.
REFUSALS = {
    "": ("formula must start with '='", 0),
    "A1": ("formula must start with '='", 0),
    "=": ("expected a value, reference, or function", 1),
    "=1+": ("expected a value, reference, or function", 3),
    "=(1": ("expected ')'", 3),
    "=SUM(A1": ("expected ')'", 7),
    "=A1 B1": ("unexpected trailing input", 4),
    "=1..2": ("unexpected trailing input", 3),
    '="unterminated': ("unterminated string literal", 1),
    '=1&"a""b': ("unterminated string literal", 3),  # a doubled quote closes nothing
    "=.x": ("malformed number", 1),
    "=XFE1": ("reference XFE1 outside the sheet", 1),
    "=SUM(XFE:XFE)": ("columns XFE:XFE outside the sheet", 5),
    "=SUM(0:3)": ("rows 0:3 outside the sheet", 5),
    "=SUM(A1:Sheet2!B2)": ("range endpoints on different sheets", 8),
    "=SUM(A1:)": ("expected cell address after ':'", 8),
    "=Sheet2!+1": ("expected cell address after sheet qualifier", 8),
    "=Revenue": ("unsupported name 'Revenue'", 1),
    "=" + "-" * (MAX_NESTING + 1) + "1": (f"nesting deeper than {MAX_NESTING} levels", MAX_NESTING + 2),
}


class TestErrors:
    @pytest.mark.parametrize("bad", list(REFUSALS))
    def test_rejected(self, bad):
        message, offset = REFUSALS[bad]
        with pytest.raises(FormulaParseError) as exc:
            parse_formula(bad)
        assert str(exc.value) == f"{message} at offset {offset}"
        assert exc.value.position == offset

    def test_error_carries_position(self):
        with pytest.raises(FormulaParseError) as exc:
            parse_formula("=1+")
        assert exc.value.position is not None


class TestReferences:
    def test_in_order(self):
        cells = refs_of("=B1+A1")
        assert [(r.column, r.row) for r in cells] == [(2, 1), (1, 1)]

    def test_counts(self):
        assert read('=5+A1&"x"') == ([A1], True)

    def test_no_constants(self):
        assert not parse_formula("=A1+B1").numeric_constant


# --- what a parse reads of written text ---

_NAMES = st.sampled_from(["SUM", "MAX", "ABS", "IF", "COUNT"])
_SHEETS = st.one_of(st.none(), st.sampled_from(["Sheet2", "My Sheet", "Data"]))


def _ref_text(draw) -> tuple[str, RefRect]:
    column = draw(st.integers(1, 30))
    row = draw(st.integers(1, 99))
    dollar_c = draw(st.booleans())
    dollar_r = draw(st.booleans())
    sheet = draw(_SHEETS)
    rect = RefRect(column, row, column, row, dollar_c, dollar_r, sheet, None)
    body = f"{'$' if dollar_c else ''}{column_to_letters(column)}{'$' if dollar_r else ''}{row}"
    if sheet is None:
        return body, rect
    quoted = f"'{sheet}'" if " " in sheet else sheet
    return f"{quoted}!{body}", rect


@st.composite
def formula_texts(draw, depth=3) -> tuple[str, list[RefRect], bool]:
    """Random well-formed formula source text, with the references it
    writes, in order, and whether it writes a number."""
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            number = draw(st.integers(0, 9999))
            return str(number), [], True
        if choice == 1:
            value = draw(st.text(alphabet='abc x"A1', max_size=5))
            return '"' + value.replace('"', '""') + '"', [], False
        text, rect = _ref_text(draw)
        return text, [rect], False
    choice = draw(st.integers(0, 3))
    if choice == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "^", "&", "<", "<=", "<>", "="]))
        (left, left_rects, left_number), (right, right_rects, right_number) = (
            draw(formula_texts(depth=depth - 1)) for _ in range(2))
        return f"{left}{op}{right}", left_rects + right_rects, left_number or right_number
    if choice == 1:
        name = draw(_NAMES)
        args = [draw(formula_texts(depth=depth - 1)) for _ in range(draw(st.integers(0, 3)))]
        return (f"{name}({', '.join(text for text, _, _ in args)})",
                [rect for _, rects, _ in args for rect in rects], any(number for _, _, number in args))
    inner, rects, number = draw(formula_texts(depth=depth - 1))
    return (f"({inner})" if choice == 2 else f"-{inner}"), rects, number


@settings(max_examples=300, deadline=None)
@given(formula_texts())
def test_parse_reads_what_was_written(written):
    """A parse reads the references a formula writes, in order, and
    whether it writes a number."""
    body, rects, number = written
    parsed = parse_formula("=" + body)
    assert ref_rects(parsed) == rects
    assert parsed.numeric_constant is number
