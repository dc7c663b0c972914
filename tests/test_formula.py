"""Formula grammar: parsing, reference extraction, printing."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from gridlint.formula import (
    MAX_NESTING,
    BinaryOp,
    BoolLit,
    CellRef,
    FormulaParseError,
    FunctionCall,
    NumberLit,
    Paren,
    RangeRef,
    SHEET_COLUMNS,
    SHEET_ROWS,
    RawReference,
    RefRect,
    StringLit,
    UnaryOp,
    numeric_constant_count,
    parse_formula,
)
from oracle import RangeTooLargeError, constant_count, expand_range, ref_rects, references, to_text


def refs_of(text):
    return list(references(parse_formula(text)))


class TestAtoms:
    def test_number(self):
        ast = parse_formula("=42")
        assert isinstance(ast, NumberLit) and ast.value == 42.0

    def test_float_and_scientific(self):
        assert parse_formula("=3.25").value == 3.25
        assert parse_formula("=1e3").value == 1000.0
        assert parse_formula("=2.5E-2").value == 0.025

    def test_string(self):
        ast = parse_formula('="hello"')
        assert isinstance(ast, StringLit) and ast.value == "hello"

    def test_string_quote_escape(self):
        assert parse_formula('="say ""hi"""').value == 'say "hi"'

    def test_plain_ref(self):
        ast = parse_formula("=B5")
        assert isinstance(ast, CellRef)
        assert ast.ref == RawReference(2, 5, False, False, None, None)

    def test_absolute_flags(self):
        assert parse_formula("=$B$5").ref == RawReference(2, 5, True, True, None, None)
        assert parse_formula("=$B5").ref == RawReference(2, 5, True, False, None, None)
        assert parse_formula("=B$5").ref == RawReference(2, 5, False, True, None, None)

    def test_sheet_qualified(self):
        ast = parse_formula("=Sheet2!A1")
        assert ast.ref.sheet == "Sheet2" and ast.ref.workbook is None

    def test_quoted_sheet(self):
        ast = parse_formula("='My Sheet'!A1")
        assert ast.ref.sheet == "My Sheet"

    def test_quoted_sheet_escape(self):
        ast = parse_formula("='It''s'!A1")
        assert ast.ref.sheet == "It's"

    def test_workbook_qualified(self):
        ast = parse_formula("=[Book2]Sheet1!A1")
        assert ast.ref.workbook == "Book2" and ast.ref.sheet == "Sheet1"


class TestRanges:
    def test_simple_range(self):
        ast = parse_formula("=SUM(A1:B2)")
        rng = ast.args[0]
        assert isinstance(rng, RangeRef)

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
        ast = parse_formula("=VLOOKUP(A2,Data!A:E,3,0)+1:1")
        assert [r.sheet for r in ref_rects(ast)] == [None, "Data", None]
        assert numeric_constant_count(ast) == 2

    def test_expansion_guard_still_applies(self):
        # The cell-by-cell oracle keeps its limit; ref_rects has none.
        ast = parse_formula("=SUM(B:C)")
        with pytest.raises(RangeTooLargeError):
            references(ast)
        assert ref_rects(ast) == [RefRect(2, 1, 3, SHEET_ROWS, False, True)]

    @pytest.mark.parametrize("text", ["=SUM(B:B)", "=SUM($B:$D)", "=SUM(3:3)", "=Sheet2!A:C",
                                      "=SUM('My Sheet'!$1:5)", "=[Bk]S!B:$C+2"])
    def test_printed_back(self, text):
        ast = parse_formula(text)
        assert to_text(ast) == text
        assert parse_formula(to_text(ast)) == ast

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
    def test_precedence_shape(self):
        ast = parse_formula("=1+2*3")
        assert isinstance(ast, BinaryOp) and ast.op == "+"
        assert isinstance(ast.right, BinaryOp) and ast.right.op == "*"

    def test_power_right_associative(self):
        ast = parse_formula("=2^3^2")
        assert ast.op == "^"
        assert isinstance(ast.right, BinaryOp) and ast.right.op == "^"

    def test_unary_minus(self):
        ast = parse_formula("=-A1")
        assert isinstance(ast, UnaryOp) and ast.op == "-"

    def test_percent_postfix(self):
        ast = parse_formula("=50%")
        assert isinstance(ast, UnaryOp) and ast.op == "%"

    def test_comparison_and_concat(self):
        ast = parse_formula('=A1&"x"<>B1')
        assert ast.op == "<>"
        assert isinstance(ast.left, BinaryOp) and ast.left.op == "&"

    def test_parens(self):
        ast = parse_formula("=(1+2)*3")
        assert ast.op == "*" and isinstance(ast.left, Paren)

    @pytest.mark.parametrize("text, ops, leaves", [
        ("=1-2-3", ("-", "-"), (NumberLit(1.0), NumberLit(2.0), NumberLit(3.0))),
        ("=8/4/2", ("/", "/"), (NumberLit(8.0), NumberLit(4.0), NumberLit(2.0))),
        ('="a"&"b"&"c"', ("&", "&"), (StringLit("a"), StringLit("b"), StringLit("c"))),
        ("=1<2<3", ("<", "<"), (NumberLit(1.0), NumberLit(2.0), NumberLit(3.0))),
        ("=1+2-3", ("+", "-"), (NumberLit(1.0), NumberLit(2.0), NumberLit(3.0))),
        ("=1*2/3", ("*", "/"), (NumberLit(1.0), NumberLit(2.0), NumberLit(3.0))),
    ])
    def test_left_associative_at_every_level(self, text, ops, leaves):
        # a op b op c groups as (a op b) op c.
        a, b, c = leaves
        assert parse_formula(text) == BinaryOp(ops[1], BinaryOp(ops[0], a, b), c)

    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "=", "<", ">"])
    def test_comparison_read_as_one_operator(self, op):
        assert parse_formula(f"=A1{op}2") == BinaryOp(op, CellRef(RawReference(1, 1)), NumberLit(2.0))
        assert parse_formula(f"=1{op}2{op}3").left == BinaryOp(op, NumberLit(1.0), NumberLit(2.0))


class TestFunctions:
    def test_call(self):
        ast = parse_formula("=SUM(A1, B2)")
        assert isinstance(ast, FunctionCall)
        assert ast.name == "SUM" and len(ast.args) == 2

    def test_name_uppercased(self):
        assert parse_formula("=sum(A1)").name == "SUM"

    def test_nested(self):
        ast = parse_formula("=MAX(SUM(A1:A3), 0)")
        assert isinstance(ast.args[0], FunctionCall)

    def test_zero_arg(self):
        ast = parse_formula("=PI()")
        assert isinstance(ast, FunctionCall) and ast.args == ()

    def test_bare_name_without_call_is_error(self):
        with pytest.raises(FormulaParseError):
            parse_formula("=Revenue")


class TestBooleans:
    def test_literals(self):
        assert parse_formula("=TRUE") == BoolLit(True)
        assert parse_formula("=false") == BoolLit(False)

    def test_in_arguments(self):
        ast = parse_formula("=IF(A1>0,TRUE,FALSE)")
        assert ast.args[1:] == (BoolLit(True), BoolLit(False))
        lookup = parse_formula("=VLOOKUP(A2,Data!$A$1:$E$99,3,FALSE)")
        assert lookup.args[3] == BoolLit(False)
        assert len(refs_of("=VLOOKUP(A2,Data!$A$1:$E$99,3,FALSE)")) == 1 + 5 * 99

    def test_constant_but_not_numeric(self):
        ast = parse_formula("=IF(A1>0,TRUE,FALSE)")
        assert constant_count(ast) == 3  # 0, TRUE, FALSE
        assert numeric_constant_count(ast) == 1

    def test_call_with_parentheses_stays_a_call(self):
        assert parse_formula("=TRUE()") == FunctionCall("TRUE", ())

    def test_printed_back(self):
        assert to_text(parse_formula("=IF(A1,TRUE,FALSE)")) == "=IF(A1,TRUE,FALSE)"


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
        # A call level, the costliest, takes nine parser frames.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 10 * MAX_NESTING)
        try:
            assert len(refs_of(nested("call", MAX_NESTING))) == 1
        finally:
            sys.setrecursionlimit(limit)

    def test_long_flat_chain_is_analyzed(self):
        text = "=" + "+".join(["A1"] * 2500)
        assert len(text) == 7500
        ast = parse_formula(text)
        assert len(references(ast)) == 2500
        assert constant_count(ast) == 0


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "A1", "=", "=1+", "=(1", "=SUM(A1", "=A1 B1", "=1..2", '="unterminated'],
    )
    def test_rejected(self, bad):
        with pytest.raises((FormulaParseError, ValueError)):
            parse_formula(bad)

    def test_error_carries_position(self):
        with pytest.raises(FormulaParseError) as exc:
            parse_formula("=1+")
        assert exc.value.position is not None


class TestReferences:
    def test_in_order(self):
        cells = refs_of("=B1+A1")
        assert [(r.column, r.row) for r in cells] == [(2, 1), (1, 1)]

    def test_counts(self):
        ast = parse_formula('=5+A1&"x"')
        assert numeric_constant_count(ast) == 1
        assert constant_count(ast) == 2

    def test_no_constants(self):
        assert numeric_constant_count(parse_formula("=A1+B1")) == 0


# --- printer round-trip ---

_NAMES = st.sampled_from(["SUM", "MAX", "ABS", "IF", "COUNT"])
_SHEETS = st.one_of(st.none(), st.sampled_from(["Sheet2", "My Sheet", "Data"]))


def _ref_text(draw):
    column = draw(st.integers(1, 30))
    row = draw(st.integers(1, 99))
    dollar_c = draw(st.booleans())
    dollar_r = draw(st.booleans())
    sheet = draw(_SHEETS)
    from gridlint.model import column_to_letters

    body = f"{'$' if dollar_c else ''}{column_to_letters(column)}{'$' if dollar_r else ''}{row}"
    if sheet is None:
        return body
    quoted = f"'{sheet}'" if " " in sheet else sheet
    return f"{quoted}!{body}"


@st.composite
def formula_texts(draw, depth=3):
    """Random well-formed formula source text."""
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            number = draw(st.integers(0, 9999))
            return str(number)
        if choice == 1:
            value = draw(st.text(alphabet="abc x", max_size=5))
            return '"' + value.replace('"', '""') + '"'
        return _ref_text(draw)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "^", "&", "<", "<=", "<>", "="]))
        return f"{draw(formula_texts(depth=depth - 1))}{op}{draw(formula_texts(depth=depth - 1))}"
    if choice == 1:
        name = draw(_NAMES)
        n_args = draw(st.integers(0, 3))
        args = ", ".join(draw(formula_texts(depth=depth - 1)) for _ in range(n_args))
        return f"{name}({args})"
    if choice == 2:
        return f"({draw(formula_texts(depth=depth - 1))})"
    return f"-{draw(formula_texts(depth=depth - 1))}"


@settings(max_examples=300, deadline=None)
@given(formula_texts())
def test_print_parse_round_trip(body):
    """Printing a parsed formula and reparsing must reproduce the tree."""
    ast1 = parse_formula("=" + body)
    printed = to_text(ast1)
    ast2 = parse_formula(printed)
    assert ast1 == ast2
    assert to_text(ast2) == printed


def test_printer_guards_hand_built_precedence():
    # (1+2)*3 built without Paren nodes must still print unambiguously
    tree = BinaryOp("*", BinaryOp("+", NumberLit(1.0), NumberLit(2.0)), NumberLit(3.0))
    printed = to_text(tree)
    reparsed = parse_formula(printed)
    assert isinstance(reparsed, BinaryOp) and reparsed.op == "*"


def test_printer_formats_ints_without_decimal():
    assert to_text(parse_formula("=1+2")) == "=1+2"
