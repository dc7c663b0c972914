"""Recursive-descent parser for spreadsheet formulas.

Covers numbers, strings, the booleans TRUE and FALSE, A1-style cell
references with any combination of $ anchors, rectangular ranges, whole
columns (B:D) and whole rows (3:5), sheet- and workbook-qualified
references, arbitrary function calls, the usual arithmetic / comparison /
concatenation operators, postfix percent, unary sign, and parentheses.

Unknown function names parse as opaque calls.  Anything outside the grammar
(R1C1 addresses, structured references, array formulas, bare names) raises
FormulaParseError; callers are expected to degrade such cells to text.
So does a reference outside the sheet: a column past XFD (16,384) or
row 0 (`model.outside_sheet`, the rule cell addresses follow too).
So does nesting deeper than MAX_NESTING levels, counting each parenthesis,
function call, unary sign and right operand of "^": the parser recurses
once per level, and the bound keeps it well inside Python's recursion
limit.  Long flat chains such as =A1+A1+...+A1 nest nothing and have no
length limit; the tree walks below are iterative.

Precedence, loosest to tightest: comparisons, "&", "+ -", "* /", "^"
(right-associative), unary sign, postfix "%".  Unary sign binds tighter
than "^", so -2^2 means (-2)^2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

# SHEET_COLUMNS and SHEET_ROWS are the open axis of B:B or 3:3.
from .model import SHEET_COLUMNS, SHEET_ROWS, GridlintError, letters_to_column, outside_sheet

# Excel's own limit on nested functions.  A level costs at most nine parser
# frames (a call), so a formula at full depth stays under 600 frames.
MAX_NESTING = 64


class FormulaParseError(GridlintError):
    """Formula text falls outside the supported grammar."""

    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = tuple(expected)


@dataclass(frozen=True)
class RawReference:
    """A single cell reference as written: 1-based coordinates plus
    per-axis absolute flags and optional sheet / workbook qualifiers."""

    column: int
    row: int
    column_absolute: bool = False
    row_absolute: bool = False
    sheet: str | None = None
    workbook: str | None = None


class RefRect(NamedTuple):
    """A reference as written, as the rectangle of cells it covers: corners
    normalised, per-axis absolute flags, optional sheet and workbook.  A
    cell reference is a 1x1 RefRect."""

    left: int
    top: int
    right: int
    bottom: int
    column_absolute: bool = False
    row_absolute: bool = False
    sheet: str | None = None
    workbook: str | None = None


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class NumberLit(Node):
    value: float


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class BoolLit(Node):
    """TRUE or FALSE: a constant, but not a numeric one."""

    value: bool


@dataclass(frozen=True)
class CellRef(Node):
    ref: RawReference
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class RangeRef(Node):
    """start and end are the corners as written.  For whole columns (B:D)
    and whole rows (3:5), `whole` is "columns" or "rows" and the corners
    span the open axis from 1 to the sheet's extent, absolute on it."""

    start: RawReference
    end: RawReference
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    whole: str = ""


@dataclass(frozen=True)
class FunctionCall(Node):
    name: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class UnaryOp(Node):
    """op is '+', '-' (prefix) or '%' (postfix)."""

    op: str
    operand: Node


@dataclass(frozen=True)
class Paren(Node):
    inner: Node


_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_A1_RE = re.compile(r"(\$?)([A-Za-z]{1,8})(\$?)([0-9]{1,7})")
_COLUMNS_RE = re.compile(r"(\$?)([A-Za-z]{1,8}):(\$?)([A-Za-z]{1,8})")
_ROWS_RE = re.compile(r"(\$?)([0-9]{1,7}):(\$?)([0-9]{1,7})")
_SHEET_PREFIX_RE = re.compile(
    r"(?:\[(?P<wb>[^\[\]]+)\])?(?:'(?P<qsheet>(?:[^']|'')*)'|(?P<sheet>[A-Za-z_][A-Za-z0-9_.]*))!"
)
_CMP_OPS = ("<=", ">=", "<>", "=", "<", ">")

# Lexer of shape_key.  At each position it reads what the parser would
# read there: a run of characters that start nothing below (a run of
# parentheses on its own, which the regex engine scans fastest), a
# number (_NUMBER_RE), a string literal, a cell token (_A1_RE, refused
# before what _try_a1 refuses), a sheet prefix (_SHEET_PREFIX_RE) or a
# name (_NAME_RE).  The parser tries a sheet prefix before a cell; the
# token refuses a following "!", which is where a prefix would match.
# So the "A1" of a string, of a quoted sheet name, of LOG10( or of 1E5
# is no token, and a whole line (B:B, 3:3) stays plain text.  Only the
# token has groups.
_SHAPE_RE = re.compile(
    r"""\(+|\)+|[^"'\[A-Za-z_$0-9.()]+"""
    r"|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r'|"(?:[^"]+|"")*"?'
    r"|(\$?)([A-Za-z]{1,8})(\$?)([0-9]{1,7})(?![A-Za-z0-9_.(!])"
    r"|(?:\[[^\[\]]+\])?(?:'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_.]*)!"
    r"|[A-Za-z_][A-Za-z0-9_.]*"
)


class _Scanner:
    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = offset
        self.depth = 0

    def nest(self) -> None:
        """Enter one nesting level; callers decrement depth on the way out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def match_re(self, pattern: re.Pattern) -> re.Match | None:
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise FormulaParseError(f"expected {literal!r}", self.pos, [literal])


def parse_formula(text: str) -> Node:
    """Parse a full formula string (with its leading '=') into an AST."""
    if not text.startswith("="):
        raise FormulaParseError("formula must start with '='", 0, ["="])
    sc = _Scanner(text, 1)
    node = _parse_compare(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise FormulaParseError("unexpected trailing input", sc.pos, ["end of formula"])
    return node


def _parse_compare(sc: _Scanner) -> Node:
    node = _parse_concat(sc)
    while True:
        sc.skip_ws()
        for op in _CMP_OPS:
            if sc.match(op):
                node = BinaryOp(op, node, _parse_concat(sc))
                break
        else:
            return node


def _parse_concat(sc: _Scanner) -> Node:
    node = _parse_additive(sc)
    while True:
        sc.skip_ws()
        if sc.match("&"):
            node = BinaryOp("&", node, _parse_additive(sc))
        else:
            return node


def _parse_additive(sc: _Scanner) -> Node:
    node = _parse_multiplicative(sc)
    while True:
        sc.skip_ws()
        if sc.match("+"):
            node = BinaryOp("+", node, _parse_multiplicative(sc))
        elif sc.match("-"):
            node = BinaryOp("-", node, _parse_multiplicative(sc))
        else:
            return node


def _parse_multiplicative(sc: _Scanner) -> Node:
    node = _parse_power(sc)
    while True:
        sc.skip_ws()
        if sc.match("*"):
            node = BinaryOp("*", node, _parse_power(sc))
        elif sc.match("/"):
            node = BinaryOp("/", node, _parse_power(sc))
        else:
            return node


def _parse_power(sc: _Scanner) -> Node:
    node = _parse_unary(sc)
    sc.skip_ws()
    if sc.match("^"):
        sc.nest()
        right = _parse_power(sc)
        sc.depth -= 1
        return BinaryOp("^", node, right)
    return node


def _parse_unary(sc: _Scanner) -> Node:
    sc.skip_ws()
    for sign in "-+":
        if sc.match(sign):
            sc.nest()
            operand = _parse_unary(sc)
            sc.depth -= 1
            return UnaryOp(sign, operand)
    return _parse_postfix(sc)


def _parse_postfix(sc: _Scanner) -> Node:
    node = _parse_atom(sc)
    while True:
        sc.skip_ws()
        if sc.match("%"):
            node = UnaryOp("%", node)
        else:
            return node


def _parse_atom(sc: _Scanner) -> Node:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "(":
        sc.pos += 1
        sc.nest()
        inner = _parse_compare(sc)
        sc.skip_ws()
        sc.expect(")")
        sc.depth -= 1
        return Paren(inner)
    if ch == '"':
        return _parse_string(sc)
    if ch.isdigit() or ch == ".":
        rows = _try_lines(sc, None, None, sc.pos)
        if rows is not None:
            return rows
        m = sc.match_re(_NUMBER_RE)
        if not m:
            raise FormulaParseError("malformed number", sc.pos, ["number"])
        return NumberLit(float(m.group(0)))
    return _parse_ref_or_call(sc)


def _parse_string(sc: _Scanner) -> StringLit:
    start = sc.pos
    sc.pos += 1
    chunks = []
    while True:
        if sc.pos >= len(sc.text):
            raise FormulaParseError("unterminated string literal", start, ['"'])
        ch = sc.text[sc.pos]
        if ch == '"':
            if sc.text.startswith('""', sc.pos):
                chunks.append('"')
                sc.pos += 2
                continue
            sc.pos += 1
            return StringLit("".join(chunks))
        chunks.append(ch)
        sc.pos += 1


def _unquote_sheet(quoted: str) -> str:
    return quoted.replace("''", "'")


def _try_a1(sc: _Scanner, sheet: str | None, workbook: str | None) -> RawReference | None:
    save = sc.pos
    m = sc.match_re(_A1_RE)
    if not m:
        return None
    # A bare name like SUM( or A1B would otherwise half-match as a reference.
    nxt = sc.peek()
    if nxt and (nxt.isalnum() or nxt in "_.("):
        sc.pos = save
        return None
    column, row = letters_to_column(m.group(2)), int(m.group(4))
    if outside_sheet(column, row):
        raise FormulaParseError(f"reference {m.group(0)} outside the sheet", save)
    return RawReference(
        column=column,
        row=row,
        column_absolute=m.group(1) == "$",
        row_absolute=m.group(3) == "$",
        sheet=sheet,
        workbook=workbook,
    )


def _try_lines(sc: _Scanner, sheet: str | None, workbook: str | None, start: int) -> RangeRef | None:
    """Whole columns such as $B:D or whole rows such as 3:$5, else None."""
    for pattern, whole in ((_COLUMNS_RE, "columns"), (_ROWS_RE, "rows")):
        save = sc.pos
        m = sc.match_re(pattern)
        if not m:
            continue
        nxt = sc.peek()
        if nxt and (nxt.isalnum() or nxt in "_.(:$"):
            sc.pos = save
            continue
        first_abs, second_abs = m.group(1) == "$", m.group(3) == "$"
        if whole == "columns":
            first = RawReference(letters_to_column(m.group(2)), 1, first_abs, True, sheet, workbook)
            second = RawReference(letters_to_column(m.group(4)), SHEET_ROWS, second_abs, True, sheet, workbook)
        else:
            first = RawReference(1, int(m.group(2)), True, first_abs, sheet, workbook)
            second = RawReference(SHEET_COLUMNS, int(m.group(4)), True, second_abs, sheet, workbook)
        if outside_sheet(first.column, first.row) or outside_sheet(second.column, second.row):
            raise FormulaParseError(f"{whole} {m.group(0)} outside the sheet", save)
        return RangeRef(first, second, span=(start, sc.pos), whole=whole)
    return None


def _parse_ref_or_call(sc: _Scanner) -> Node:
    start = sc.pos
    prefix = sc.match_re(_SHEET_PREFIX_RE)
    sheet = None
    workbook = None
    if prefix:
        workbook = prefix.group("wb")
        sheet = prefix.group("sheet") or _unquote_sheet(prefix.group("qsheet") or "")
        first = _try_a1(sc, sheet, workbook)
        if first is not None:
            return _finish_ref(sc, first, start)
        lines = _try_lines(sc, sheet, workbook, start)
        if lines is None:
            raise FormulaParseError("expected cell address after sheet qualifier", sc.pos, ["A1 reference"])
        return lines

    first = _try_a1(sc, None, None)
    if first is not None:
        return _finish_ref(sc, first, start)
    lines = _try_lines(sc, None, None, start)
    if lines is not None:
        return lines

    m = sc.match_re(_NAME_RE)
    if m:
        name = m.group(0)
        if sc.peek() == "(":
            sc.pos += 1
            sc.nest()
            args: list[Node] = []
            sc.skip_ws()
            if not sc.match(")"):
                args.append(_parse_compare(sc))
                sc.skip_ws()
                while sc.match(","):
                    args.append(_parse_compare(sc))
                    sc.skip_ws()
                sc.expect(")")
            sc.depth -= 1
            return FunctionCall(name.upper(), tuple(args))
        if name.upper() in ("TRUE", "FALSE"):
            return BoolLit(name.upper() == "TRUE")
        raise FormulaParseError(f"unsupported name {name!r}", start, ["reference", "function call"])
    raise FormulaParseError("expected a value, reference, or function", sc.pos,
                            ["number", "string", "reference", "function call", "("])


def _finish_ref(sc: _Scanner, first: RawReference, start: int) -> Node:
    save = sc.pos
    if sc.match(":"):
        prefix = sc.match_re(_SHEET_PREFIX_RE)
        if prefix:
            other = prefix.group("sheet") or _unquote_sheet(prefix.group("qsheet") or "")
            if other != first.sheet or prefix.group("wb") != first.workbook:
                raise FormulaParseError("range endpoints on different sheets", save + 1, [])
        second = _try_a1(sc, first.sheet, first.workbook)
        if second is None:
            # "A1:" followed by non-address; ranges are the only use of ':'.
            raise FormulaParseError("expected cell address after ':'", sc.pos, ["A1 reference"])
        return RangeRef(first, second, span=(start, sc.pos))
    return CellRef(first, span=(start, sc.pos))


Corner = tuple[int, int, bool, bool]  # (column, row, column_absolute, row_absolute)


def ref_template(node: Node) -> tuple[tuple, list[Corner]]:
    """(template, corners): a formula's references over its written corners.

    corners lists each cell reference and both corners of each range, in
    source order.  The template has one entry per reference: (i, j,
    sheet, workbook) for the rectangle that corners[i] and corners[j]
    span (i == j for a cell), or a fixed RefRect for a whole line (B:B,
    3:3), whose text holds no corner.
    """
    template: list = []
    corners: list[Corner] = []
    for item in _walk(node):
        if isinstance(item, CellRef):
            r = item.ref
            template.append((len(corners), len(corners), r.sheet, r.workbook))
            corners.append(_corner(r))
        elif isinstance(item, RangeRef):
            a, b = item.start, item.end
            if item.whole:
                template.append(_span(_corner(a), _corner(b), a.sheet, a.workbook))
            else:
                template.append((len(corners), len(corners) + 1, a.sheet, a.workbook))
                corners += (_corner(a), _corner(b))
    return tuple(template), corners


def _corner(r: RawReference) -> Corner:
    return r.column, r.row, r.column_absolute, r.row_absolute


def _span(a: Corner, b: Corner, sheet: str | None, workbook: str | None) -> RefRect:
    c0, r0, ca0, ra0 = a
    c1, r1, ca1, ra1 = b
    return RefRect(min(c0, c1), min(r0, r1), max(c0, c1), max(r0, r1), ca0 and ca1, ra0 and ra1, sheet, workbook)


def template_rects(template: tuple, corners: Sequence[Corner]) -> tuple[RefRect, ...]:
    """The RefRects of a template whose corners are filled in."""
    out = []
    for entry in template:
        if type(entry) is RefRect:
            out.append(entry)
            continue
        i, j, sheet, workbook = entry
        if i == j:
            c0, r0, ca0, ra0 = corners[i]
            out.append(RefRect(c0, r0, c0, r0, ca0, ra0, sheet, workbook))
            continue
        out.append(_span(corners[i], corners[j], sheet, workbook))
    return tuple(out)


def shape_key(text: str, column: int, row: int) -> tuple[str | None, list[Corner]]:
    """(key, corners) of a formula written in the cell at (column, row).

    corners are the cell tokens that _SHAPE_RE lexes, in source order.
    The key is the text with each token rewritten as its two axes,
    comma-separated between NUL characters: a relative axis as its
    offset from the cell, an anchored one as "$" and its value.  Copies
    of a formula that differ only by translation share a key.  The rest
    of the text is kept as written, so a key and a cell determine the
    text up to how a token is spelled (letter case, leading zeros),
    which the parser does not see.  A text that holds NUL itself gets no
    key, and neither does one with a token `outside_sheet`: the parser
    refuses it, so a copy that lies inside the sheet must not lend it a
    parse.
    """
    if "\x00" in text:
        return None, []
    pieces = []
    corners: list[Corner] = []
    last = 0
    for m in _SHAPE_RE.finditer(text):
        if m.lastindex is None:
            continue
        col_dollar, letters, row_dollar, digits = m.groups()
        c, r = letters_to_column(letters), int(digits)
        if outside_sheet(c, r):
            return None, []
        corners.append((c, r, col_dollar == "$", row_dollar == "$"))
        pieces.append(text[last:m.start()])
        pieces.append(f"\x00{col_dollar}{c if col_dollar else c - column},"
                      f"{row_dollar}{r if row_dollar else r - row}\x00")
        last = m.end()
    pieces.append(text[last:])
    return "".join(pieces), corners


def numeric_constant_count(node: Node) -> int:
    return sum(1 for item in _walk(node) if isinstance(item, NumberLit))


def _walk(node: Node) -> Iterator[Node]:
    """Every node in preorder, children left to right, with an explicit stack."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FunctionCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, BinaryOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, Paren):
            stack.append(node.inner)
