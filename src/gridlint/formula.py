"""Recursive-descent recognizer for spreadsheet formulas.

Covers numbers, strings, the booleans TRUE and FALSE, A1-style cell
references with any combination of $ anchors, rectangular ranges, whole
columns (B:D) and whole rows (3:5), sheet- and workbook-qualified
references, arbitrary function calls, the usual arithmetic / comparison /
concatenation operators, postfix percent, unary sign, and parentheses.

A parse builds no tree: it records what the fingerprint reads
(`ParsedFormula`), the references in source order and whether a number
literal occurs.  Operators, strings and names are checked, then dropped.

Unknown function names parse as opaque calls.  Anything outside the grammar
(R1C1 addresses, structured references, array formulas, bare names) raises
FormulaParseError; callers are expected to degrade such cells to text.
So does a reference outside the sheet: a column past XFD (16,384) or
row 0 (`model.outside_sheet`, the rule cell addresses follow too).
So does nesting deeper than MAX_NESTING levels, counting each parenthesis,
function call, unary sign and right operand of "^": the parser recurses
once per level, and the bound keeps it well inside Python's recursion
limit.  Long flat chains such as =A1+A1+...+A1 nest nothing and have no
length limit.

Precedence, loosest to tightest: comparisons, "&", "+ -", "* /", "^"
(right-associative), unary sign, postfix "%".  Unary sign binds tighter
than "^", so -2^2 means (-2)^2.  The four left-associative levels are
one loop over a table of their operators, one frame per level.  A parse
error carries the offset where the parser stopped.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence

# SHEET_COLUMNS and SHEET_ROWS are the open axis of B:B or 3:3.
from .model import SHEET_COLUMNS, SHEET_ROWS, GridlintError, column_to_letters, letters_to_column, outside_sheet

# Excel's own limit on nested functions.  A level costs at most nine parser
# frames (a call), so a formula at full depth stays under 600 frames.
MAX_NESTING = 64


class FormulaParseError(GridlintError):
    """Formula text falls outside the supported grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


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


Corner = tuple[int, int, bool, bool]  # (column, row, column_absolute, row_absolute)


class ParsedFormula(NamedTuple):
    """What a parse reads of a formula.

    corners lists each cell reference and both corners of each range, in
    source order.  The template has one entry per reference: (i, j,
    sheet, workbook) for the rectangle that corners[i] and corners[j]
    span (i == j for a cell), or a fixed RefRect for a whole line (B:B,
    3:3), whose text holds no corner.  numeric_constant is whether the
    formula holds a number literal; TRUE and FALSE are not numeric.
    """

    template: tuple
    corners: list[Corner]
    numeric_constant: bool


_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_A1_RE = re.compile(r"(\$?)([A-Za-z]{1,8})(\$?)([0-9]{1,7})")
_COLUMNS_RE = re.compile(r"(\$?)([A-Za-z]{1,8}):(\$?)([A-Za-z]{1,8})")
_ROWS_RE = re.compile(r"(\$?)([0-9]{1,7}):(\$?)([0-9]{1,7})")
# A string ends at the first quote that is not doubled; without the
# lookahead, "a""b would backtrack to the literal "a".
_STRING_RE = re.compile(r'"(?:[^"]|"")*"(?!")')
_SHEET_PREFIX_RE = re.compile(
    r"(?:\[(?P<wb>[^\[\]]+)\])?(?:'(?P<qsheet>(?:[^']|'')*)'|(?P<sheet>[A-Za-z_][A-Za-z0-9_.]*))!"
)
# The left-associative operator levels, loosest first ("^" is `_parse_power`).
# A level tries its operators in order, so "<=" is read before "<".
_BINARY_LEVELS = (("<=", ">=", "<>", "=", "<", ">"), ("&",), ("+", "-"), ("*", "/"))

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
    f"|{_NUMBER_RE.pattern}"
    r'|"(?:[^"]+|"")*"?'
    f"|{_A1_RE.pattern}(?![A-Za-z0-9_.(!])"
    r"|(?:\[[^\[\]]+\])?(?:'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_.]*)!"
    f"|{_NAME_RE.pattern}"
)


class _Scanner:
    """Position and nesting depth in the text, and what the parse has read."""

    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = offset
        self.depth = 0
        self.template: list = []
        self.corners: list[Corner] = []
        self.numeric_constant = False

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
            raise FormulaParseError(f"expected {literal!r}", self.pos)


def parse_formula(text: str) -> ParsedFormula:
    """Check a formula's text, its leading '=' included, and return what it reads."""
    if not text.startswith("="):
        raise FormulaParseError("formula must start with '='", 0)
    sc = _Scanner(text, 1)
    _parse_binary(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise FormulaParseError("unexpected trailing input", sc.pos)
    return ParsedFormula(tuple(sc.template), sc.corners, sc.numeric_constant)


def _parse_binary(sc: _Scanner, level: int = 0) -> None:
    """A left-associative chain of `_BINARY_LEVELS[level]`; its operands
    are the next level's, or `_parse_power`'s after the last one."""
    last = level + 1 == len(_BINARY_LEVELS)
    while True:
        if last:
            _parse_power(sc)
        else:
            _parse_binary(sc, level + 1)
        sc.skip_ws()
        for op in _BINARY_LEVELS[level]:
            if sc.match(op):
                break
        else:
            return


def _parse_power(sc: _Scanner) -> None:
    _parse_unary(sc)
    sc.skip_ws()
    if sc.match("^"):
        sc.nest()
        _parse_power(sc)
        sc.depth -= 1


def _parse_unary(sc: _Scanner) -> None:
    sc.skip_ws()
    for sign in "-+":
        if sc.match(sign):
            sc.nest()
            _parse_unary(sc)
            sc.depth -= 1
            return
    _parse_postfix(sc)


def _parse_postfix(sc: _Scanner) -> None:
    _parse_atom(sc)
    sc.skip_ws()
    while sc.match("%"):
        sc.skip_ws()


def _parse_atom(sc: _Scanner) -> None:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "(":
        sc.pos += 1
        sc.nest()
        _parse_binary(sc)
        sc.skip_ws()
        sc.expect(")")
        sc.depth -= 1
    elif ch == '"':
        if not sc.match_re(_STRING_RE):
            raise FormulaParseError("unterminated string literal", sc.pos)
    elif ch.isdigit() or ch == ".":
        if not _try_lines(sc, None, None):
            if not sc.match_re(_NUMBER_RE):
                raise FormulaParseError("malformed number", sc.pos)
            sc.numeric_constant = True
    else:
        _parse_ref_or_call(sc)


def _prefix_sheet(prefix: re.Match) -> str:
    """The sheet a `_SHEET_PREFIX_RE` match names, unquoted."""
    return prefix.group("sheet") or (prefix.group("qsheet") or "").replace("''", "'")


def _try_a1(sc: _Scanner) -> Corner | None:
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
    return column, row, m.group(1) == "$", m.group(3) == "$"


def _try_lines(sc: _Scanner, sheet: str | None, workbook: str | None) -> bool:
    """Whole columns ($B:D) or rows (3:$5) as one fixed RefRect of the template; False if none."""
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
            first = (letters_to_column(m.group(2)), 1, first_abs, True)
            second = (letters_to_column(m.group(4)), SHEET_ROWS, second_abs, True)
        else:
            first = (1, int(m.group(2)), True, first_abs)
            second = (SHEET_COLUMNS, int(m.group(4)), True, second_abs)
        if outside_sheet(first[0], first[1]) or outside_sheet(second[0], second[1]):
            raise FormulaParseError(f"{whole} {m.group(0)} outside the sheet", save)
        sc.template.append(_span(first, second, sheet, workbook))
        return True
    return False


def _parse_ref_or_call(sc: _Scanner) -> None:
    start = sc.pos
    prefix = sc.match_re(_SHEET_PREFIX_RE)
    sheet = workbook = None
    if prefix:
        workbook = prefix.group("wb")
        sheet = _prefix_sheet(prefix)
    first = _try_a1(sc)
    if first is not None:
        _finish_ref(sc, first, sheet, workbook)
        return
    if _try_lines(sc, sheet, workbook):
        return
    if prefix:
        raise FormulaParseError("expected cell address after sheet qualifier", sc.pos)

    m = sc.match_re(_NAME_RE)
    if not m:
        raise FormulaParseError("expected a value, reference, or function", sc.pos)
    if sc.peek() != "(":
        if m.group(0).upper() not in ("TRUE", "FALSE"):
            raise FormulaParseError(f"unsupported name {m.group(0)!r}", start)
        return
    sc.pos += 1
    sc.nest()
    sc.skip_ws()
    if not sc.match(")"):
        _parse_binary(sc)
        sc.skip_ws()
        while sc.match(","):
            _parse_binary(sc)
            sc.skip_ws()
        sc.expect(")")
    sc.depth -= 1


def _finish_ref(sc: _Scanner, first: Corner, sheet: str | None, workbook: str | None) -> None:
    """Read a cell, or a range that starts at first, into the template."""
    save = sc.pos
    i = len(sc.corners)
    if sc.match(":"):
        prefix = sc.match_re(_SHEET_PREFIX_RE)
        if prefix and (_prefix_sheet(prefix) != sheet or prefix.group("wb") != workbook):
            raise FormulaParseError("range endpoints on different sheets", save + 1)
        second = _try_a1(sc)
        if second is None:
            # "A1:" followed by non-address; ranges are the only use of ':'.
            raise FormulaParseError("expected cell address after ':'", sc.pos)
        sc.template.append((i, i + 1, sheet, workbook))
        sc.corners += (first, second)
    else:
        sc.template.append((i, i, sheet, workbook))
        sc.corners.append(first)


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
    which the parser does not see.  `shape_printer` spells it back, so
    a copy spelled as it prints needs no lexing.  A text that holds NUL
    itself gets no key, and neither does one with a token
    `outside_sheet`: the parser refuses it, so a copy that lies inside
    the sheet must not lend it a parse.
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


# A row the lexer reads as part of a cell token has at most 7 digits (_SHAPE_RE).
_TOKEN_ROWS = 10**7


def shape_printer(key: str) -> Callable[[int, int], tuple[str, list[Corner]] | None]:
    """The translated copies of a `shape_key` key.

    The printer maps a cell (column, row) to (text, corners): the copy
    of the shape written there, with each token spelled in upper case
    without leading zeros, and the corners `shape_key` lexes from it, so
    that `shape_key(text, column, row) == (key, corners)`.  It is one
    format string with the anchored axes written in and a slot for each
    relative column and row.  It gives None where a corner would leave
    the lexer's reach: a column outside A..XFD, a row below 1, or a row
    of more than 7 digits.

    The rest of the text is the key's, and the lexer reads it as it did
    in the text the key came from: a token's spelling changes neither
    where the matches before it stop nor what follows it.  The one
    exception is a relative column right after a digit or ".", where
    E5 would read as the exponent of a number (1E5); such a key, which
    no formula that parses has, gets a printer that prints nothing.
    """
    pieces = key.split("\x00")
    spelled = [pieces[0].replace("%", "%%")]
    tokens: list[Corner] = []  # each axis as its offset, or its value where anchored
    for before, axes, after in zip(pieces[0::2], pieces[1::2], pieces[2::2]):
        column_text, row_text = axes.split(",")
        column_absolute, row_absolute = column_text[0] == "$", row_text[0] == "$"
        if not column_absolute and before and before[-1] in "0123456789.":
            return lambda column, row: None
        column, row = int(column_text.lstrip("$")), int(row_text.lstrip("$"))
        spelled += ("$" + column_to_letters(column) if column_absolute else "%s",
                    "$%d" % row if row_absolute else "%d",
                    after.replace("%", "%%"))
        tokens.append((column, row, column_absolute, row_absolute))
    pattern = "".join(spelled)
    letters: dict[int, str] = {}  # the relative columns spelled so far

    def print_copy(column: int, row: int) -> tuple[str, list[Corner]] | None:
        slots = []
        corners = []
        for c, r, column_absolute, row_absolute in tokens:
            if not column_absolute:
                c += column
                if not 0 < c <= SHEET_COLUMNS:
                    return None
                spelled_column = letters.get(c)
                if spelled_column is None:
                    spelled_column = letters[c] = column_to_letters(c)
                slots.append(spelled_column)
            if not row_absolute:
                r += row
                if not 0 < r < _TOKEN_ROWS:
                    return None
                slots.append(r)
            corners.append((c, r, column_absolute, row_absolute))
        return pattern % tuple(slots), corners

    return print_copy
