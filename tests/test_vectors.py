"""Reference vectors, fingerprints, location sums, closed forms over ranges."""

from hypothesis import given, settings, strategies as st

from gridlint.entropy import Region
from gridlint.fixes import CandidateFix, _reads_only_target
from gridlint.formula import SHEET_COLUMNS, SHEET_ROWS, parse_formula, ref_rects, numeric_constant_count
from gridlint.model import CellAddress, CellContent, CellKind, Rect, Workbook, Worksheet, column_to_letters
from gridlint.vectors import (
    EMPTY_FINGERPRINT,
    NUMBER_FINGERPRINT,
    TEXT_FINGERPRINT,
    Fingerprint,
    LocFingerprint,
    RefVector,
    analyze_sheet_vectors,
    location_fingerprint,
    null_fingerprint,
    rects_fingerprint,
    translated_location_fingerprint,
)

from conftest import inconsistent_sum_workbook
from oracle import formula_fingerprint, reference_vectors, references, resolve_reference


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
        assert fingerprint_of("=5", 1, 1) == Fingerprint(0, 0, 0, 1)
        assert fingerprint_of("=A1+5", 2, 1) == Fingerprint(-1, 0, 0, 1)

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
        moved = translated_location_fingerprint(refs, "S", "wb", (6, 7), (6, 6))
        assert moved == LocFingerprint(base.x, base.y - 3, base.z)

    def test_translation_identity(self):
        refs = ref_rects(parse_formula("=SUM(B7:D7)+$A$1"))
        assert translated_location_fingerprint(refs, "S", "wb", (6, 7), (6, 7)) == (
            location_fingerprint(refs, "S", "wb")
        )

    def test_absolute_refs_do_not_move(self):
        refs = ref_rects(parse_formula("=$A$1"))
        assert translated_location_fingerprint(refs, "S", "wb", (3, 3), (9, 9)) == (
            location_fingerprint(refs, "S", "wb")
        )


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
        moved = translated_location_fingerprint(rects, "S", "wb", (column, row), (to_column, to_row))
        assert moved == naive_location(cells, "S", "wb", (to_column - column, to_row - row))

        # C3: every referent inside the target, on this sheet.
        sheet = Worksheet("S", {(column, row): CellContent.formula(text)})
        table = analyze_sheet_vectors(Workbook("wb", [sheet]), sheet)
        left, right = sorted(corners[::2])
        top, bottom = sorted(corners[1::2])
        target = Rect(left, top, right, bottom)
        own = Region(Rect(column, row, column, row), table.fingerprint(column, row))
        fix = CandidateFix(Rect(column, row, column, row), own, Region(target, EMPTY_FINGERPRINT))
        assert _reads_only_target(fix, table) == naive_reads_only(cells, CellAddress(column, row, "S", "wb"), target)
        assert location_fingerprint(table.refs[(column, row)], "S", "wb") == naive_location(cells, "S", "wb")
