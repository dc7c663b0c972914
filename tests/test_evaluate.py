"""Scoring against ground truth, annotation files, and the layout
statistics of scripts/collision_survey.py."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import aggregate_own_inputs_workbook, inconsistent_sum_workbook, load_script
from gridlint.evaluate import (
    BugDual,
    DomainError,
    GroundTruth,
    SheetTruth,
    adjusted_precision,
    count_true_positives,
    evaluate_report,
    evaluate_sheet,
    expected_random_tp,
    load_annotations,
    parse_annotations,
    precision_recall,
)
from gridlint.model import CellContent, FormatError, Rect, Workbook, Worksheet
from gridlint.pipeline import analyze_sheet
from gridlint.vectors import EMPTY_FINGERPRINT, NUMBER_FINGERPRINT, Fingerprint
from oracle import naive_collision_rate

# The layout statistics live in the survey script, their only caller.
survey = load_script("collision_survey")
collision_rate = survey.collision_rate
rectangularity_stats = survey.rectangularity_stats
_connected_clusters = survey._connected_clusters
_union_key = survey._union_key


def table_of(workbook):
    return analyze_sheet(workbook, workbook.sheets[0]).table


def truth(errors=(), duals=(), not_bugs=()):
    return SheetTruth(frozenset(errors), tuple(duals), frozenset(not_bugs))


class TestTruthModel:
    def test_dual_requires_nonempty_sides(self):
        with pytest.raises(FormatError):
            BugDual(frozenset(), frozenset({(1, 1)}))
        with pytest.raises(FormatError):
            BugDual(frozenset({(1, 1)}), frozenset())

    def test_dual_requires_disjoint_sides(self):
        with pytest.raises(FormatError):
            BugDual(frozenset({(1, 1), (2, 1)}), frozenset({(2, 1)}))

    def test_dual_cap_is_smaller_side(self):
        dual = BugDual(frozenset({(1, 1)}), frozenset({(2, 1), (3, 1)}))
        assert dual.cap == 1
        assert dual.cells == frozenset({(1, 1), (2, 1), (3, 1)})

    def test_dual_cells_must_be_errors(self):
        dual = BugDual(frozenset({(1, 1)}), frozenset({(2, 1)}))
        with pytest.raises(FormatError):
            truth(errors={(1, 1)}, duals=[dual])

    def test_capped_error_count(self):
        dual = BugDual(frozenset({(1, 1)}), frozenset({(2, 1), (3, 1)}))
        t = truth(errors={(1, 1), (2, 1), (3, 1), (9, 9)}, duals=[dual])
        assert t.capped_error_count == 1 + 1  # plain (9,9) plus the dual cap


class TestTruePositives:
    def test_plain_errors(self):
        t = truth(errors={(1, 1), (2, 2)})
        assert count_true_positives({(1, 1), (3, 3)}, t) == 1
        assert count_true_positives({(1, 1), (2, 2)}, t) == 2
        assert count_true_positives(set(), t) == 0

    def test_dual_credit_capped_at_smaller_side(self):
        c1 = frozenset((x, 1) for x in range(1, 4))  # 3 cells
        c2 = frozenset((x, 2) for x in range(1, 11))  # 10 cells
        t = truth(errors=c1 | c2, duals=[BugDual(c1, c2)])
        assert count_true_positives(c1, t) == 3
        assert count_true_positives(set(list(c2)[:5]), t) == 3
        assert count_true_positives(c1 | c2, t) == 3

    def test_dual_plus_plain(self):
        c1 = frozenset({(1, 1)})
        c2 = frozenset({(2, 1), (3, 1)})
        t = truth(errors=c1 | c2 | {(9, 9)}, duals=[BugDual(c1, c2)])
        assert count_true_positives({(1, 1), (9, 9)}, t) == 2
        assert count_true_positives({(2, 1), (3, 1), (9, 9)}, t) == 2

    @given(
        st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1),
        st.frozensets(st.tuples(st.integers(1, 4), st.integers(4, 6)), min_size=1),
        st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 6))),
    )
    def test_dual_sides_symmetric(self, c1, c2, flagged):
        forward = truth(errors=c1 | c2, duals=[BugDual(c1, c2)])
        backward = truth(errors=c1 | c2, duals=[BugDual(c2, c1)])
        assert count_true_positives(flagged, forward) == count_true_positives(
            flagged, backward
        )


class TestConventions:
    def test_nothing_flagged_is_precise(self):
        assert precision_recall(0, 0, 0, 0, 0) == (1.0, 1.0)
        assert precision_recall(0, 0, 2, 0, 2) == (1.0, 0.0)

    def test_flagging_a_clean_sheet_scores_zero(self):
        assert precision_recall(0, 4, 0, 4, 0)[0] == 0.0

    def test_ordinary_ratio(self):
        precision, recall = precision_recall(3, 1, 1, 4, 4)
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.75)

    def test_recall_with_no_truth(self):
        assert precision_recall(0, 1, 0, 1, 0)[1] == 1.0


class TestRandomBaseline:
    def test_mean_formula(self):
        assert expected_random_tp(100, 5, 10) == pytest.approx(0.5)
        assert expected_random_tp(30, 1, 1) == pytest.approx(1 / 30)
        assert expected_random_tp(100, 0, 10) == 0.0
        assert expected_random_tp(10, 10, 10) == 10.0

    @pytest.mark.parametrize(
        "m, r, n",
        [(0, 1, 1), (-5, 0, 0), (10, 11, 1), (10, 1, 11), (10, -1, 1), (10, 1, -1)],
    )
    def test_domain_errors(self, m, r, n):
        with pytest.raises(DomainError):
            expected_random_tp(m, r, n)

    def test_adjustment(self):
        assert adjusted_precision(5, 5, 0.5) == pytest.approx(0.9)
        assert adjusted_precision(0, 0, 0.0) == 1.0
        assert adjusted_precision(0, 10, 5.0) == 0.0  # clamped at zero
        assert adjusted_precision(10, 10, 0.0) == 1.0


class TestEvaluateSheet:
    def test_exact_hit(self):
        result = evaluate_sheet({(6, 6)}, truth(errors={(6, 6)}), 30)
        assert (result.tp, result.fp, result.fn, result.flagged) == (1, 0, 0, 1)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.expected_random_tp == pytest.approx(1 / 30)
        assert result.adjusted_precision == pytest.approx(29 / 30)

    def test_miss_and_noise(self):
        result = evaluate_sheet({(1, 1)}, truth(errors={(6, 6)}), 30)
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)
        assert result.precision == 0.0
        assert result.recall == 0.0

    def test_dual_over_flagging_counts_excess_as_fp(self):
        c1 = frozenset({(1, 1)})
        c2 = frozenset({(2, 1), (3, 1)})
        t = truth(errors=c1 | c2, duals=[BugDual(c1, c2)])
        result = evaluate_sheet(c1 | c2, t, 30)
        assert result.tp == 1  # cap
        assert result.fp == 2  # the rest of the dual
        assert result.fn == 0
        assert result.recall == 1.0

    def test_clean_sheet_unflagged(self):
        result = evaluate_sheet(set(), truth(), 30)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.adjusted_precision == 1.0


class TestLayoutStats:
    def test_all_rectangular(self):
        tables = [table_of(aggregate_own_inputs_workbook())]
        assert rectangularity_stats(tables) == (1.0, 1.0)

    def test_l_shaped_formula_cluster(self):
        cells = {
            (1, 1): CellContent.formula("=$Z$1"),
            (2, 1): CellContent.formula("=$Z$1"),
            (1, 2): CellContent.formula("=$Z$1"),
            (4, 1): CellContent.number(3.0),
            (4, 2): CellContent.number(4.0),
            (6, 1): CellContent.text("note"),
            (1, 4): CellContent.formula("=$Y$9"),
            (2, 4): CellContent.formula("=$Y$9"),
        }
        workbook = Workbook("t", [Worksheet("S", cells)])
        frac_all, frac_formula = rectangularity_stats([table_of(workbook)])
        assert frac_all == pytest.approx(0.75)  # 3 of 4 clusters
        assert frac_formula == pytest.approx(0.5)  # the L among 2 formula clusters

    def test_empty_input(self):
        assert rectangularity_stats([]) == (None, None)

    def test_no_formula_clusters(self):
        cells = {(1, 1): CellContent.number(1.0), (1, 2): CellContent.number(2.0)}
        workbook = Workbook("t", [Worksheet("S", cells)])
        frac_all, frac_formula = rectangularity_stats([table_of(workbook)])
        assert frac_all == 1.0
        assert frac_formula is None

    def test_clusters_follow_cell_kinds_not_regions(self):
        # A2's references cancel, and so do B2's beside a constant: each
        # takes a reserved fingerprint, so neither joins the blank above
        # it or the numbers C1:C2 beside it, in a cluster or in a region.
        cells = {
            (1, 2): CellContent.formula("=A1+A3"),
            (2, 2): CellContent.formula("=B1+B3+1"),
            (3, 1): CellContent.number(1.0),
            (3, 2): CellContent.number(2.0),
        }
        workbook = Workbook("t", [Worksheet("S", cells)])
        analysis = analyze_sheet(workbook, workbook.sheets[0])
        table = analysis.table
        assert table.fingerprint(1, 2) == Fingerprint(0, 0, 0, 2)
        assert table.fingerprint(2, 2) == Fingerprint(0, 0, 0, 3)
        assert (Rect(1, 1, 2, 1), EMPTY_FINGERPRINT) in analysis.regions
        assert (Rect(1, 2, 1, 2), Fingerprint(0, 0, 0, 2)) in analysis.regions
        assert _connected_clusters(table) == [
            (frozenset({(3, 1), (3, 2)}), NUMBER_FINGERPRINT),
            (frozenset({(1, 2)}), Fingerprint(0, 0, 0, 2)),
            (frozenset({(2, 2)}), Fingerprint(0, 0, 0, 3)),
        ]
        assert rectangularity_stats([table]) == (1.0, 1.0)

    def test_fixture_formula_column_is_rectangular(self):
        tables = [table_of(inconsistent_sum_workbook())]
        frac_all, frac_formula = rectangularity_stats(tables)
        # F6 and F7:F11 are separate fingerprints, so three clusters in
        # total, all solid rectangles.
        assert frac_all == 1.0
        assert frac_formula == 1.0


class TestCollisionRate:
    def test_identical_copies_never_collide(self):
        cells = {
            (2, 1): CellContent.formula("=A1"),
            (2, 2): CellContent.formula("=A2"),
        }
        workbook = Workbook("t", [Worksheet("S", cells)])
        assert collision_rate([table_of(workbook)]) == 0.0

    def test_sum_collapse_detected(self):
        # One fingerprint, two genuinely different reference shapes.
        cells = {
            (3, 1): CellContent.formula("=SUM(A1:B1)"),
            (4, 1): CellContent.formula("=ABS(A1)"),
        }
        workbook = Workbook("t", [Worksheet("S", cells)])
        table = table_of(workbook)
        assert table.fingerprint(3, 1) == table.fingerprint(4, 1)
        assert collision_rate([table]) == 1.0

    def test_no_pairs_no_rate(self):
        cells = {(2, 1): CellContent.formula("=A1")}
        workbook = Workbook("t", [Worksheet("S", cells)])
        assert collision_rate([table_of(workbook)]) == 0.0

    def test_groups_span_sheets(self):
        a = Workbook("t", [Worksheet("A", {(3, 1): CellContent.formula("=SUM(A1:B1)")})])
        b = Workbook("t", [Worksheet("B", {(4, 1): CellContent.formula("=ABS(A1)")})])
        tables = [table_of(a), table_of(b)]
        assert tables[0].fingerprint(3, 1) == tables[1].fingerprint(4, 1)
        assert collision_rate(tables) == 1.0


# In its column each formula's vectors sum to (-3, 0, 0, 0).  C and E
# reference the same two cells to their left, D only the third.
_SAME_FINGERPRINT = {3: "=SUM(A{0}:B{0})", 4: "=ABS(A{0})", 5: "=C{0}+D{0}"}


@st.composite
def same_fingerprint_tables(draw):
    """One or two sheets of formulas that share a fingerprint, some pairs
    with equal reference sets and some not."""
    tables = []
    for name in ("A", "B")[:draw(st.integers(1, 2))]:
        placed = draw(st.sets(st.tuples(st.integers(3, 5), st.integers(1, 6)), min_size=1))
        cells = {cell: CellContent.formula(_SAME_FINGERPRINT[cell[0]].format(cell[1])) for cell in placed}
        tables.append(table_of(Workbook("t", [Worksheet(name, cells)])))
    return tables


class TestCollisionRateOracle:
    def test_mixed_group(self):
        # C1 and E1 reference the same cells, D1 another set: 2 of 3 pairs differ.
        cells = {(column, 1): CellContent.formula(text.format(1)) for column, text in _SAME_FINGERPRINT.items()}
        cells[(2, 3)] = CellContent.formula("=A3+1")
        tables = [table_of(Workbook("t", [Worksheet("S", cells)]))]
        assert collision_rate(tables) == naive_collision_rate(tables) == 2 / 3

    @settings(max_examples=100, deadline=None)
    @given(same_fingerprint_tables())
    def test_matches_every_pair_compared(self, tables):
        rate = naive_collision_rate(tables)
        assume(0 < rate < 1)
        assert collision_rate(tables) == rate


_boxes = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3)).map(
        lambda b: (b[0], b[1], b[2], b[1] + b[3], b[2] + b[4])
    ),
    max_size=4,
)


def expanded(boxes):
    return frozenset((z, x, y) for z, x0, y0, x1, y1 in boxes
                     for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))


class TestUnionKeyOracle:
    @settings(max_examples=500, deadline=None)
    @given(_boxes, _boxes)
    def test_equal_keys_iff_equal_point_sets(self, a, b):
        assert (_union_key(a) == _union_key(b)) == (expanded(a) == expanded(b))

    @given(_boxes)
    def test_order_and_overlap_do_not_matter(self, a):
        assert _union_key(a) == _union_key(list(reversed(a)) + a)

    def test_split_box_equals_whole(self):
        whole = [(0, 0, 0, 3, 3)]
        quarters = [(0, 0, 0, 1, 1), (0, 2, 0, 3, 1), (0, 0, 2, 1, 3), (0, 2, 2, 3, 3)]
        assert _union_key(whole) == _union_key(quarters)

    def test_whole_columns_compare_without_listing_cells(self):
        cells = {(3, r): CellContent.formula("=SUM(A:B)") for r in range(1, 4)}
        cells[(4, 1)] = CellContent.formula("=SUM(B:B)+SUM(C:C)")
        workbook = Workbook("t", [Worksheet("S", cells)])
        table = table_of(workbook)
        assert table.fingerprint(3, 1) == table.fingerprint(4, 1)
        assert collision_rate([table]) == 0.0


class TestAnnotations:
    def test_load_fixture(self, fixtures_dir):
        ground = load_annotations(fixtures_dir / "weekly_totals.annotations.json")
        assert ground.workbook == "weekly_totals"
        assert ground.sheets["Totals"].errors == frozenset({(6, 6)})
        assert ground.sheets["Totals"].duals == ()
        assert ground.sheets["Totals"].not_bugs == frozenset()

    def test_parse_duals(self):
        ground = parse_annotations(
            {
                "workbook": "w",
                "sheets": {
                    "S": {
                        "errors": ["A1", "B1", "C1"],
                        "duals": [{"c1": ["A1"], "c2": ["B1", "C1"]}],
                        "not_bugs": ["D9"],
                    }
                },
            }
        )
        sheet = ground.sheets["S"]
        assert sheet.errors == frozenset({(1, 1), (2, 1), (3, 1)})
        assert sheet.duals[0].cap == 1
        assert sheet.not_bugs == frozenset({(4, 9)})

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"workbook": "w"},
            {"sheets": {}},
            {"workbook": 3, "sheets": {}},
            {"workbook": "w", "sheets": []},
            {"workbook": "w", "sheets": {"S": []}},
            {"workbook": "w", "sheets": {"S": {"errors": "A1"}}},
            {"workbook": "w", "sheets": {"S": {"errors": [7]}}},
            {"workbook": "w", "sheets": {"S": {"errors": ["notacell"]}}},
            {"workbook": "w", "sheets": {"S": {"errors": ["A1"], "duals": [[]]}}},
            {"workbook": "w", "sheets": {"S": {"errors": [], "duals": [{"c1": ["A1"], "c2": ["B1"]}]}}},
        ],
    )
    def test_malformed_payloads(self, payload):
        with pytest.raises(FormatError):
            parse_annotations(payload)


class TestEvaluateReport:
    def report(self, fixes, cells=30, sheet="S", workbook="w"):
        return {
            "workbook": workbook,
            "sheets": [{"sheet": sheet, "cells": cells, "fixes": fixes}],
        }

    def test_flagged_cells_come_from_fix_sources(self):
        ground = GroundTruth("w", {"S": truth(errors={(6, 6)})})
        report = self.report([{"source": ["F6"], "target": "F7:F11"}])
        result = evaluate_report(report, ground)
        sheet = result["sheets"][0]
        assert (sheet["tp"], sheet["fp"], sheet["fn"]) == (1, 0, 0)
        assert sheet["precision"] == 1.0
        assert result["overall"]["recall"] == 1.0
        assert result["overall"]["expected_random_tp"] == pytest.approx(1 / 30)
        assert result["overall"]["adjusted_precision"] == pytest.approx(29 / 30)

    def test_workbook_mismatch_rejected(self):
        ground = GroundTruth("other", {})
        with pytest.raises(FormatError):
            evaluate_report(self.report([]), ground)

    def test_sheet_missing_from_truth_counts_as_clean(self):
        ground = GroundTruth("w", {})
        report = self.report([{"source": ["F6"]}])
        result = evaluate_report(report, ground)
        assert result["sheets"][0]["precision"] == 0.0
        assert result["sheets"][0]["recall"] == 1.0

    def test_not_an_audit_payload(self):
        with pytest.raises(FormatError):
            evaluate_report({"nope": 1}, GroundTruth("w", {}))

    def test_overall_merges_sheets(self):
        ground = GroundTruth(
            "w",
            {"A": truth(errors={(1, 1)}), "B": truth(errors={(2, 2)})},
        )
        report = {
            "workbook": "w",
            "sheets": [
                {"sheet": "A", "cells": 10, "fixes": [{"source": ["A1"]}]},
                {"sheet": "B", "cells": 10, "fixes": [{"source": ["C3"]}]},
            ],
        }
        result = evaluate_report(report, ground)
        assert result["overall"]["tp"] == 1
        assert result["overall"]["fp"] == 1
        assert result["overall"]["fn"] == 1
        assert result["overall"]["precision"] == 0.5
        assert result["overall"]["recall"] == 0.5
