"""The benchmark's own tests: clean analyses pass every check, and each
check rejects a deliberately corrupted analysis.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    check_budget,
    check_fingerprints,
    check_fixes,
    check_injected,
    check_maximal,
    check_tiling,
    check_workbook,
    rect_area,
)
from passes import THRESHOLD, analyze  # noqa: E402
from tracer import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TEXT_FP,
    Book,
    Ref,
    Rng,
    Sheet,
    a1,
    deep_book,
    lookup_book,
    noisy_book,
    paper_book,
    part_vector,
    running_totals_book,
)

from gridlint import vectors  # noqa: E402
from gridlint.entropy import Region  # noqa: E402
from gridlint.model import Rect  # noqa: E402

LAYOUT = [[(10, 4, True), (8, 3, False)], [(12, 5, False)]]


def run(book: Book, directory: Path, tracer=None):
    path = directory / f"{book.name}.gridbook"
    path.write_text(book.gridbook())
    text, analysis = analyze(str(path), tracer)
    return book.expectation(), json.loads(text), analysis, text


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return run(paper_book(random.Random(7), "paper", LAYOUT), tmp_path_factory.mktemp("paper"))


def first_table_sheet(paper):
    expectation, payload, analysis, _ = paper
    sheet, sheet_payload = analysis.sheets[0], payload["sheets"][0]
    return sheet, sheet_payload, expectation["sheets"][sheet.name]


@pytest.mark.parametrize("make", [
    lambda: paper_book(random.Random(3), "paper", LAYOUT),
    lambda: lookup_book(random.Random(3), "lookup", 3),
    lambda: running_totals_book(random.Random(3), 30),
    lambda: noisy_book(random.Random(3), 10, "noisy", mask_seed=1),
])
def test_clean_analysis_passes_every_check(make, tmp_path):
    expectation, payload, analysis, _ = run(make(), tmp_path)
    assert check_workbook(analysis, payload, expectation, THRESHOLD) == []


def test_closed_form_range_sum_matches_cell_by_cell_sum():
    rng = Rng(Ref(2, 3, True, False), Ref(5, 9, True, True))
    # Columns anchored on both corners, rows on one only: rows stay relative.
    by_cell = (sum((c - 1) for c in range(2, 6) for r in range(3, 10)),
               sum((r - 12) for c in range(2, 6) for r in range(3, 10)), 0)
    assert part_vector(rng, 7, 12, "S") == by_cell
    off = Rng(Ref(1, 2, sheet="Data"), Ref(3, 4, sheet="Data"))
    assert part_vector(off, 7, 12, "S") == (3 * (0 + 1 + 2), 3 * (1 + 2 + 3), 9)


def test_fingerprint_check_rejects_a_changed_fingerprint(paper):
    sheet, _, exp = first_table_sheet(paper)
    fps = dict(sheet.table.fingerprints)
    cell = next(c for c, fp in fps.items() if fp[:3] != (0, 0, 0))
    fps[cell] = fps[cell]._replace(x=fps[cell].x + 1)
    fake = SimpleNamespace(table=SimpleNamespace(fingerprints=fps, diagnostics=[]))
    assert check_fingerprints(sheet, exp) == []
    assert check_fingerprints(fake, exp)


def test_fingerprint_check_lets_a_refused_formula_be_named_text():
    sheet = deep_book().sheets[0]
    exp = Book("deep", [sheet]).expectation()["sheets"]["Sheet1"]
    text = {(1, 1): (0, 0, 0, 1), (2, 1): TEXT_FP}
    named = SimpleNamespace(table=SimpleNamespace(
        fingerprints=text, diagnostics=["Sheet1!B1: unparseable formula treated as text"]))
    silent = SimpleNamespace(table=SimpleNamespace(fingerprints=text, diagnostics=[]))
    assert check_fingerprints(named, exp) == []
    assert check_fingerprints(silent, exp)


def test_tiling_check_rejects_gaps_overlaps_and_wrong_fingerprints(paper):
    sheet, _, exp = first_table_sheet(paper)
    regions = list(sheet.regions)
    big = max(range(len(regions)), key=lambda i: regions[i].rect.area)
    wrong = regions[:big] + [Region(regions[big].rect, (9, 9, 9, 9))] + regions[big + 1:]
    for corrupted in (regions[1:], regions + regions[:1], wrong):
        assert check_tiling(SimpleNamespace(regions=corrupted), exp)
    assert check_tiling(sheet, exp) == []


def test_maximal_check_rejects_a_split_region(paper):
    sheet, _, exp = first_table_sheet(paper)
    regions = list(sheet.regions)
    i = next(i for i, r in enumerate(regions) if r.rect.height > 1)
    r = regions[i].rect
    halves = [Region(Rect(r.left, r.top, r.right, r.top), regions[i].fingerprint),
              Region(Rect(r.left, r.top + 1, r.right, r.bottom), regions[i].fingerprint)]
    split = SimpleNamespace(regions=regions[:i] + halves + regions[i + 1:])
    assert check_tiling(split, exp) == []
    assert check_maximal(sheet) == []
    assert check_maximal(split)


def test_budget_check_rejects_too_many_flagged_cells(paper):
    _, sheet_payload, _ = first_table_sheet(paper)
    assert check_budget(sheet_payload, THRESHOLD) == []
    cells = 1 + -(-sheet_payload["cells"] // 20)
    padded = dict(sheet_payload, fixes=sheet_payload["fixes"] + [
        {"source": [f"A{k}" for k in range(1, cells + 1)]}])
    assert check_budget(padded, THRESHOLD)


def test_budget_is_exact_rational():
    # 0.05 x 100 is exactly 5 cells; float arithmetic would allow 6.
    payload = {"cells": 100, "fixes": [{"source": [f"A{k}" for k in range(1, 7)]}]}
    assert check_budget(payload, "0.05")


def test_fix_check_rejects_bad_scores_deltas_and_order(paper):
    _, sheet_payload, _ = first_table_sheet(paper)
    fixes = sheet_payload["fixes"]
    assert len(fixes) >= 2 and check_fixes(sheet_payload) == []
    rescored = [dict(fixes[0], score=fixes[0]["score"] * 1.001)] + fixes[1:]
    no_drop = [dict(fixes[0], delta_entropy=0.0)] + fixes[1:]
    j = next(j for j in range(1, len(fixes)) if fixes[j]["score"] < fixes[0]["score"])
    swapped = list(fixes)
    swapped[0], swapped[j] = dict(fixes[j], rank=1), dict(fixes[0], rank=j + 1)
    for corrupted in (rescored, no_drop, swapped):
        assert check_fixes(dict(sheet_payload, fixes=corrupted))


def test_injected_check_rejects_a_missed_error(paper):
    _, sheet_payload, exp = first_table_sheet(paper)
    assert exp["injected"] and check_injected(sheet_payload, exp) == []
    injected = {a1(c, r) for c, r in exp["injected"]}
    kept = [f for f in sheet_payload["fixes"] if not injected & set(f["source"])]
    assert check_injected(dict(sheet_payload, fixes=kept), exp)


def test_rect_area():
    assert rect_area("B5") == 1
    assert rect_area("B5:D9") == 15
    assert rect_area("AA1:AB2") == 4


def test_traced_pass_matches_untraced_and_counts(paper, tmp_path):
    _, payload, _, untraced = paper
    book = paper_book(random.Random(7), "paper", LAYOUT)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, _, traced = run(book, tmp_path, tracer)
    finally:
        tracer.remove()
    assert traced == untraced
    assert tracer.missing == []
    assert not hasattr(vectors.parse_formula, "__wrapped__")
    metrics = tracer.metrics()
    assert set(metrics) == set(TIME_METRICS.values()) | set(COUNT_METRICS)
    assert all(v >= 0 for v in metrics.values())
    formulas = sum("f" in cell for sheet in book.sheets for cell in sheet.cells.values())
    assert metrics["formula.formulas"] == formulas
    assert metrics["model.cells"] == sum(len(sheet.cells) for sheet in book.sheets)
    assert metrics["fixes.emitted"] == sum(len(s["fixes"]) for s in payload["sheets"])


def test_missing_hook_is_reported_not_raised():
    tracer = Tracer()
    tracer._wrap("gone.function", SimpleNamespace(), "function", "gone", None)
    tracer._wrap_counts_in(None)
    assert tracer.missing == ["gone.function", "grid.FingerprintGrid.counts_in"]
    assert tracer.metrics()["grid.counts_in_calls"] == 0


def test_sheet_names_must_match():
    sheet = Sheet("Only")
    sheet.number(1, 1, 1.0)
    expectation = Book("b", [sheet]).expectation()
    payload = {"sheets": [{"sheet": "Other"}]}
    assert check_workbook(SimpleNamespace(sheets=[]), payload, expectation, THRESHOLD)
