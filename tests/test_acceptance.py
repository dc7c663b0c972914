"""Acceptance checks: one test and one printed pass/fail line per
shipped guarantee.  The lines go through pytest's terminal reporter so
they stay visible under output capture."""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import banded_tile_workbook, random_label_grid
from gridlint import cli
from gridlint.entropy import Region, decompose_grid, entropy_tree, tree_leaves
from gridlint.evaluate import (
    BugDual,
    SheetTruth,
    count_true_positives,
    evaluate_sheet,
    expected_random_tp,
    precision_recall,
)
from gridlint.formula import parse_formula
from gridlint.model import (
    CellContent,
    Rect,
    Workbook,
    Worksheet,
    column_to_letters,
    load_workbook,
    serialize_workbook,
)
from gridlint.pipeline import AnalysisConfig, analyze_workbook
from gridlint.report import AdjacencyGraph, assign_colors
from oracle import formula_fingerprint, naive_counts_in, reference_vectors, references, split_entropy, split_halves


_terminal = None


@pytest.fixture(scope="module", autouse=True)
def _criterion_reporter(request):
    global _terminal
    _terminal = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _terminal = None


def check(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if _terminal is not None:
        _terminal.write_line(line)
    else:
        print(line)
    assert ok, f"criterion {number}: {description}"


def fingerprint_of(text: str, column: int, row: int):
    parsed = parse_formula(text)
    refs = references(parsed)
    vectors = reference_vectors(refs, column, row, "S", "w")
    return formula_fingerprint(vectors, parsed.numeric_constant)


@pytest.fixture(scope="module")
def synthetic_workbook():
    """100x100 sheet: repeating number-block / sum-column / blank-column
    stripes, with three deliberately narrowed sums."""
    cells = {}
    for col in range(1, 101):
        role = (col - 1) % 5
        for row in range(1, 101):
            if role < 3:
                cells[(col, row)] = CellContent.number(float((col * 7 + row * 3) % 50 + 1))
            elif role == 3:
                first = column_to_letters(col - 3)
                last = column_to_letters(col - 1)
                cells[(col, row)] = CellContent.formula(f"=SUM({first}{row}:{last}{row})")
    cells[(100, 100)] = CellContent.number(1.0)
    for col, row in ((4, 25), (54, 50), (99, 75)):
        first = column_to_letters(col - 3)
        last = column_to_letters(col - 2)
        cells[(col, row)] = CellContent.formula(f"=SUM({first}{row}:{last}{row})")
    return Workbook("synthetic", [Worksheet("Big", cells)])


def test_criterion_01_fixture_reproduction(fixtures_dir):
    workbook = load_workbook(fixtures_dir / "inconsistent_sum.gridbook")
    start = time.perf_counter()
    analysis = analyze_workbook(workbook)
    elapsed = time.perf_counter() - start
    fixes = analysis.sheets[0].fixes
    ok = (
        len(fixes) >= 1
        and fixes[0].source_cells == ((6, 6),)
        and fixes[0].target == Rect(6, 7, 6, 11)
        and elapsed < 1.0
    )
    check(1, "top fix flags F6 against F7:F11 in under a second", ok)


def test_criterion_02_fingerprint_worked_examples():
    column_sum_c = fingerprint_of("=SUM(C5:C9)", 3, 10)
    column_sum_d = fingerprint_of("=SUM(D5:D9)", 4, 10)
    alias_sum = fingerprint_of("=SUM(A1:B1)", 3, 1)
    alias_abs = fingerprint_of("=ABS(A1)", 4, 1)
    ok = (
        tuple(column_sum_c) == (0, -15, 0, 0)
        and column_sum_d == column_sum_c
        and tuple(alias_sum) == (-3, 0, 0, 0)
        and alias_abs == alias_sum
    )
    check(2, "translated copies share fingerprints, including the alias pair", ok)


def _oracle_entropy(counts, n):
    positive = [c for c in counts if c > 0]
    if not positive:
        return math.inf
    if n <= 1 or len(positive) == 1:
        return 0.0
    return -sum((c / n) * math.log(c / n) for c in positive) / math.log(n)


def test_criterion_03_entropy_tree_oracle():
    rng = random.Random(2026)
    violations = 0
    for _ in range(500):
        grid = random_label_grid(rng, max_side=8, max_labels=4)
        tree = entropy_tree(grid)
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Region):
                continue
            region = node.rect
            best = math.inf
            for i in range(region.left, region.right):
                a, b = split_halves(region, i, True)
                best = min(
                    best,
                    _oracle_entropy(grid.counts_in(a).values(), a.area)
                    + _oracle_entropy(grid.counts_in(b).values(), b.area),
                )
            for i in range(region.top, region.bottom):
                a, b = split_halves(region, i, False)
                best = min(
                    best,
                    _oracle_entropy(grid.counts_in(a).values(), a.area)
                    + _oracle_entropy(grid.counts_in(b).values(), b.area),
                )
            cut = split_entropy(grid, region, node.index, node.vertical)
            if not math.isclose(cut, best, rel_tol=0, abs_tol=1e-9):
                violations += 1
            stack.extend([node.low, node.high])
        covered: set[tuple[int, int]] = set()
        for leaf in tree_leaves(tree):
            cells = set(leaf.rect.cells())
            if covered & cells:
                violations += 1
            covered |= cells
        if covered != set(grid.full_rect().cells()):
            violations += 1
        for region in decompose_grid(grid, preprocess=False):
            fps = {grid.fingerprint_at(x, y) for x, y in region.rect.cells()}
            if fps != {region.fingerprint}:
                violations += 1
    check(3, "500 random grids: every cut exhaustively minimal, tiling exact", violations == 0)


def test_criterion_04_bitvector_equivalence():
    rng = random.Random(404)
    mismatches = 0
    for _ in range(1000):
        grid = random_label_grid(rng, max_side=12, max_labels=5)
        left = rng.randint(1, grid.width)
        right = rng.randint(left, grid.width)
        top = rng.randint(1, grid.height)
        bottom = rng.randint(top, grid.height)
        rect = Rect(left, top, right, bottom)
        if grid.counts_in(rect) != naive_counts_in(grid, rect):
            mismatches += 1
    check(4, "1000 random (grid, mask) pairs: counts match a naive scan", mismatches == 0)


def test_criterion_05_preprocessing_invariance():
    mismatches = 0
    for seed in range(100):
        workbook = banded_tile_workbook(random.Random(9000 + seed))
        with_pre = analyze_workbook(workbook, AnalysisConfig(preprocess=True)).sheets[0]
        without = analyze_workbook(workbook, AnalysisConfig(preprocess=False)).sheets[0]
        if sorted(with_pre.regions) != sorted(without.regions):
            mismatches += 1
        elif with_pre.fixes != without.fixes:
            mismatches += 1
    check(5, "100 delimiter-bearing grids: regions and fixes invariant", mismatches == 0)


def _simulate_random_flagging(m, r, n, rng, trials=100_000):
    # Positions of a uniform subset among m slots; counting the smaller
    # side against the other side's prefix is the same draw either way.
    k = min(n, r)
    other = max(n, r)
    if k == 0:
        return 0.0
    total = 0
    done = 0
    while done < trials:
        size = min(20_000, trials - done)
        u = rng.random((size, m))
        picks = np.argpartition(u, k - 1, axis=1)[:, :k]
        total += int((picks < other).sum())
        done += size
    return total / trials


def test_criterion_06_hypergeometric_baseline():
    rng_triples = random.Random(606)
    rng_sim = np.random.default_rng(607)
    trials = 100_000
    failures = 0
    for _ in range(20):
        m = rng_triples.randint(2, 200)
        r = rng_triples.randint(0, m)
        n = rng_triples.randint(1, m)
        expected = expected_random_tp(m, r, n)
        simulated = _simulate_random_flagging(m, r, n, rng_sim, trials)
        p = r / m
        variance = n * p * (1 - p) * (m - n) / (m - 1)
        tolerance = 3 * math.sqrt(variance / trials)
        if abs(simulated - expected) > tolerance + 1e-9:
            failures += 1
    check(6, "20 random baselines within 3 standard errors of simulation", failures == 0)


def test_criterion_07_counting_conventions():
    c1 = frozenset({(1, 1), (2, 1), (3, 1)})
    c2 = frozenset((x, 2) for x in range(1, 11))
    truth = SheetTruth(c1 | c2, (BugDual(c1, c2),), frozenset())
    dual_flag_small = count_true_positives(c1, truth)
    dual_flag_all = count_true_positives(c1 | c2, truth)
    zero_flags = precision_recall(0, 0, 0, 0, 0)
    clean_flags = precision_recall(0, 4, 0, 4, 0)
    clean_sheet = evaluate_sheet(set(), SheetTruth(frozenset(), (), frozenset()), 30)
    ok = (
        dual_flag_small == 3
        and dual_flag_all == 3
        and zero_flags == (1.0, 1.0)
        and clean_flags[0] == 0.0
        and clean_sheet.precision == 1.0
        and clean_sheet.recall == 1.0
    )
    check(7, "dual caps and precision edge conventions hold exactly", ok)


def test_criterion_08_determinism_across_runs(synthetic_workbook, tmp_path, capsys):
    source = tmp_path / "synthetic.gridbook"
    source.write_text(serialize_workbook(synthetic_workbook), encoding="utf-8")
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = cli.main(["analyze", str(source), "--out", str(first)])
    code_b = cli.main(["analyze", str(source), "--out", str(second)])
    capsys.readouterr()
    same = first.read_bytes() == second.read_bytes()
    fixes = json.loads(first.read_text())["sheets"][0]["fixes"]
    check(8, "analyze output byte-identical across two runs", code_a == 0 and code_b == 0 and same and len(fixes) > 0)


def test_criterion_09_performance_budget(synthetic_workbook):
    start = time.perf_counter()
    analysis = analyze_workbook(synthetic_workbook)
    elapsed = time.perf_counter() - start
    cells = analysis.sheets[0].cells
    check(9, f"10,000-cell workbook analyzed in {elapsed:.2f}s (< 10s)", cells == 10_000 and elapsed < 10.0)


def test_criterion_10_coloring():
    rng = random.Random(1010)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 15)
        edges = frozenset(
            frozenset((i, j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        )
        graph = AdjacencyGraph(
            vertices=tuple(range(n)),
            edges=edges,
            sizes={v: rng.randint(1, 9) for v in range(n)},
            anchors={v: (v, 0) for v in range(n)},
        )
        colors = assign_colors(graph)
        if any(colors[u] == colors[v] for e in edges for u, v in [tuple(e)]):
            failures += 1
        if (180.0, 1.0, 0.5) not in colors.values():
            failures += 1
    single = assign_colors(
        AdjacencyGraph(("only",), frozenset(), {"only": 1}, {"only": (1, 1)})
    )
    first_hue_ok = single["only"] == (180.0, 1.0, 0.5)
    check(10, "200 random graphs properly colored, first hue 180/1.0/0.5", failures == 0 and first_hue_ok)
