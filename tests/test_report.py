"""Color assignment, sheet rendering, and audit payload formatting."""

from __future__ import annotations

import gc
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import inconsistent_sum_workbook
from oracle import naive_assign_colors
from gridlint.model import CellContent, Workbook, Worksheet
from gridlint.pipeline import analyze_sheet
from gridlint.report import (
    EXCLUDED_RED,
    AdjacencyGraph,
    PaletteExhausted,
    assign_colors,
    audit_json,
    audit_sheet_payload,
    audit_text,
    audit_workbook_payload,
    build_adjacency,
    global_view_chunks,
    next_hue,
    render_empty_view,
)
from gridlint.vectors import EMPTY_FINGERPRINT, TEXT_FINGERPRINT


def analyzed(workbook):
    sheet_analysis = analyze_sheet(workbook, workbook.sheets[0])
    return sheet_analysis


def graph_of(edges, vertices=None, uncolorable=()):
    verts = tuple(vertices) if vertices is not None else tuple(
        sorted({v for e in edges for v in e}, key=repr)
    )
    return AdjacencyGraph(
        vertices=verts,
        edges=frozenset(frozenset(e) for e in edges),
        sizes={v: 1 for v in verts},
        anchors={v: (i, 0) for i, v in enumerate(verts)},
        uncolorable=frozenset(uncolorable),
    )


class TestNextHue:
    def test_empty_palette_starts_at_cyan(self):
        assert next_hue(set()) == 180.0

    def test_opposite_without_exclusion(self):
        assert next_hue({180.0}, excluded=None) == 0.0

    def test_quarter_points(self):
        assert next_hue({180.0, 0.0}, excluded=None) == 90.0

    def test_red_band_deflects_to_quarter(self):
        # The arc opposite 180 is centred on 0, inside the excluded red
        # band, so both half-arc midpoints tie and the smaller hue wins.
        assert next_hue({180.0}) == 90.0

    def test_never_lands_in_excluded_band(self):
        used: set[float] = set()
        for _ in range(24):
            hue = next_hue(used)
            lo, hi = EXCLUDED_RED
            assert not (hue >= lo or hue <= hi)
            used.add(hue)

    def test_spacing_at_least_one_degree(self):
        used: set[float] = set()
        for _ in range(24):
            hue = next_hue(used)
            for other in used:
                d = abs(hue - other) % 360.0
                assert min(d, 360.0 - d) >= 1.0
            used.add(hue)

    def test_exhausted_when_no_room_remains(self):
        packed = {i * 1.5 for i in range(240)}
        with pytest.raises(PaletteExhausted):
            next_hue(packed, excluded=None)


class TestAssignColors:
    def test_single_cluster_gets_first_color(self):
        graph = graph_of([], vertices=["a"])
        assert assign_colors(graph) == {"a": (180.0, 1.0, 0.5)}

    def test_two_adjacent_clusters(self):
        graph = graph_of([("a", "b")])
        colors = assign_colors(graph)
        assert sorted(colors.values()) == [(90.0, 1.0, 0.5), (180.0, 1.0, 0.5)]

    def test_path_reuses_colors(self):
        graph = graph_of([("a", "b"), ("b", "c")])
        colors = assign_colors(graph)
        assert colors["a"] == colors["c"]
        assert colors["a"] != colors["b"]
        assert colors["b"] == (180.0, 1.0, 0.5)  # highest degree goes first

    def test_uncolorable_clusters_get_none_and_do_not_constrain(self):
        graph = graph_of(
            [("a", TEXT_FINGERPRINT), (TEXT_FINGERPRINT, "b")],
            uncolorable=[TEXT_FINGERPRINT],
        )
        colors = assign_colors(graph)
        assert colors[TEXT_FINGERPRINT] is None
        # Both formula clusters can take the first hue: the text cluster
        # between them carries no color constraint.
        assert colors["a"] == colors["b"] == (180.0, 1.0, 0.5)

    def test_complete_graph_distinct_well_spaced_hues(self):
        n = 6
        graph = graph_of(
            [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        colors = assign_colors(graph)
        hues = [c[0] for c in colors.values()]
        assert len(set(hues)) == n
        lo, hi = EXCLUDED_RED
        for hue in hues:
            assert not (hue >= lo or hue <= hi)
        for s, l in ((c[1], c[2]) for c in colors.values()):
            assert (s, l) == (1.0, 0.5)

    def test_random_graphs_properly_colored(self):
        rng = random.Random(20260823)
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            graph = graph_of(edges, vertices=range(n))
            colors = assign_colors(graph)
            for e in graph.edges:
                u, v = tuple(e)
                assert colors[u] != colors[v]
            max_degree = max((sum(v in e for e in graph.edges) for v in graph.vertices), default=0)
            assert len({c[0] for c in colors.values()}) <= max_degree + 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_edge_scanning_reference(self, data):
        n = data.draw(st.integers(1, 14))
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.sets(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
        graph = AdjacencyGraph(
            vertices=tuple(range(n)),
            edges=frozenset(frozenset(e) for e in edges),
            sizes={v: data.draw(st.integers(1, 4)) for v in range(n)},
            anchors={v: data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3))) for v in range(n)},
            uncolorable=frozenset(data.draw(st.sets(vertex))),
        )
        assert assign_colors(graph) == naive_assign_colors(graph)


class TestBuildAdjacency:
    def test_fixture_graph(self):
        analysis = analyzed(inconsistent_sum_workbook())
        graph = build_adjacency(analysis.table)
        assert len(graph.vertices) == 3
        assert len(graph.edges) == 3  # all three clusters touch pairwise
        sizes = sorted(graph.sizes.values())
        assert sizes == [1, 5, 24]
        assert graph.uncolorable == frozenset()

    def test_vertices_ordered_by_anchor(self):
        analysis = analyzed(inconsistent_sum_workbook())
        graph = build_adjacency(analysis.table)
        anchors = [graph.anchors[v] for v in graph.vertices]
        assert anchors == sorted(anchors)
        assert anchors[0] == (6, 2)  # data block's top-left (row, col)

    def test_text_and_blank_clusters_marked_uncolorable(self):
        cells = {
            (1, 1): CellContent.text("header"),
            (2, 1): CellContent.text("header B"),
            (1, 2): CellContent.formula("=$Z$9"),
            (3, 2): CellContent.formula("=$Z$9"),
        }
        workbook = Workbook("t", [Worksheet("S", cells)])
        analysis = analyzed(workbook)
        graph = build_adjacency(analysis.table)
        assert TEXT_FINGERPRINT in graph.uncolorable
        assert EMPTY_FINGERPRINT in graph.uncolorable
        colors = assign_colors(graph)
        assert colors[TEXT_FINGERPRINT] is None
        assert colors[EMPTY_FINGERPRINT] is None


def fill_of(page: str, cell: str) -> str:
    match = re.search(rf'fill="([^"]*)"[^>]*><title>{cell}</title>', page)
    assert match, f"no rect titled {cell}"
    return match.group(1)


class TestRenderGlobalView:
    def test_deterministic(self):
        analysis = analyzed(inconsistent_sum_workbook())
        assert "".join(global_view_chunks(analysis.table)) == "".join(global_view_chunks(analysis.table))

    def test_one_rect_per_used_cell(self):
        analysis = analyzed(inconsistent_sum_workbook())
        page = "".join(global_view_chunks(analysis.table))
        assert page.count("<rect ") == 30
        assert "<title>B6</title>" in page
        assert "<title>F11</title>" in page
        assert "<title>A1</title>" not in page

    def test_inconsistent_cell_colored_apart(self):
        analysis = analyzed(inconsistent_sum_workbook())
        page = "".join(global_view_chunks(analysis.table))
        fills = {cell: fill_of(page, cell) for cell in ("B6", "F6", "F7")}
        assert fills["F6"] != fills["F7"]
        assert fills["F6"] != fills["B6"]
        assert fill_of(page, "F8") == fills["F7"]

    def test_legend_lists_cluster_sizes(self):
        analysis = analyzed(inconsistent_sum_workbook())
        page = "".join(global_view_chunks(analysis.table))
        assert "(24 cells)" in page
        assert "(5 cells)" in page
        assert "(1 cells)" in page

    def test_canvas_size_follows_used_range(self):
        analysis = analyzed(inconsistent_sum_workbook())
        page = "".join(global_view_chunks(analysis.table))
        assert '<svg width="110" height="132"' in page  # 5 x 22 by 6 x 22

    def test_sheet_name_escaped(self):
        cells = {(1, 1): CellContent.formula("=1+1")}
        workbook = Workbook("t", [Worksheet("a<b & c", cells)])
        analysis = analyzed(workbook)
        page = "".join(global_view_chunks(analysis.table))
        assert "a&lt;b &amp; c" in page
        assert "<h1>a<b" not in page

    def test_empty_view(self):
        page = render_empty_view("Blank")
        assert "<h1>Blank</h1>" in page
        assert "no regions" in page
        assert page.startswith("<!DOCTYPE html>")


class TestAuditPayload:
    def test_sheet_with_fix(self):
        analysis = analyzed(inconsistent_sum_workbook())
        payload = audit_sheet_payload("Totals", analysis.fixes, 0.05, 30)
        assert payload["sheet"] == "Totals"
        assert payload["threshold"] == 0.05
        assert payload["cells"] == 30
        assert payload["message"] == "1 proposed fixes"
        (entry,) = payload["fixes"]
        assert entry["rank"] == 1
        assert entry["source"] == ["F6"]
        assert entry["target"] == "F7:F11"
        assert entry["score"] == pytest.approx(24.163126574949864, rel=1e-12)
        assert entry["delta_entropy"] == pytest.approx(-0.026494270005942233, rel=1e-12)
        assert entry["distance"] == pytest.approx(7.810249675906654, rel=1e-12)

    def test_sheet_without_fixes(self):
        payload = audit_sheet_payload("Clean", [], 0.05, 12)
        assert payload["fixes"] == []
        assert payload["message"] == "no errors found"

    def test_workbook_wrapper(self):
        sheet = audit_sheet_payload("Clean", [], 0.05, 12)
        payload = audit_workbook_payload("book", 0.05, [sheet])
        assert payload == {"workbook": "book", "threshold": 0.05, "sheets": [sheet]}

    def test_json_round_trip(self):
        analysis = analyzed(inconsistent_sum_workbook())
        sheet = audit_sheet_payload("Totals", analysis.fixes, 0.05, 30)
        text = audit_json(audit_workbook_payload("inconsistent_sum", 0.05, [sheet]))
        assert text.endswith("\n")
        assert text.startswith('{\n  "workbook"')
        assert json.loads(text)["sheets"][0]["fixes"][0]["source"] == ["F6"]

    def test_text_rendering(self):
        analysis = analyzed(inconsistent_sum_workbook())
        sheet = audit_sheet_payload("Totals", analysis.fixes, 0.05, 30)
        text = audit_text(audit_workbook_payload("inconsistent_sum", 0.05, [sheet]))
        assert "workbook: inconsistent_sum" in text
        assert "sheet Totals (30 cells): 1 proposed fixes" in text
        assert "#1 rewrite [F6] to match F7:F11" in text
        assert "score 24.163" in text

    def test_text_rendering_clean_sheet(self):
        sheet = audit_sheet_payload("Clean", [], 0.05, 12)
        text = audit_text(audit_workbook_payload("clean", 0.05, [sheet]))
        assert "sheet Clean (12 cells): no errors found" in text


# Leaves the pure-Python indenting encoder and the C encoder might spell
# differently: escapes and non-ASCII text, signed zero, exponents, big ints.
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, 1e-07, 1e+16, 1.5e300, 10**40, -(10**40), float("inf"), float("nan")]),
    st.text(), st.sampled_from(["é", "\u2028", "\x00", '"', "\\", "\n\t", "😀", "\ud800", "</script>"]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=25,
)


class TestAuditJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_writes_the_bytes_of_the_indenting_encoder(self, value):
        assert audit_json(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [{}, [], {"a": {}}, {"a": []}, [[], {}], {"": [[[]]]}, "x", 0])
    def test_empty_containers_and_bare_leaves(self, value):
        assert audit_json(value) == json.dumps(value, indent=2) + "\n"

    def test_leaves_no_reference_cycle(self):
        payload = audit_workbook_payload("w", 0.05, [audit_sheet_payload("S", [], 0.05, 4)] * 3)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            audit_json(payload)
            found = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == 0
