"""Rendering: the colored whole-sheet view and the ranked audit report.

Cells sharing a fingerprint form one visual cluster (wherever they sit),
clusters touching edge-to-edge must get distinct colors, and hues are
drawn from a deterministic walk around the hue circle that keeps new
colors as far as possible from the ones already placed while skipping
the red band reserved for highlighting suspected errors.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Optional, Sequence

from .model import GridlintError, to_a1
from .vectors import EMPTY_FINGERPRINT, TEXT_FINGERPRINT, SheetVectors
from .fixes import ProposedFix

EXCLUDED_RED = (345.0, 15.0)

HSL = tuple[float, float, float]


class PaletteExhausted(GridlintError):
    """No new hue can keep at least 1 degree of separation."""


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected simple graph over fingerprint clusters."""

    vertices: tuple[Hashable, ...]
    edges: frozenset  # of frozenset pairs
    sizes: Mapping[Hashable, int]
    anchors: Mapping[Hashable, tuple[int, int]]  # (row, col) of top-left cell
    uncolorable: frozenset = field(default_factory=frozenset)


def build_adjacency(table: SheetVectors) -> AdjacencyGraph:
    """Cluster the used range by fingerprint and link touching clusters."""
    rect = table.rect
    sizes: dict[Hashable, int] = {}
    anchors: dict[Hashable, tuple[int, int]] = {}
    edges = set()
    for y in range(rect.top, rect.bottom + 1):
        for x in range(rect.left, rect.right + 1):
            fp = table.fingerprint(x, y)
            sizes[fp] = sizes.get(fp, 0) + 1
            # Reading order visits each fingerprint's top-left cell first.
            anchors.setdefault(fp, (y, x))
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx <= rect.right and ny <= rect.bottom:
                    other = table.fingerprint(nx, ny)
                    if other != fp:
                        edges.add(frozenset((fp, other)))
    uncolorable = frozenset(
        fp for fp in sizes if fp in (TEXT_FINGERPRINT, EMPTY_FINGERPRINT)
    )
    vertices = tuple(sorted(sizes, key=lambda fp: anchors[fp]))
    return AdjacencyGraph(vertices, frozenset(edges), sizes, anchors, uncolorable)


def _in_arc(hue: float, arc: tuple[float, float]) -> bool:
    lo, hi = arc
    hue %= 360.0
    if lo <= hi:
        return lo <= hue <= hi
    return hue >= lo or hue <= hi


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _gap_candidates(lo: float, hi: float, excluded: Optional[tuple[float, float]], out: list[float]) -> None:
    # Midpoint of the arc; if it lands in the excluded band, bisect both
    # halves until an allowed midpoint appears or the arc gets too thin.
    if hi - lo < 2.0:
        return
    mid = (lo + hi) / 2.0
    if excluded is None or not _in_arc(mid, excluded):
        out.append(mid % 360.0)
        return
    _gap_candidates(lo, mid, excluded, out)
    _gap_candidates(mid, hi, excluded, out)


def next_hue(used: set[float], excluded: Optional[tuple[float, float]] = EXCLUDED_RED) -> float:
    """The next palette hue: 180 first, then gap midpoints.

    Each later hue bisects the widest remaining arc between used hues
    (subdividing further when a midpoint falls in the excluded band);
    equally good candidates resolve to the numerically smallest hue.
    """
    if not used:
        return 180.0
    hues = sorted(h % 360.0 for h in used)
    candidates: list[float] = []
    for i, a in enumerate(hues):
        b = hues[i + 1] if i + 1 < len(hues) else hues[0] + 360.0
        _gap_candidates(a, b, excluded, candidates)
    best: Optional[tuple[float, float]] = None
    for c in candidates:
        dist = min(_circular_distance(c, h) for h in hues)
        key = (round(dist, 9), -c)
        if best is None or key > (round(best[0], 9), -best[1]):
            best = (dist, c)
    if best is None or best[0] < 1.0:
        raise PaletteExhausted("hue spacing would drop below 1 degree")
    return best[1]


def assign_colors(graph: AdjacencyGraph, excluded: Optional[tuple[float, float]] = EXCLUDED_RED) -> dict[Hashable, Optional[HSL]]:
    """Greedy proper coloring, most-constrained clusters first.

    Visit order: descending degree, then descending size, then top-left
    anchor.  Uncolorable clusters (plain text, blanks) get None and do
    not constrain their neighbours.  One pass over the edges builds every
    vertex's neighbours, so coloring is linear in the graph's size.
    """
    neighbors: dict[Hashable, list[Hashable]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    order = sorted(
        graph.vertices,
        key=lambda v: (-len(neighbors[v]), -graph.sizes.get(v, 1), graph.anchors.get(v, (0, 0))),
    )
    palette: list[float] = []
    index_of: dict[Hashable, int] = {}
    colors: dict[Hashable, Optional[HSL]] = {}
    for v in order:
        if v in graph.uncolorable:
            colors[v] = None
            continue
        taken = {index_of[n] for n in neighbors[v] if n in index_of}
        k = 0
        while k in taken:
            k += 1
        while k >= len(palette):
            palette.append(next_hue(set(palette), excluded))
        index_of[v] = k
        colors[v] = (palette[k], 1.0, 0.5)
    return colors


def _css_color(color: Optional[HSL]) -> str:
    if color is None:
        return "#ffffff"
    h, s, l = color
    return f"hsl({h:g}, {s * 100:g}%, {l * 100:g}%)"


def _fingerprint_label(fp: Hashable) -> str:
    if fp == EMPTY_FINGERPRINT:
        return "blank"
    if fp == TEXT_FINGERPRINT:
        return "text"
    try:
        return "(" + ", ".join(str(part) for part in fp) + ")"
    except TypeError:
        return str(fp)


CELL_PX = 22


def global_view_chunks(table: SheetVectors, graph: Optional[AdjacencyGraph] = None,
                       colors: Optional[Mapping[Hashable, Optional[HSL]]] = None) -> Iterator[str]:
    """Self-contained HTML page with one SVG rect per used-range cell, in
    pieces of at most one sheet row of cells, so that a writer never
    holds the whole page."""
    if graph is None:
        graph = build_adjacency(table)
    if colors is None:
        colors = assign_colors(graph)
    rect = table.rect
    width_px = rect.width * CELL_PX
    height_px = rect.height * CELL_PX
    name = html.escape(table.sheet_name)
    yield (
        "<!DOCTYPE html>\n"
        f"<html><head><meta charset=\"utf-8\"><title>{name}</title>\n"
        "<style>body{font-family:sans-serif}"
        ".swatch{display:inline-block;width:12px;height:12px;"
        "border:1px solid #999;margin-right:4px}</style></head>\n"
        f"<body><h1>{name}</h1>\n"
        f'<svg width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">\n'
    )
    for y in range(rect.top, rect.bottom + 1):
        py = (y - rect.top) * CELL_PX
        row = "\n".join(
            f'<rect x="{(x - rect.left) * CELL_PX}" y="{py}" width="{CELL_PX}" height="{CELL_PX}" '
            f'fill="{_css_color(colors.get(table.fingerprint(x, y)))}" stroke="#cccccc" stroke-width="1">'
            f"<title>{html.escape(to_a1(x, y))}</title></rect>"
            for x in range(rect.left, rect.right + 1)
        )
        yield row if y == rect.top else "\n" + row
    legend_items = []
    for fp in sorted(graph.vertices, key=lambda v: (graph.anchors[v], repr(v))):
        swatch = _css_color(colors.get(fp))
        legend_items.append(
            f'<li><span class="swatch" style="background:{swatch}"></span> '
            f"{html.escape(_fingerprint_label(fp))} "
            f"({graph.sizes[fp]} cells)</li>"
        )
    yield (
        "\n</svg>\n<h2>Legend</h2>\n<ul>\n"
        + "\n".join(legend_items)
        + "\n</ul>\n</body></html>\n"
    )


def render_empty_view(sheet_name: str) -> str:
    name = html.escape(sheet_name)
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><meta charset=\"utf-8\"><title>{name}</title></head>\n"
        f"<body><h1>{name}</h1><p>no regions: the sheet has no cells</p>"
        "</body></html>\n"
    )


def audit_sheet_payload(sheet_name: str, fixes: Sequence[ProposedFix], threshold: float, cells: int) -> dict:
    """JSON-ready audit record for one sheet."""
    entries = []
    for rank, fix in enumerate(fixes, start=1):
        entries.append(
            {
                "rank": rank,
                "score": fix.score,
                "delta_entropy": fix.delta_entropy,
                "distance": fix.distance,
                "source": [to_a1(x, y) for x, y in fix.source.cells()],
                "target": fix.target.a1(),
            }
        )
    message = "no errors found" if not entries else f"{len(entries)} proposed fixes"
    return {
        "sheet": sheet_name,
        "threshold": threshold,
        "cells": cells,
        "fixes": entries,
        "message": message,
    }


def audit_workbook_payload(workbook_name: str, threshold: float, sheet_payloads: Sequence[dict]) -> dict:
    return {
        "workbook": workbook_name,
        "threshold": threshold,
        "sheets": list(sheet_payloads),
    }


def _write_json(value: object, indent: str, out: list[str]) -> None:
    """Append the text of `json.dumps(value, indent=2)` nested at `indent`
    to `out`.  Keys are strings, and every other leaf goes through the
    C encoder (`json.dumps` without `indent`)."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            out += (separator, json.dumps(key), ": ")
            _write_json(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def audit_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2)` and a newline.  The indenting
    encoder of `json` is pure Python, and its recursive closures leave
    reference cycles behind on every call; this writer leaves none."""
    out: list[str] = []
    _write_json(payload, "", out)
    out.append("\n")
    return "".join(out)


def audit_text(payload: dict) -> str:
    """Plain-text rendering of a workbook audit payload."""
    lines = [f"workbook: {payload['workbook']}", f"threshold: {payload['threshold']}"]
    for sheet in payload["sheets"]:
        lines.append(f"sheet {sheet['sheet']} ({sheet['cells']} cells): {sheet['message']}")
        for entry in sheet["fixes"]:
            src = ", ".join(entry["source"])
            lines.append(
                f"  #{entry['rank']} rewrite [{src}] to match {entry['target']} "
                f"(score {entry['score']:.3f}, entropy {entry['delta_entropy']:+.6f}, "
                f"distance {entry['distance']:.3f})"
            )
    return "\n".join(lines) + "\n"
