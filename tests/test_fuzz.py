"""Fuzz of the analyze path: workbook JSON -> analysis -> audit report.

Every input must either be analysed, or be refused with a FormatError,
the GridlintError that the CLI maps to exit 2.  Inputs are small sheets
of numbers, text and formulas (well-formed, malformed, nested too deep,
whole columns and rows), sometimes with one cell far enough away to
exceed MAX_USED_CELLS, and malformed JSON documents.

The used-range limit is lowered to FUZZ_LIMIT here, so that a sheet past
it stays small enough to analyse if the check were missing: the test
then fails on its assertion instead of exhausting memory.  The CLI test
covers the real limit in a memory-capped child process.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from gridlint import pipeline, vectors
from gridlint.model import FormatError, parse_workbook_json, to_a1
from gridlint.report import audit_json

FUZZ_LIMIT = 100
# The used range from any cell in A1:F6 to one of these exceeds FUZZ_LIMIT.
FAR_CELLS = [(30, 30), (7, 60), (60, 7)]
assert all((c - 5) * (r - 5) > FUZZ_LIMIT for c, r in FAR_CELLS)

REFS = ["A1", "$B$2", "C$3", "$A1", "B:B", "$A:$C", "2:2", "A1:C4", "C4:A1", "Sheet2!A1",
        "[Other.xlsx]S!B2", "XFD1048576", "A1:XFD1048576", "A0", "ZZZZ1"]
FUNCTIONS = ["SUM", "ABS", "VLOOKUP", "IF", "MAX", "NOSUCH"]

atoms = st.one_of(
    st.sampled_from(REFS),
    st.integers(-5, 100).map(str),
    st.sampled_from(["TRUE", "FALSE", '"x"', "1.5e3", "#REF!"]),
)
expressions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "&", "<>", "="]), inner).map("".join),
        st.tuples(st.sampled_from(FUNCTIONS), st.lists(inner, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}({','.join(t[1])})"
        ),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=8,
)
formulas = st.one_of(
    expressions.map("=".__add__),
    st.integers(60, 300).map(lambda d: "=" + "(" * d + "A1" + ")" * d),
    st.text(alphabet="A1:$()+-,!\"'[]#=. ", max_size=14).map("=".__add__),
)
payloads = st.one_of(
    st.builds(lambda v: {"n": v}, st.one_of(st.integers(-10**6, 10**6), st.floats(), st.booleans())),
    # Never blank: whitespace-only text is dropped at load time.
    st.builds(lambda v: {"s": "t" + v}, st.text(max_size=6)),
    st.builds(lambda v: {"f": v}, formulas),
)


@st.composite
def workbook_texts(draw) -> tuple[str, bool]:
    """(document, whether some sheet's used range exceeds the limit)."""
    sheets = []
    too_large = False
    for index in range(draw(st.integers(0, 2))):
        cells = draw(st.dictionaries(
            st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda cr: to_a1(*cr)),
            payloads,
            max_size=20,
        ))
        if draw(st.integers(0, 4)) == 0:
            too_large |= bool(cells)
            cells[to_a1(*draw(st.sampled_from(FAR_CELLS)))] = draw(payloads)
        sheets.append({"name": f"S{index}", "cells": cells})
    return json.dumps({"workbook": "fuzz", "sheets": sheets}), too_large


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def malformed_texts(draw) -> str:
    """A valid one-cell document with one part replaced by junk, or junk text."""
    doc = {"workbook": "w", "sheets": [{"name": "S", "cells": {"A1": {"n": 1}}}]}
    where = draw(st.sampled_from(["top", "workbook", "sheets", "sheet", "name", "cells", "address", "payload", "text"]))
    junk = draw(json_values)
    if where == "top":
        doc = junk
    elif where == "workbook":
        doc["workbook"] = junk
    elif where == "sheets":
        doc["sheets"] = junk
    elif where == "sheet":
        doc["sheets"] = [junk]
    elif where == "name":
        doc["sheets"][0]["name"] = junk
    elif where == "cells":
        doc["sheets"][0]["cells"] = junk
    elif where == "address":
        doc["sheets"][0]["cells"] = {draw(st.text(max_size=8)): {"n": 1}}
    elif where == "payload":
        doc["sheets"][0]["cells"]["A1"] = junk
    else:
        return draw(st.text(max_size=30))
    return json.dumps(doc)


def analyze_text(text: str) -> bool:
    """True when analysed, False when refused with a FormatError; any
    other exception fails the test."""
    try:
        with mock.patch.object(vectors, "MAX_USED_CELLS", FUZZ_LIMIT):
            workbook = parse_workbook_json(text)
            analysis = pipeline.analyze_workbook(workbook)
            audit_json(pipeline.audit_payload(analysis, 0.05))
    except FormatError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(workbook_texts())
def test_random_sheets_analyse_or_fail_cleanly(case):
    text, too_large = case
    assert analyze_text(text) is not too_large


@settings(max_examples=150, deadline=None)
@given(malformed_texts())
def test_malformed_documents_fail_cleanly(text):
    analyze_text(text)
