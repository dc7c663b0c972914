"""Processor-speed reference: times in reference seconds.

On a machine whose cores are shared with other tenants, the speed of
interpreted code can switch between levels far apart: on the 2-core
reference machine of the README, about 1.6x, for spans of seconds to
minutes. A wall-clock time then says as much about the neighbours as
about gridlint. So each timed piece of
work is bracketed by a fixed pure-Python loop, and its wall time is
scaled by REF_NOMINAL_S over the loop's mean time around it: the time
the work would have taken had the loop run at its nominal speed. The
loop does the kinds of work the analysis does and does not touch
gridlint.
"""

from __future__ import annotations

import gc
import time
from typing import NamedTuple, Optional

REF_STEPS = 10_000
# The loop's wall time on an unshared core of the 2-core reference machine.
REF_NOMINAL_S = 0.007


class _Item(NamedTuple):
    column: int
    row: int
    absolute: bool
    sheet: Optional[str]


def reference_seconds() -> float:
    """Wall time of one run of the reference loop.

    It mixes what the analysis spends its time on: dictionary updates
    keyed by tuples, allocating many small named tuples (as range
    expansion does) and short-lived lists.
    """
    # Collections would make the loop's time depend on the heap it finds.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(REF_STEPS):
            key = (i % 977, i % 13)
            table[key] = table.get(key, 0) + i
        items = [_Item(i % 97, i, False, None) for i in range(REF_STEPS)]
        index = {item: item.row for item in items}
        rows = [[(i, j) for j in range(50)] for i in range(REF_STEPS // 30)]
        del items, index, rows
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class RefClock:
    """Scales each measured interval by the reference loop run around it.

    Consecutive intervals share the loop run between them, so timing n
    pieces of work costs n + 1 loop runs.
    """

    def __init__(self) -> None:
        self._before = reference_seconds()

    def scale(self, wall_seconds: float) -> float:
        after = reference_seconds()
        scaled = wall_seconds * 2 * REF_NOMINAL_S / (self._before + after)
        self._before = after
        return scaled
