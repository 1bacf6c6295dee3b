"""A same-run control for host speed.

The sandbox this benchmark runs in is a small shared VM whose speed
swings by tens of percent over seconds (sizing saw the same fixed loop
take 44 to 200 ms).  Raw wall time per round therefore spreads wider
than any useful regression bound.  The yardstick is a fixed
pure-Python kernel -- object construction, attribute access, dict and
list traffic, integer arithmetic: what the simulator itself is made of
-- that workloads run between their operations.  Host cost is then
reported in *ticks*: how many yardstick executions the host could have
done in the time a round took, which cancels the part of the noise
that slows everything alike.  Time spent in the yardstick is excluded
from the round's wall time.
"""

from __future__ import annotations

import gc
import time

__all__ = ["Yardstick"]


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value, link):
        self.value = value
        self.link = link

    def bump(self, by):
        return self.value + by


def _kernel(n: int = 16_000) -> int:
    table: dict = {}
    cells: list = []
    total = 0
    for i in range(n):
        cell = _Cell(i, (i, total))
        cells.append(cell)
        table[i & 511] = cell.bump(i)
        total += cell.link[0] * 3 % 7
    return total + len(cells) + len(table)


class Yardstick:
    """Counts and times executions of the fixed kernel."""

    def __init__(self):
        self.ticks = 0
        self.elapsed = 0.0

    def tick(self, repeat: int = 1) -> None:
        """Run the kernel ``repeat`` times.  Workloads with few places to
        tick take several samples at each, so that a round is always
        divided by the mean of eight or more samples."""
        # The kernel allocates; with the collector on, a tick taken while
        # the program holds a large heap would sometimes pay for a full
        # collection of that heap (sizing on sim_steady_flat: median tick
        # 16 ms instead of 5 ms, and no steadier than raw wall time).
        # Everything the kernel allocates is freed by reference count, so
        # the collector's counters are where they were afterwards.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(repeat):
            _kernel()
        self.elapsed += time.perf_counter() - start
        self.ticks += repeat
        if collecting:
            gc.enable()
