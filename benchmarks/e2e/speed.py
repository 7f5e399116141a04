"""Host seconds at a reference machine speed.

The sandbox this benchmark runs in is not jittery, it is moody: for
minutes at a time everything runs 10–30 % slower (other tenants of the
same cores; steal time is nil and CPU time inflates as much as wall
time), so neither the minimum nor the median of a few repeats of a
region is steady — sizing runs saw the run-to-run spread of a
median-of-3 between 2 % and 24 % within one hour.

What does track those spells is fixed work measured *while the region
runs*. :class:`SpeedSampler` arms an interval timer; every 50 ms of wall
time its handler stops the clock, runs one :func:`calibration_slice`
(~1.7 ms on the quiet reference container), times it, and restarts the
clock. Afterwards every stretch between two slices is divided by how
slow its two neighbouring slices were, and the sum is the region's time
*at reference speed*. The slices themselves are not part of the region.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Host seconds one calibration slice takes on the reference container
#: when nothing else competes for the core.
REFERENCE_SLICE_S = 0.0017
#: Wall seconds between two slices: ~3 % of the run goes to calibration.
INTERVAL_S = 0.05


def calibration_slice(rounds: int = 4000) -> float:
    """A fixed piece of interpreter work shaped like the simulator's:
    heap pushes and pops, dict traffic, float arithmetic.

    It allocates floats only — no tuple, no object the cyclic collector
    tracks — so a slice never triggers a collection of the workload's
    heap and its duration says how fast the machine is, nothing else.
    """
    heap: list[float] = []
    table: dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    total = 0.0
    for i in range(rounds):
        push(heap, (i * 7919) % 1013 + i * 1e-7)
        if i % 3 == 0:
            table[i % 997] = pop(heap)
        total += table.get((i - 5) % 997, 0.5) * 0.5
    return total


class SpeedSampler:
    """Interleaves calibration slices with whatever the main thread runs."""

    def __init__(self) -> None:
        #: (start, end) on the ``perf_counter`` clock of every slice run.
        self.slices: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        calibration_slice()
        self.slices.append((start, time.perf_counter()))

    def measure(self, began: float, finished: float) -> tuple[float, float]:
        """``(raw, reference)`` seconds of the window, slices excluded.

        A stretch of the window between two slices ran at the speed
        those two slices saw (their mean duration over the reference
        duration); a window no slice fell into counts as measured.
        """
        inside = [(s, e) for s, e in self.slices if e > began and s < finished]
        if not inside:
            return finished - began, finished - began
        slow = [(e - s) / REFERENCE_SLICE_S for s, e in inside]
        raw = reference = 0.0
        cursor = began
        for index, (start, end) in enumerate(inside):
            stretch = max(0.0, start - cursor)
            before = slow[index - 1] if index else slow[index]
            raw += stretch
            reference += stretch / ((before + slow[index]) / 2.0)
            cursor = max(cursor, end)
        tail = max(0.0, finished - cursor)
        return raw + tail, reference + tail / slow[-1]
