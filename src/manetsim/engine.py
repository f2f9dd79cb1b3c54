"""Deterministic discrete-event engine: virtual clock, ordered event queue,
named random streams, and the one float sum.

One engine instance drives one simulation run on one thread.  All
reproducibility guarantees hinge on two rules enforced here:

* events with equal timestamps dequeue FIFO by insertion order, so the
  execution order is a pure function of the schedule calls;
* ``Simulator.rng[name]`` is ``random.Random(derive_stream_seed(master_seed,
  name))`` for each name in STREAMS: its draws depend on the name and the
  master seed alone, so adding a stream never perturbs the existing ones.

A third rule is kept by every module that computes an output: a float sum
whose value reaches an output file is ``add_up``'s, so the bytes do not
depend on the CPython version.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from heapq import heappop, heappush
from typing import Callable


class SchedulingError(Exception):
    """An event was scheduled before the current virtual clock."""


STREAMS = ("mobility", "traffic", "social", "channel")


def add_up(values) -> float:
    """The sum of ``values``, added left to right in floats from 0.0.

    From CPython 3.12 on, ``sum()`` over floats is compensated (Neumaier),
    so its last bit differs from 3.10 and 3.11; a last bit in a routing
    period moves the next iteration's start, and so every later event.
    This is the plain sum on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named substream of ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class EventQueue:
    """Time-ordered event queue with FIFO tie-break among equal timestamps.

    Entries are ``(at, seq, handler, args)``.  ``Simulator`` pushes to and
    pops from the heap itself, one event at a time, and adds the events it
    ran to ``processed``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self.processed = 0

    def push(self, at: float, handler: Callable[..., None], *args) -> None:
        heappush(self._heap, (at, next(self._seq), handler, args))

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[float, Callable[..., None], tuple]:
        at, _seq, handler, args = heappop(self._heap)
        self.processed += 1
        return at, handler, args


class Simulator:
    """Virtual clock plus event queue plus named random streams."""

    def __init__(self, master_seed: int = 0):
        self.clock = 0.0
        self.queue = EventQueue()
        self.rng = {name: random.Random(derive_stream_seed(master_seed, name))
                    for name in STREAMS}
        self._heap = self.queue._heap
        self._seq = self.queue._seq

    def schedule(self, at: float, handler: Callable[..., None],
                 *args) -> None:
        """Run ``handler(*args)`` at time ``at``."""
        if at < self.clock:
            raise SchedulingError(
                f"cannot schedule at t={at}: clock already at t={self.clock}")
        heappush(self._heap, (at, next(self._seq), handler, args))

    def run_until(self, end: float) -> None:
        """Process every event with timestamp <= end, then set clock = end."""
        if end < self.clock:
            raise SchedulingError(
                f"run_until({end}) would move the clock backward from {self.clock}")
        heap = self._heap
        pop = heappop
        ran = 0
        try:
            while heap and heap[0][0] <= end:
                at, _seq, handler, args = pop(heap)
                ran += 1
                self.clock = at
                handler(*args)
        finally:
            self.queue.processed += ran
        self.clock = end
