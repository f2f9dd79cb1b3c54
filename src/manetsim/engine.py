"""Deterministic discrete-event engine: virtual clock, ordered event queue,
named random streams.

One engine instance drives one simulation run on one thread.  All
reproducibility guarantees hinge on two rules enforced here:

* events with equal timestamps dequeue FIFO by insertion order, so the
  execution order is a pure function of the schedule calls;
* every random stream is seeded from (master_seed, stream_name) through a
  fixed hash, so adding a new stream never perturbs draws in existing ones.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Callable, Sequence


class SchedulingError(Exception):
    """An event was scheduled before the current virtual clock."""


class UnknownStreamError(KeyError):
    """A random stream name was requested that was never configured."""


DEFAULT_STREAMS = ("mobility", "traffic", "social", "channel")


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named substream of ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """Independent deterministic generators, one per named stream."""

    def __init__(self, master_seed: int, names: Sequence[str] = DEFAULT_STREAMS):
        self._streams = {
            name: random.Random(derive_stream_seed(master_seed, name))
            for name in names
        }

    def stream(self, name: str) -> random.Random:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStreamError(name) from None


class EventQueue:
    """Time-ordered event queue with FIFO tie-break among equal timestamps."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._next_seq = 0
        self.processed = 0

    def push(self, at: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (at, self._next_seq, action))
        self._next_seq += 1

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[float, Callable[[], None]]:
        at, _seq, action = heapq.heappop(self._heap)
        self.processed += 1
        return at, action


class Simulator:
    """Virtual clock plus event queue plus named random streams."""

    def __init__(self, master_seed: int = 0):
        self.clock = 0.0
        self.queue = EventQueue()
        self.rng = RngStreams(master_seed)

    def schedule(self, at: float, action: Callable[[], None]) -> None:
        if at < self.clock:
            raise SchedulingError(
                f"cannot schedule at t={at}: clock already at t={self.clock}")
        self.queue.push(at, action)

    def run_until(self, end: float) -> None:
        """Process every event with timestamp <= end, then set clock = end."""
        if end < self.clock:
            raise SchedulingError(
                f"run_until({end}) would move the clock backward from {self.clock}")
        heap = self.queue._heap
        pop = self.queue.pop
        while heap and heap[0][0] <= end:
            at, action = pop()
            self.clock = at
            action()
        self.clock = end
