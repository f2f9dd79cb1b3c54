"""Simplified 802.11e-style access differentiation.

Four priority queues per node served in strict priority order (AC0 first).
This keeps the ordering semantics that matter for video (I over P over B,
signaling above all) without modelling contention windows; contention shows
up instead as the neighborhood load factor that scales the effective rate
and channel-access latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

from .packets import Packet, PacketClass


class AccessCategory(IntEnum):
    AC0 = 0  # signaling
    AC1 = 1  # high priority (I frames)
    AC2 = 2  # medium priority (P frames)
    AC3 = 3  # low priority (B frames + best effort)


# Fixed mapping, not configurable.
PRIORITY_MAP: dict[PacketClass, AccessCategory] = {
    PacketClass.BEACON: AccessCategory.AC0,
    PacketClass.PROBE: AccessCategory.AC0,
    PacketClass.PROBE_REPLY: AccessCategory.AC0,
    PacketClass.VIDEO_I: AccessCategory.AC1,
    PacketClass.VIDEO_P: AccessCategory.AC2,
    PacketClass.VIDEO_B: AccessCategory.AC3,
    PacketClass.CBR: AccessCategory.AC3,
}

DEFAULT_QUEUE_CAPACITY = 50  # packets per access category


def category_of(packet: Packet) -> AccessCategory:
    return PRIORITY_MAP[packet.klass]


def frame_service(size_bytes: float, load: float, access_delay_s: float,
                  bitrate_bps: float) -> tuple[float, float, float]:
    """The load-factor law of every frame at neighbourhood load ``load``:
    its channel-access delay, ``access_delay_s * load``, the bitrate shared
    among max(1, load) contenders, and its air time at that rate."""
    rate = bitrate_bps / (load if load > 1.0 else 1.0)
    return access_delay_s * load, rate, size_bytes * 8.0 / rate


@dataclass
class NodeQueues:
    """Per-node MAC state: four FIFO queues plus the half-duplex flag."""

    queues: tuple[deque, deque, deque, deque] = field(
        default_factory=lambda: (deque(), deque(), deque(), deque()))
    transmitting: bool = False


class MacLayer:
    """All nodes' queues plus the neighborhood load metric.

    Packets enter and leave the queues only through ``enqueue`` and
    ``dequeue_next``, which keep the set of nodes with a nonempty queue.
    """

    def __init__(self, node_ids: list[int],
                 capacity: int = DEFAULT_QUEUE_CAPACITY,
                 neighbor_provider=None):
        self.nodes = {n: NodeQueues() for n in node_ids}
        self.capacity = capacity  # packets per access category
        # (node, t) -> the other backlogged nodes linked to node at t
        self._neighbor_provider = neighbor_provider
        # nodes with a nonempty queue, for reading only
        self.backlogged: set[int] = set()

    def enqueue(self, node: int, packet: Packet) -> bool:
        """Append to the node's mapped queue; False means queue-overflow
        drop."""
        q = self.nodes[node].queues[PRIORITY_MAP[packet.klass]]
        if len(q) >= self.capacity:
            return False
        q.append(packet)
        self.backlogged.add(node)
        return True

    def dequeue_next(self, node: int) -> Packet | None:
        """Head of the node's lowest-numbered nonempty queue (strict
        priority)."""
        queues = self.nodes[node].queues
        for q in queues:
            if q:
                packet = q.popleft()
                if not (queues[0] or queues[1] or queues[2] or queues[3]):
                    self.backlogged.discard(node)
                return packet
        return None

    def neighborhood_load(self, node: int, t: float) -> int:
        """1 + number of neighbors with a nonempty MAC queue at t."""
        if self._neighbor_provider is None:
            return 1
        return 1 + len(self._neighbor_provider(node, t))
