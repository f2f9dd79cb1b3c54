"""Packet model shared by the traffic, MAC and routing layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class PacketClass(Enum):
    BEACON = "beacon"
    PROBE = "probe"            # per-path monitoring probe
    PROBE_REPLY = "probe-reply"
    VIDEO_I = "video-i"
    VIDEO_P = "video-p"
    VIDEO_B = "video-b"
    CBR = "cbr"


# Drop causes used by the accounting; "end-of-run" covers packets still
# queued or in flight when the clock stops.
DROP_CAUSES = ("queue-overflow", "link-break", "corruption", "no-route",
               "end-of-run")


@dataclass(slots=True)
class Packet:
    klass: PacketClass
    size_bytes: int
    src: int
    dst: int
    route: tuple[int, ...]          # full source route, src first
    created_at: float
    flow_id: int | None = None
    seq: int | None = None
    payload: dict = field(default_factory=dict)
    hop_index: int = 0              # index into route of the current holder
