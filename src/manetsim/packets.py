"""Packet model shared by the traffic, MAC and routing layers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PacketClass(Enum):
    BEACON = "beacon"
    PROBE = "probe"            # per-path monitoring probe
    PROBE_REPLY = "probe-reply"
    VIDEO_I = "video-i"
    VIDEO_P = "video-p"
    VIDEO_B = "video-b"
    CBR = "cbr"

    # singletons, so identity hashing agrees with equality and skips a Python
    # call per dict lookup; it differs per process: iterate no set of them
    __hash__ = object.__hash__


# Drop causes used by the accounting; "end-of-run" covers packets still
# queued or in flight when the clock stops.
DROP_CAUSES = ("queue-overflow", "link-break", "corruption", "no-route",
               "end-of-run")


@dataclass(slots=True)
class Packet:
    klass: PacketClass
    size_bytes: int
    route: tuple[int, ...] | None   # full source route, src to dst, if any
    created_at: float
    flow_id: int | None = None
    payload: dict | None = None     # probes, replies and I packets only
    hop_index: int = 0              # index into route of the current holder
