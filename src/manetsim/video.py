"""VBR video source with a repeating I/P/B frame pattern, packetization with
per-type priorities, and constant-bitrate interferers.

Frame sizes follow lognormal distributions whose means keep the I:P:B ratio
at 5:2:1 and the long-run bitrate at the configured target.  A frame-size
trace can be imported instead for anyone holding real encoder output.

``VideoConfig`` and ``CbrConfig`` are the ``video`` and ``cbr`` sections of
the run configuration: their fields are the section's keys, and each checks
its own ranges, as ``RadioSpec`` does for ``radio``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .engine import add_up
from .packets import Packet, PacketClass

FRAME_CLASS = {
    "I": PacketClass.VIDEO_I,
    "P": PacketClass.VIDEO_P,
    "B": PacketClass.VIDEO_B,
}

SIZE_RATIO = {"I": 5.0, "P": 2.0, "B": 1.0}  # relative mean frame sizes


@dataclass(frozen=True)
class VideoConfig:
    flows: int = 2
    fps: float = 25.0
    target_rate_bps: float = 150_000.0
    pattern: str = "IBBPBBPBBPBB"
    sigma_log: float = 0.3
    max_packet_bytes: int = 1500
    start_s: float = 0.0
    trace: str | None = None

    def __post_init__(self):
        if not self.pattern or self.pattern[0] != "I":
            raise ValueError("GoP pattern must start with an I frame")
        if any(c not in "IPB" for c in self.pattern):
            raise ValueError("GoP pattern may only contain I, P and B")
        # a frame trace opens a GoP at each I frame: so must the pattern
        if "I" in self.pattern[1:]:
            raise ValueError(f"GoP pattern {self.pattern!r} has an I frame "
                             f"after its first, which would open a GoP")
        if self.fps <= 0 or self.target_rate_bps <= 0:
            raise ValueError("fps and target rate must be positive")
        if self.max_packet_bytes < 1:
            raise ValueError("max_packet_bytes must be at least 1")
        if self.flows < 0 or self.start_s < 0:
            raise ValueError("flows and start_s may not be negative")

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.fps

    def mean_sizes(self) -> dict[str, float]:
        """Mean frame size in bytes per type, calibrated to the target rate."""
        counts = {t: self.pattern.count(t) for t in "IPB"}
        gop_bytes = self.target_rate_bps * len(self.pattern) / self.fps / 8.0
        unit = gop_bytes / add_up(counts[t] * SIZE_RATIO[t] for t in "IPB")
        return {t: SIZE_RATIO[t] * unit for t in "IPB"}


class VideoFrame(NamedTuple):  # a frozen dataclass pays a setattr per field
    gop_index: int
    frame_index: int  # position within the GoP pattern
    frame_type: str
    size_bytes: int
    generated_at: float


class VideoSource:
    """Generates frames in pattern order with lognormal sizes, or replays a
    frame trace from ``load_frame_trace``, which starts with an I frame,
    cyclically, opening a GoP at each of its I frames."""

    def __init__(self, video: VideoConfig,
                 trace: list[tuple[str, int]] | None = None):
        self.video = video
        self._trace = trace
        self._counter = 0
        self._gop = -1  # of the last traced frame
        self._position = 0
        means = video.mean_sizes()
        # lognormal location parameter chosen so E[size] matches the mean
        self._mu_log = {t: math.log(m) - video.sigma_log ** 2 / 2.0
                        for t, m in means.items()}

    def next_frame(self, rng: random.Random, now: float) -> VideoFrame:
        if self._trace is not None:
            ftype, size = self._trace[self._counter % len(self._trace)]
            self._counter += 1
            if ftype == "I":
                self._gop += 1
                self._position = 0
            else:
                self._position += 1
            return VideoFrame(self._gop, self._position, ftype, size, now)
        pattern = self.video.pattern
        position = self._counter % len(pattern)
        gop = self._counter // len(pattern)
        self._counter += 1
        ftype = pattern[position]
        size = max(1, round(rng.lognormvariate(
            self._mu_log[ftype], self.video.sigma_log)))
        return VideoFrame(gop, position, ftype, size, now)


def packetize(frame: VideoFrame, max_packet_bytes: int = 1500,
              route: tuple[int, ...] | None = None,
              flow_id: int | None = None) -> list[Packet]:
    """Fragment a frame into packets of at most max_packet_bytes, each
    tagged with the frame's priority class."""
    if frame.size_bytes <= 0:
        raise ValueError("frame size must be positive")
    klass = FRAME_CLASS[frame.frame_type]
    n = math.ceil(frame.size_bytes / max_packet_bytes)
    packets = []
    remaining = frame.size_bytes
    for _ in range(n):
        size = min(max_packet_bytes, remaining)
        remaining -= size
        packets.append(Packet(klass, size, route, frame.generated_at,
                              flow_id))
    return packets


@dataclass(frozen=True)
class CbrConfig:
    flows: int = 1
    rate_bps: float = 300_000.0
    packet_bytes: int = 1500
    refresh_s: float = 5.0  # period of the single-path route lookup

    def __post_init__(self):
        if self.flows < 0:
            raise ValueError("flows may not be negative")
        if self.flows > 0:  # without flows the rate and size go unused
            if self.rate_bps <= 0:
                raise ValueError("CBR rate must be positive")
            if self.packet_bytes <= 0:
                raise ValueError("CBR packet size must be positive")
        if self.refresh_s <= 0:
            raise ValueError("refresh_s must be positive")

    @property
    def interval(self) -> float:
        """Fixed inter-departure time of the best-effort packet stream."""
        return self.packet_bytes * 8.0 / self.rate_bps


def load_frame_trace(text: str) -> list[tuple[str, int]]:
    """Rows of (frame_index, type, size_bytes), comma or whitespace split,
    each index once; the frame of the lowest index must be an I frame, which
    opens the first GoP."""
    frames: list[tuple[int, str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            index, ftype, size = line.replace(",", " ").split()
            index, size = int(index), int(size)
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'index type size', "
                             f"index and size integers") from None
        if ftype not in FRAME_CLASS:
            raise ValueError(f"line {lineno}: frame type must be I, P or B")
        if size <= 0:
            raise ValueError(f"line {lineno}: size must be positive")
        frames.append((index, ftype, size, lineno))
    if not frames:
        raise ValueError("no frames")
    frames.sort(key=lambda f: f[0])
    for (index, *_, first), (other, *_, lineno) in zip(frames, frames[1:]):
        if index == other:
            raise ValueError(f"line {lineno}: frame index {index} repeats "
                             f"line {first}")
    _, ftype, _, lineno = frames[0]
    if ftype != "I":
        raise ValueError(f"line {lineno}: the first frame must be an I "
                         f"frame, which opens a GoP")
    return [(ftype, size) for _, ftype, size, _ in frames]
