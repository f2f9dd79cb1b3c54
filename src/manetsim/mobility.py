"""Node motion: random-waypoint generation, waypoint-trace import and
position interpolation.

A trace is, per node, an ordered list of (time, x, y) waypoints with
straight-line motion between them.  The text format is one node per line,
whitespace-separated repeating "time x y" triples.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field


@dataclass
class MobilityTrace:
    """Waypoints per node; immutable once built (safe for concurrent reads)."""

    duration: float
    # per node: parallel lists (times, xs, ys), times strictly increasing
    waypoints: dict[int, tuple[list[float], list[float], list[float]]] = field(
        default_factory=dict)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.waypoints)


def generate_waypoint_trace(width_m: float, height_m: float, nodes: int,
                            max_speed: float, duration: float,
                            rng: random.Random, pause_s: float = 0.0,
                            min_speed_fraction: float = 0.1,
                            warmup_s: float = 0.0) -> MobilityTrace:
    """Random-waypoint trace of nodes 0 .. nodes - 1 in a width_m x height_m
    area: uniform destinations, uniform speed per leg.

    Speeds are drawn uniform in (min_speed_fraction * max_speed, max_speed]
    to avoid the zero-speed stagnation pathology; pause at waypoints defaults
    to zero.  A nonzero warm-up runs the walk for that long before t = 0 so
    sampled positions come from near the model's stationary (center-biased)
    distribution rather than the uniform initial draw.  All three knobs are
    configuration, not protocol.
    """
    # in a zero area every leg is empty and the walk's clock never moves
    if not (width_m > 0 and height_m > 0):
        raise ValueError("area dimensions must be positive")
    if nodes < 1:
        raise ValueError("nodes must be at least 1")
    if max_speed <= 0:
        raise ValueError("max_speed must be positive")
    if duration < 0 or warmup_s < 0:
        raise ValueError("duration and warmup must be nonnegative")
    trace = MobilityTrace(duration=duration)
    lo = min_speed_fraction * max_speed
    horizon = warmup_s + duration
    for node in range(nodes):
        x = rng.uniform(0.0, width_m)
        y = rng.uniform(0.0, height_m)
        times, xs, ys = [0.0], [x], [y]
        t = 0.0
        while t < horizon:
            dest_x = rng.uniform(0.0, width_m)
            dest_y = rng.uniform(0.0, height_m)
            speed = rng.uniform(lo, max_speed)
            dist = math.hypot(dest_x - x, dest_y - y)
            if dist == 0.0 or speed <= 0.0:
                continue
            t += dist / speed
            times.append(t)
            xs.append(dest_x)
            ys.append(dest_y)
            x, y = dest_x, dest_y
            if pause_s > 0.0 and t < horizon:
                t += pause_s
                times.append(t)
                xs.append(x)
                ys.append(y)
        trace.waypoints[node] = _shift_waypoints(times, xs, ys, warmup_s)
    return trace


def _shift_waypoints(times, xs, ys, warmup_s):
    """Drop the pre-warm-up prefix and rebase the time axis at the warm-up."""
    if warmup_s <= 0.0:
        return times, xs, ys
    i = bisect.bisect_right(times, warmup_s) - 1
    if i >= len(times) - 1:
        return [0.0], [xs[-1]], [ys[-1]]
    frac = (warmup_s - times[i]) / (times[i + 1] - times[i])
    x0 = xs[i] + frac * (xs[i + 1] - xs[i])
    y0 = ys[i] + frac * (ys[i + 1] - ys[i])
    return ([0.0, *(t - warmup_s for t in times[i + 1:])],
            [x0, *xs[i + 1:]], [y0, *ys[i + 1:]])


def position_at(trace: MobilityTrace, node: int, t: float) -> tuple[float, float]:
    """Position by linear interpolation on the waypoint segment holding t.

    Before the first waypoint the node sits at it; after the last waypoint
    the node holds position (relevant for imported traces shorter than the
    run).
    """
    start, end, x, y, dx, dy = segment_at(trace, node, t)
    if dx is None or t == start:
        return x, y
    frac = (t - start) / (end - start)
    return x + frac * dx, y + frac * dy


def segment_at(trace: MobilityTrace, node: int,
               t: float) -> tuple[float, float, float, float,
                                  float | None, float | None]:
    """The waypoint segment holding t: ``(start, end, x, y, dx, dy)``.

    For every s in [start, end), :func:`position_at` gives (x, y) if dx is
    None or s == start, and else ``x + frac * dx`` (likewise y) with
    ``frac = (s - start) / (end - start)``.  ``start`` is never below 0, so
    negative times stay outside.
    """
    if node not in trace.waypoints:
        raise KeyError(f"unknown node {node}")
    if not (0.0 <= t <= trace.duration):
        raise ValueError(f"t={t} outside [0, {trace.duration}]")
    times, xs, ys = trace.waypoints[node]
    i = bisect.bisect_right(times, t) - 1
    if i < 0:
        return 0.0, times[0], xs[0], ys[0], None, None
    if i >= len(times) - 1:
        return times[-1], math.inf, xs[-1], ys[-1], None, None
    return (times[i], times[i + 1], xs[i], ys[i],
            xs[i + 1] - xs[i], ys[i + 1] - ys[i])


def import_trace(text: str, width_m: float, height_m: float,
                 duration: float | None = None) -> MobilityTrace:
    """Parse the one-node-per-line "time x y ..." waypoint format, every
    coordinate inside the width_m x height_m area.

    Every violation is reported with its 1-based line number.
    """
    waypoints: dict[int, tuple[list[float], list[float], list[float]]] = {}
    last_time = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) % 3 != 0:
            raise ValueError(
                f"line {lineno}: expected repeating 'time x y' triples, "
                f"got {len(fields)} fields")
        times: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field: {exc}")
        for j in range(0, len(values), 3):
            t, x, y = values[j], values[j + 1], values[j + 2]
            if not 0.0 <= t < math.inf or (times and t <= times[-1]):
                raise ValueError(f"line {lineno}: waypoint times not finite, "
                                 f"at least 0 and strictly increasing")
            if not (0.0 <= x <= width_m and 0.0 <= y <= height_m):
                raise ValueError(
                    f"line {lineno}: coordinate ({x}, {y}) outside "
                    f"{width_m} x {height_m} area")
            times.append(t)
            xs.append(x)
            ys.append(y)
        waypoints[len(waypoints)] = (times, xs, ys)
        last_time = max(last_time, times[-1])
    if not waypoints:
        raise ValueError("no nodes in trace")
    return MobilityTrace(
        duration=duration if duration is not None else last_time,
        waypoints=waypoints)
