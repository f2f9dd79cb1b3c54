"""Shared oracle helpers: brute-force path scoring against networkx,
the two-step selection rule (filter, then the argmax of the survivors or of
every usable path), deterministic pseudo-random qualifications keyed by
path, the per-packet definition of the decodable-GoP fraction, the
whole-network snapshot definition of the MAC load factor, the quantised
normal mean written with scipy.stats, a node's velocity on its waypoint
segment, the two-event per-hop path, a config whose input files hold a
given trace and matrix, and Bianchi's saturation throughput of 802.11
DCF."""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import math
import random

import networkx as nx
import numpy as np
from scipy.stats import norm

from manetsim.mac import frame_service
from manetsim.mobility import MobilityTrace
from manetsim.packets import Packet, PacketClass
from manetsim.radio import Medium
from manetsim.routing import (CustomerRequest, PathQualification,
                              SourceProtocol, discover_paths, mscore,
                              qualify, rank)
from manetsim.simulation import TOPOLOGY_QUANTUM_S, SimulationRun
from manetsim.social import (TS_SCALE_MAX, dump_ts_matrix, generate_ts_matrix,
                             path_mean_ts)


def stable_rng(*key) -> random.Random:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def pseudo_qualification(path: tuple[int, ...], salt: int,
                         request: CustomerRequest) -> PathQualification:
    """Random but deterministic raw metrics for a path; both the candidate
    pipeline and the brute-force oracle must use this same mapping."""
    rng = stable_rng("qual", salt, path)
    return qualify(
        path=path,
        bw_bps=rng.uniform(50_000, 400_000),
        loss=rng.uniform(0.0, 0.6),
        delay_s=rng.uniform(0.0, 3.0),
        jitter_s=rng.uniform(0.0, 1.5),
        rm_margin_db=rng.uniform(0.0, 25.0),
        mm_speed_mps=rng.uniform(0.0, 5.0),
        request=request, max_speed_mps=2.0)


def random_connected_graph(rng: random.Random,
                           max_nodes: int = 8) -> tuple[dict, int, int]:
    while True:
        n = rng.randint(4, max_nodes)
        p = rng.uniform(0.35, 0.7)
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
        if nx.is_connected(g) and n >= 2:
            adj = {node: sorted(g.neighbors(node)) for node in g.nodes}
            return adj, 0, n - 1


def filter_paths(quals: list[PathQualification],
                 request: CustomerRequest) -> list[PathQualification]:
    """Keep paths meeting all four bounds; equality passes (inclusive)."""
    return [q for q in quals
            if q.bw_bps >= request.bw_min_bps
            and q.loss <= request.loss_max
            and q.delay_s <= request.delay_max_s
            and q.jitter_s <= request.jitter_max_s]


def select_best(candidates: list[tuple[PathQualification, float]],
                w_ts: float,
                ) -> tuple[PathQualification, float, float] | None:
    """Argmax of mscore; ties break on fewer hops, then lexicographic path."""
    best = None
    best_key = None
    for qual, mean_ts in candidates:
        score = mscore(qual, mean_ts, w_ts)
        key = (-score, qual.hops, qual.path)
        if best_key is None or key < best_key:
            best_key = key
            best = (qual, mean_ts, score)
    return best


def two_step_choice(candidates: list[tuple[PathQualification, float]],
                    request: CustomerRequest, w_ts: float,
                    ) -> tuple[PathQualification, float, float] | None:
    """The selection rule as two steps: the argmax of the candidates that
    meet the request or, when none does, of every candidate."""
    survivors = [q.path for q in filter_paths([q for q, _ in candidates],
                                              request)]
    pool = [c for c in candidates if c[0].path in survivors] or candidates
    return select_best(pool, w_ts)


def brute_force_best(adj: dict, src: int, dst: int, salt: int,
                     ts_matrix: np.ndarray, w_ts: float,
                     request: CustomerRequest):
    """Score every simple path via networkx enumeration and return the
    best under the same rule (paths meeting the request ahead of the rest,
    then the highest score, fewer hops, then lexicographic), every path,
    and whether any path met the request."""
    g = nx.Graph()
    g.add_nodes_from(adj)
    for a, nbrs in adj.items():
        for b in nbrs:
            g.add_edge(a, b)
    best = None
    best_key = None
    all_paths = []
    for path in nx.all_simple_paths(g, src, dst):
        path = tuple(path)
        all_paths.append(path)
        qual = pseudo_qualification(path, salt, request)
        ts = path_mean_ts(path, ts_matrix)
        score = mscore(qual, ts, w_ts)
        fails = not (qual.bw_bps >= request.bw_min_bps
                     and qual.loss <= request.loss_max
                     and qual.delay_s <= request.delay_max_s
                     and qual.jitter_s <= request.jitter_max_s)
        key = (fails, -score, len(path) - 1, path)
        if best_key is None or key < best_key:
            best_key = key
            best = path
    return best, set(all_paths), best_key is not None and not best_key[0]


def pipeline_best(adj: dict, src: int, dst: int, salt: int,
                  ts_matrix: np.ndarray, w_ts: float,
                  request: CustomerRequest):
    paths = discover_paths(adj, src, dst, len(adj), 10**6)
    ranked = rank([(pseudo_qualification(p, salt, request),
                    path_mean_ts(p, ts_matrix)) for p in paths],
                  request, w_ts)
    return (ranked[0].qual.path if ranked else None), set(paths)


def run_oracle_trial(seed: int) -> tuple[bool, bool]:
    """One random graph: whether discovery is complete and the pipeline
    chooses the brute-force path, and whether any path met the request."""
    rng = stable_rng("trial", seed)
    adj, src, dst = random_connected_graph(rng)
    ts = generate_ts_matrix(len(adj), rng.uniform(0.5, 3.5), 1.0, rng)
    w_ts = rng.choice([0.0, 0.125, 0.4, 0.8, 1.0])
    request = CustomerRequest()
    expect, expect_paths, any_met = brute_force_best(adj, src, dst, seed, ts,
                                                     w_ts, request)
    got, got_paths = pipeline_best(adj, src, dst, seed, ts, w_ts, request)
    return expect == got and expect_paths == got_paths, any_met


def decodable_gop_fraction(video_log) -> float:
    """Fraction of GoPs whose I-frame packets all arrived.

    ``video_log`` holds one entry per generated video packet:
    (gop_index, is_i_frame, delivered).  A GoP missing any I packet counts
    as undecodable; a GoP without I entries counts as decodable.
    """
    gop_ok: dict[int, bool] = {}
    for gop_index, is_i, delivered in video_log:
        if gop_index not in gop_ok:
            gop_ok[gop_index] = True
        if is_i and not delivered:
            gop_ok[gop_index] = False
    if not gop_ok:
        return 1.0
    return sum(gop_ok.values()) / len(gop_ok)


def snapshot_load(backlogged: set[int], medium: Medium, node: int,
                  t: float) -> int:
    """The MAC load factor of ``node`` at t: 1 + the backlogged nodes among
    its neighbours in the whole unit-disk graph at the start of t's
    ``TOPOLOGY_QUANTUM_S`` bucket."""
    bucket = math.floor(t / TOPOLOGY_QUANTUM_S) * TOPOLOGY_QUANTUM_S
    return 1 + len(backlogged.intersection(medium.connectivity(bucket)[node]))


def norm_quantized_mean(mu: float, sigma: float) -> float:
    """Expected value of round-then-clamp of N(mu, sigma) onto {0..4},
    summed from ``scipy.stats.norm.cdf``; sigma = 0 is the point mass at
    mu, quantised as ``generate_ts_matrix`` does."""
    if sigma == 0:
        return float(min(TS_SCALE_MAX, max(0, math.floor(mu + 0.5))))
    expected = 0.0
    for level in range(TS_SCALE_MAX + 1):
        lo = level - 0.5
        hi = level + 0.5
        if level == 0:
            p = norm.cdf(hi, loc=mu, scale=sigma)
        elif level == TS_SCALE_MAX:
            p = 1.0 - norm.cdf(lo, loc=mu, scale=sigma)
        else:
            p = (norm.cdf(hi, loc=mu, scale=sigma)
                 - norm.cdf(lo, loc=mu, scale=sigma))
        expected += level * p
    return expected


def velocity_at(trace: MobilityTrace, node: int,
                t: float) -> tuple[float, float]:
    """Velocity vector on the waypoint segment containing t (zero outside
    segments)."""
    if node not in trace.waypoints:
        raise KeyError(f"unknown node {node}")
    times, xs, ys = trace.waypoints[node]
    i = bisect.bisect_right(times, t) - 1
    if i < 0 or i >= len(times) - 1:
        return 0.0, 0.0
    dt = times[i + 1] - times[i]
    return (xs[i + 1] - xs[i]) / dt, (ys[i + 1] - ys[i]) / dt


def validate_trace(trace: MobilityTrace, width_m: float, height_m: float,
                   max_speed: float) -> None:
    """Raise ValueError unless every node's waypoint times strictly
    increase, every waypoint lies in the width_m x height_m area and no leg
    is faster than ``max_speed``."""
    if not trace.waypoints:
        raise ValueError("no nodes in trace")
    for node, (times, xs, ys) in trace.waypoints.items():
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError(f"node {node}: waypoint times not strictly "
                                 f"increasing at index {i}")
        for x, y in zip(xs, ys):
            if not (0.0 <= x <= width_m and 0.0 <= y <= height_m):
                raise ValueError(f"node {node}: waypoint ({x}, {y}) outside "
                                 f"area")
        for i in range(1, len(times)):
            dist = math.hypot(xs[i] - xs[i - 1], ys[i] - ys[i - 1])
            speed = dist / (times[i] - times[i - 1])
            if speed > max_speed * (1.0 + 1e-9):
                raise ValueError(f"node {node}: implied speed {speed:.3f} m/s "
                                 f"exceeds {max_speed} m/s")


class TwoEventRun(SimulationRun):
    """A run whose hops cost two events: ``_kick`` schedules ``_transmit``
    after the access delay, and ``_transmit`` decides the hop when the frame
    goes on air.  It draws the channel stream in on-air order, so with no
    channel draws its output equals ``SimulationRun``'s byte for byte."""

    def _kick(self, node: int) -> None:
        state = self.mac.nodes[node]
        if state.transmitting:
            return
        packet = self.mac.dequeue_next(node)
        if packet is None:
            return
        state.transmitting = True
        t = self.sim.clock
        load = self.mac.neighborhood_load(node, t)
        access = self.config.mac.access_delay_s * load
        self.sim.schedule(t + access, self._transmit, node, packet, load)

    def _transmit(self, node: int, packet: Packet, load: float) -> None:
        t = self.sim.clock
        _, rate, air = frame_service(packet.size_bytes, load,
                                     self.config.mac.access_delay_s,
                                     self.config.radio.nominal_bitrate_bps)
        if packet.klass is PacketClass.BEACON:
            self._delivered(packet)
            self.sim.schedule(t + air, self._tx_done, node)
            return
        hop = packet.hop_index + 1
        if hop >= len(packet.route):
            self._tx_done(node)
            return
        nxt = packet.route[hop]
        link = self.medium.link_state(node, nxt, t)
        outcome = self.medium.transmit(link, air, self._channel)
        if packet.klass is PacketClass.PROBE:
            va = self._velocity_of(link.node_a, t)
            vb = self._velocity_of(link.node_b, t)
            SourceProtocol.on_probe_hop(
                packet, link.margin_db, rate,
                math.hypot(vb[0] - va[0], vb[1] - va[1]))
        busy, cause = outcome
        if cause is None:
            self.sim.schedule(t + busy, self._hop_done, node, nxt, packet)
            return
        self._drop(packet, cause)
        if cause == "link-break":
            self._tx_done(node)
        else:  # corruption: the frame still takes its air time
            self.sim.schedule(t + busy, self._tx_done, node)


def with_inputs(tmp_path, config, trace=None, ts=None):
    """``config`` with ``mobility.trace`` naming a file in ``tmp_path`` that
    holds ``trace``, if given, and ``social.matrix`` one that holds ``ts``,
    if given: the one way a run takes a trace or matrix.

    The trace is written one node per line as ``repr``'d ``t x y`` triples,
    which read back exactly; the run's importer sets its duration to
    ``config.duration_s``.  Each file is named by its content's digest, so
    one test may write several.
    """
    def write(stem, text):
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        path = tmp_path / f"{stem}-{digest}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    mobility, social = config.mobility, config.social
    if trace is not None:
        text = "".join(" ".join(f"{t!r} {x!r} {y!r}"
                                for t, x, y in zip(*trace.waypoints[node]))
                       + "\n" for node in trace.node_ids)
        mobility = dataclasses.replace(mobility, trace=write("trace", text))
    if ts is not None:
        social = dataclasses.replace(social,
                                     matrix=write("ts", dump_ts_matrix(ts)))
    return config.replace(mobility=mobility, social=social)


def dcf_saturation(senders: int, payload_bytes: int = 1500,
                   cw_min: int = 32, stages: int = 5) -> tuple[float, float]:
    """(collision probability, frames/s) of ``senders`` saturated 802.11b
    stations in mutual range, by Bianchi's model ("Performance analysis of
    the IEEE 802.11 distributed coordination function", IEEE JSAC 2000).

    Basic access: a frame is the 192 us long preamble plus payload and a
    34-byte MAC header at 11 Mb/s; a success adds SIFS and a 14-byte ACK at
    1 Mb/s, and a success or a collision then DIFS; slots of 20 us, no
    propagation delay and no EIFS.  The collision probability p solves
    p = 1 - (1 - tau(p)) ** (senders - 1), found by bisection on [0, 0.49].
    """
    slot, sifs, difs, preamble = 20e-6, 10e-6, 50e-6, 192e-6

    def tau(p):  # a station's chance to send in a slot
        return 2.0 * (1.0 - 2.0 * p) / (
            (1.0 - 2.0 * p) * (cw_min + 1)
            + p * cw_min * (1.0 - (2.0 * p) ** stages))

    low, high = 0.0, 0.49
    if senders > 1:
        for _ in range(100):
            mid = (low + high) / 2.0
            if 1.0 - (1.0 - tau(mid)) ** (senders - 1) > mid:
                low = mid
            else:
                high = mid
    p = low
    t = tau(p)
    busy = 1.0 - (1.0 - t) ** senders
    success = senders * t * (1.0 - t) ** (senders - 1)
    data = preamble + 8 * (payload_bytes + 34) / 11e6
    t_success = data + sifs + preamble + 8 * 14 / 1e6 + difs
    t_collision = data + difs
    mean_slot = ((1.0 - busy) * slot + success * t_success
                 + (busy - success) * t_collision)
    return p, success / mean_slot
