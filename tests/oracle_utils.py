"""Shared oracle helpers: brute-force path scoring against networkx,
deterministic pseudo-random qualifications keyed by path, the per-packet
definition of the decodable-GoP fraction, the whole-network snapshot
definition of the MAC load factor, the quantised normal mean written
with scipy.stats, the two-event per-hop path, and each sweep run's pooled
metrics as its files record them."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random

import networkx as nx
import numpy as np
from scipy.stats import norm

from manetsim.packets import Packet, PacketClass
from manetsim.radio import Medium, transmission_delay
from manetsim.routing import (CustomerRequest, DiscoveryLimits,
                              PathQualification, ScoringWeights,
                              discover_paths, mscore, qualify, select_best)
from manetsim.simulation import TOPOLOGY_QUANTUM_S, SimulationRun
from manetsim.social import TS_SCALE_MAX, generate_ts_matrix, path_mean_ts


def stable_rng(*key) -> random.Random:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def pseudo_qualification(path: tuple[int, ...], salt: int,
                         request: CustomerRequest) -> PathQualification:
    """Random but deterministic raw metrics for a path; both the candidate
    pipeline and the brute-force oracle must use this same mapping."""
    rng = stable_rng("qual", salt, path)
    return qualify(
        path=path, iteration=0,
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


def brute_force_best(adj: dict, src: int, dst: int, salt: int,
                     ts_matrix: np.ndarray, weights: ScoringWeights,
                     request: CustomerRequest):
    """Score every simple path via networkx enumeration and return the
    argmax under the same tie-break (fewer hops, then lexicographic)."""
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
        ts = path_mean_ts(path, ts_matrix).mean_ts
        score = mscore(qual, ts, weights)
        key = (-score, len(path) - 1, path)
        if best_key is None or key < best_key:
            best_key = key
            best = path
    return best, set(all_paths)


def pipeline_best(adj: dict, src: int, dst: int, salt: int,
                  ts_matrix: np.ndarray, weights: ScoringWeights,
                  request: CustomerRequest):
    limits = DiscoveryLimits(ttl=len(adj), max_paths=10**6)
    paths = discover_paths(adj, src, dst, limits)
    candidates = [(pseudo_qualification(p, salt, request),
                   path_mean_ts(p, ts_matrix).mean_ts) for p in paths]
    choice = select_best(candidates, weights)
    return (choice[0].path if choice else None), set(paths)


def run_oracle_trial(seed: int) -> bool:
    """One random graph: discovery completeness plus argmax equality."""
    rng = stable_rng("trial", seed)
    adj, src, dst = random_connected_graph(rng)
    ts = generate_ts_matrix(len(adj), rng.uniform(0.5, 3.5), 1.0, rng)
    weights = ScoringWeights(w_ts=rng.choice([0.0, 0.125, 0.4, 0.8, 1.0]))
    request = CustomerRequest()
    expect, expect_paths = brute_force_best(adj, src, dst, seed, ts, weights,
                                            request)
    got, got_paths = pipeline_best(adj, src, dst, seed, ts, weights, request)
    return expect == got and expect_paths == got_paths


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
    summed from ``scipy.stats.norm.cdf`` (sigma > 0)."""
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
        if packet.klass is PacketClass.BEACON:
            self._deliver_beacon()
            busy = transmission_delay(self.config.radio,
                                      packet.size_bytes, load)
            self.sim.schedule(t + busy, self._tx_done, node)
            return
        hop = packet.hop_index + 1
        if hop >= len(packet.route):
            self._tx_done(node)
            return
        nxt = packet.route[hop]
        link = self.medium.link_state(node, nxt, t)
        outcome = self.medium.transmit(link, packet.size_bytes, load,
                                       self._channel)
        if packet.klass is PacketClass.PROBE:
            self._record_probe_link(packet, link, load, t)
        status, busy, cause = outcome
        if status == "delivered":
            self.sim.schedule(t + busy, self._hop_done, node, nxt, packet)
            return
        self._drop(packet, cause)
        if status == "dropped":
            self._tx_done(node)
        else:  # corrupted: the frame still takes its air time
            self.sim.schedule(t + busy, self._tx_done, node)


def sweep_runs(out_dir: str) -> dict:
    """{(w_ts, mu_ts, density, rep): pooled loss, delay and tie strength}
    of every run in a sweep's manifest, read from the 'all' row of the
    run's result.csv, whose repr-written floats read back exactly."""
    runs = {}
    with open(os.path.join(out_dir, "manifest"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            w, mu, den = row["w_ts"], row["mu_ts"], row["density"]
            path = os.path.join(out_dir, "runs", f"w{w}_mu{mu}_den{den}",
                                f"seed{row['seed']}", "result.csv")
            with open(path, encoding="utf-8") as result:
                all_row = list(csv.DictReader(result))[-1]
            runs[(float(w), float(mu), int(den), int(row["rep"]))] = {
                "loss": float(all_row["loss_fraction"]),
                "delay": float(all_row["mean_delay_s"]),
                "ts": float(all_row["ts_time_mean"])}
    return runs
