"""QoS- and tie-strength-aware source routing: single-path forwarding over
multipath probing.

A source periodically (every adaptive t_routing seconds) discovers the
simple paths to its destination over the instantaneous connectivity graph,
measures each one with a train of probe packets answered by a single probe
reply, filters the paths against the customer's QoS requirements, scores
the rest by blending seven QoS qualifications with the path's geometric-mean
tie strength, and forwards data on the argmax path until the next iteration.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .packets import Packet, PacketClass
from .social import path_mean_ts

if TYPE_CHECKING:
    from .config import RunConfig

QOS_METRIC_COUNT = 7
TS_SCALE = 4.0
RM_SPAN_DB = 20.0  # SNR margin that earns the full radio-margin qualification


@dataclass(frozen=True)
class CustomerRequest:
    """QoS bounds a path must satisfy to carry the flow."""

    bw_min_bps: float = 150_000.0
    loss_max: float = 0.25
    delay_max_s: float = 2.0
    jitter_max_s: float = 1.0

    def __post_init__(self):
        if min(self.bw_min_bps, self.loss_max, self.delay_max_s,
               self.jitter_max_s) <= 0:
            raise ValueError("customer request bounds must be positive")
        if self.loss_max > 1.0:
            raise ValueError("loss_max is a fraction in (0, 1]")


@dataclass(frozen=True)
class DiscoveryLimits:
    ttl: int = 10
    max_paths: int = 10

    def __post_init__(self):
        if self.ttl < 1 or self.max_paths < 1:
            raise ValueError("ttl and max_paths must be at least 1")


@dataclass(frozen=True)
class ScoringWeights:
    """Complementary weights for the QoS block and the tie-strength term."""

    w_ts: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.w_ts <= 1.0:
            raise ValueError(f"w_ts={self.w_ts} outside [0, 1]")

    @property
    def w_qos(self) -> float:
        return 1.0 - self.w_ts


@dataclass(frozen=True)
class PathQualification:
    """Raw per-path measurements and their [0, 1] qualifications (1 = best)."""

    path: tuple[int, ...]
    iteration: int
    bw_bps: float
    loss: float
    delay_s: float
    jitter_s: float
    hops: int
    rm_margin_db: float
    mm_speed_mps: float
    q_bw: float
    q_l: float
    q_d: float
    q_j: float
    q_h: float
    q_rm: float
    q_mm: float

    @property
    def qualifications(self) -> tuple[float, ...]:
        return (self.q_bw, self.q_l, self.q_d, self.q_j, self.q_h,
                self.q_rm, self.q_mm)


def qualify(path: tuple[int, ...], iteration: int, bw_bps: float, loss: float,
            delay_s: float, jitter_s: float, rm_margin_db: float,
            mm_speed_mps: float, request: CustomerRequest,
            max_speed_mps: float) -> PathQualification:
    """Map raw path metrics to bounded monotone qualifications.

    The reference scales are the customer's own bounds, so a path exactly at
    a bound earns qualification zero for delay/jitter and one for bandwidth.
    """
    hops = len(path) - 1
    q_bw = min(1.0, bw_bps / request.bw_min_bps)
    q_l = 1.0 - min(1.0, max(0.0, loss))
    q_d = max(0.0, 1.0 - delay_s / request.delay_max_s)
    q_j = max(0.0, 1.0 - jitter_s / request.jitter_max_s)
    q_h = 1.0 / hops if hops > 0 else 1.0
    q_rm = min(1.0, max(0.0, rm_margin_db / RM_SPAN_DB))
    q_mm = max(0.0, 1.0 - mm_speed_mps / (2.0 * max_speed_mps))
    return PathQualification(
        path=path, iteration=iteration, bw_bps=bw_bps, loss=loss,
        delay_s=delay_s, jitter_s=jitter_s, hops=hops,
        rm_margin_db=rm_margin_db, mm_speed_mps=mm_speed_mps,
        q_bw=q_bw, q_l=q_l, q_d=q_d, q_j=q_j, q_h=q_h, q_rm=q_rm, q_mm=q_mm)


def filter_paths(quals: list[PathQualification],
                 request: CustomerRequest) -> list[PathQualification]:
    """Keep paths meeting all four bounds; equality passes (inclusive)."""
    return [q for q in quals
            if q.bw_bps >= request.bw_min_bps
            and q.loss <= request.loss_max
            and q.delay_s <= request.delay_max_s
            and q.jitter_s <= request.jitter_max_s]


def mscore(qual: PathQualification, mean_ts: float,
           weights: ScoringWeights) -> float:
    """Blend the QoS qualifications with the path tie strength.

    The normalization averages the seven qualifications and rescales the
    0-4 tie strength to [0, 1], which makes w_ts = 0.125 give every
    individual metric (QoS or social) the same effective weight.
    """
    return (weights.w_qos * (sum(qual.qualifications) / QOS_METRIC_COUNT)
            + weights.w_ts * (mean_ts / TS_SCALE))


def select_best(candidates: list[tuple[PathQualification, float]],
                weights: ScoringWeights,
                ) -> tuple[PathQualification, float, float] | None:
    """Argmax of mscore; ties break on fewer hops, then lexicographic path."""
    best = None
    best_key = None
    for qual, mean_ts in candidates:
        score = mscore(qual, mean_ts, weights)
        key = (-score, qual.hops, qual.path)
        if best_key is None or key < best_key:
            best_key = key
            best = (qual, mean_ts, score)
    return best


def update_nstate(quals: list[PathQualification]) -> float:
    """Network state: the per-metric means across the available paths,
    averaged over the seven QoS metrics with equal weights."""
    if not quals:
        raise ValueError("nstate needs at least one qualified path")
    nstate = 0.0
    for m in range(QOS_METRIC_COUNT):
        mean_m = sum(q.qualifications[m] for q in quals) / len(quals)
        nstate += (1.0 / QOS_METRIC_COUNT) * mean_m
    return nstate


def update_t_routing(nstate: float, alpha: float = 10.0,
                     beta: float = 3.0) -> float:
    """Monitoring period from network state: good network, longer period."""
    if not 0.0 <= nstate <= 1.0:
        raise ValueError(f"nstate={nstate} outside [0, 1]")
    return alpha * nstate + beta


def bfs_distance(adj: dict[int, list[int]], target: int) -> dict[int, int]:
    """Hop count to ``target`` from every node that can reach it."""
    dist = {target: 0}
    frontier = deque([target])
    while frontier:
        node = frontier.popleft()
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


def discover_paths(adj: dict[int, list[int]], src: int, dst: int,
                   limits: DiscoveryLimits) -> list[tuple[int, ...]]:
    """Enumerate simple src-dst paths over the connectivity snapshot.

    Returns at most max_paths paths ordered by hop count then lexicographic
    node sequence, exactly the order a full enumeration sorted that way
    would produce.  A reverse BFS distance map prunes branches that cannot
    reach the destination within the remaining hop budget.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    if src not in adj or dst not in adj:
        return []
    dist = bfs_distance(adj, dst)
    if src not in dist or dist[src] > limits.ttl:
        return []
    found: list[tuple[int, ...]] = []
    path = [src]
    on_path = {src}

    def extend(node: int, remaining: int) -> None:
        if len(found) >= limits.max_paths:
            return
        for nbr in adj[node]:
            if len(found) >= limits.max_paths:
                return
            if nbr == dst:
                if remaining == 1:
                    found.append(tuple(path) + (dst,))
                continue
            if nbr in on_path:
                continue
            d = dist.get(nbr)
            if d is None or d > remaining - 1:
                continue
            path.append(nbr)
            on_path.add(nbr)
            extend(nbr, remaining - 1)
            path.pop()
            on_path.remove(nbr)

    for length in range(dist[src], limits.ttl + 1):
        if len(found) >= limits.max_paths:
            break
        extend(src, length)
    return found[:limits.max_paths]


@dataclass
class MonitoringIteration:
    """Everything one discovery/probe/selection cycle produced."""

    index: int
    started_at: float
    discovered: list[tuple[int, ...]]
    qualifications: dict[tuple[int, ...], PathQualification] = field(
        default_factory=dict)
    mean_ts: dict[tuple[int, ...], float] = field(default_factory=dict)
    survivors: list[tuple[int, ...]] = field(default_factory=list)
    selected: tuple[int, ...] | None = None
    selected_score: float | None = None
    selected_mean_ts: float | None = None
    nstate: float = 0.0
    t_routing: float = 0.0


class SourceProtocol:
    """Per-flow protocol driver: monitoring cycle and path selection.

    The driver owns both endpoints' protocol state for its flow (the
    simulation is single-threaded, so the destination-side probe collector
    lives here too).  Its settings are read from the run's ``config``.
    Interaction with the network goes through two injected callables:
    ``send`` inserts a packet at its first route node, and ``now`` reads
    the virtual clock.
    """

    def __init__(self, flow_id: int, src: int, dst: int, config: RunConfig,
                 ts_matrix, connectivity, send, now, schedule):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.config = config
        self.weights = ScoringWeights(config.w_ts)
        self.ts_matrix = ts_matrix
        self._connectivity = connectivity  # (t) -> adjacency dict
        self._send = send
        self._now = now
        self._schedule = schedule
        self.iterations: list[MonitoringIteration] = []
        self.active_route: tuple[int, ...] | None = None
        self.nstate = 0.0  # pessimistic start: fastest refresh until measured
        self._bootstrap = True
        self._decided_through = -1
        # destination-side collectors: (iteration, path) -> raw samples
        self._collectors: dict[tuple[int, tuple[int, ...]], dict] = {}
        # source-side probe replies: iteration -> {path: payload}
        self._replies: dict[int, dict[tuple[int, ...], dict]] = {}
        # tie-strength exposure accounting (decision intervals only)
        self._ts_weight = 0.0
        self._ts_time = 0.0
        self._last_decision_at: float | None = None
        self._last_decision_ts: float | None = None

    # -- monitoring cycle ---------------------------------------------------

    def start_iteration(self) -> MonitoringIteration:
        t = self._now()
        index = len(self.iterations)
        adj = self._connectivity(t)
        paths = discover_paths(adj, self.src, self.dst, self.config.limits)
        iteration = MonitoringIteration(index=index, started_at=t,
                                        discovered=paths)
        self.iterations.append(iteration)
        if self._bootstrap and paths:
            # data may flow on the shortest discovered path until the first
            # decision completes
            self.active_route = paths[0]
            self._bootstrap = False
        window_end = t + self.config.probe_window_s
        for k, path in enumerate(paths):
            for j in range(self.config.pm_train):
                # trains interleave round-robin across paths so one signaling
                # queue never swallows a whole burst
                send_at = t + (j * len(paths) + k) * self.config.pm_spacing_s
                packet = Packet(
                    klass=PacketClass.PROBE, size_bytes=self.config.pm_bytes,
                    src=self.src, dst=self.dst, route=path,
                    created_at=send_at, flow_id=self.flow_id, seq=j,
                    payload={
                        "iteration": index, "path": path,
                        "train": self.config.pm_train,
                        "window_end": window_end,
                        "min_margin_db": math.inf,
                        "min_rate_bps": math.inf,
                        "rel_speed_sum": 0.0, "rel_speed_links": 0,
                    })
                self._schedule(send_at, self._send, packet)
        self._schedule(t + self.config.decision_delay_s, self._decide,
                       iteration)
        return iteration

    def on_probe_at_destination(self, packet: Packet) -> None:
        info = packet.payload
        if info["iteration"] <= self._decided_through:
            return  # a reply now would reach the source after the decision
        key = (info["iteration"], info["path"])
        now = self._now()
        collector = self._collectors.get(key)
        if collector is None:
            collector = {"delays": [], "margins": [], "rates": [],
                         "speeds": [], "emitted": False}
            self._collectors[key] = collector
            if now < info["window_end"]:
                self._schedule(info["window_end"], self._emit_reply, key)
        if collector["emitted"]:
            return
        collector["delays"].append(now - packet.created_at)
        collector["margins"].append(info["min_margin_db"])
        collector["rates"].append(info["min_rate_bps"])
        if info["rel_speed_links"]:
            collector["speeds"].append(
                info["rel_speed_sum"] / info["rel_speed_links"])
        if len(collector["delays"]) >= info["train"] or now >= info["window_end"]:
            self._emit_reply(key)

    def _emit_reply(self, key: tuple[int, tuple[int, ...]]) -> None:
        iteration, path = key
        collector = self._collectors.get(key)
        if collector is None or collector["emitted"] or not collector["delays"]:
            return
        collector["emitted"] = True
        delays = collector["delays"]
        jitter = 0.0
        if len(delays) > 1:
            jitter = (sum(abs(b - a) for a, b in zip(delays, delays[1:]))
                      / (len(delays) - 1))
        train = self.config.pm_train
        payload = {
            "iteration": iteration, "path": path,
            "received": len(delays), "train": train,
            "loss": 1.0 - len(delays) / train,
            "mean_delay_s": sum(delays) / len(delays),
            "jitter_s": jitter,
            "rm_margin_db": sum(collector["margins"]) / len(delays),
            "bottleneck_bps": sum(collector["rates"]) / len(delays),
            "rel_speed_mps": (sum(collector["speeds"])
                              / len(collector["speeds"])
                              if collector["speeds"] else 0.0),
        }
        reply = Packet(
            klass=PacketClass.PROBE_REPLY, size_bytes=self.config.pmr_bytes,
            src=self.dst, dst=self.src, route=tuple(reversed(path)),
            created_at=self._now(), flow_id=self.flow_id, payload=payload)
        self._send(reply)

    def on_probe_reply_at_source(self, packet: Packet) -> None:
        info = packet.payload
        if info["iteration"] <= self._decided_through:
            return  # reply outlived its iteration's decision
        self._replies.setdefault(info["iteration"], {})[info["path"]] = info

    def _decide(self, iteration: MonitoringIteration) -> None:
        self._decided_through = iteration.index
        for path in iteration.discovered:
            self._collectors.pop((iteration.index, path), None)
        replies = self._replies.pop(iteration.index, {})
        candidates: list[tuple[PathQualification, float]] = []
        for path in iteration.discovered:
            info = replies.get(path)
            if info is None:
                continue  # path dead this iteration (probes or reply lost)
            qual = qualify(
                path=path, iteration=iteration.index,
                bw_bps=info["bottleneck_bps"], loss=info["loss"],
                delay_s=info["mean_delay_s"], jitter_s=info["jitter_s"],
                rm_margin_db=info["rm_margin_db"],
                mm_speed_mps=info["rel_speed_mps"],
                request=self.config.request,
                max_speed_mps=self.config.mobility.max_speed_mps)
            ts = path_mean_ts(path, self.ts_matrix).mean_ts
            iteration.qualifications[path] = qual
            iteration.mean_ts[path] = ts
            candidates.append((qual, ts))
        survivors = filter_paths([q for q, _ in candidates],
                                 self.config.request)
        iteration.survivors = [q.path for q in survivors]
        if survivors:
            pool = [(q, iteration.mean_ts[q.path]) for q in survivors]
        else:
            # no path met the request: keep streaming on the best-scored
            # usable path rather than stalling
            pool = candidates
        choice = select_best(pool, self.weights)
        if choice is not None:
            qual, ts, score = choice
            iteration.selected = qual.path
            iteration.selected_score = score
            iteration.selected_mean_ts = ts
        if candidates:
            self.nstate = update_nstate([q for q, _ in candidates])
        iteration.nstate = self.nstate
        iteration.t_routing = update_t_routing(
            self.nstate, self.config.alpha_tune, self.config.beta_tune)
        self._account_ts_interval(iteration.started_at
                                  + self.config.decision_delay_s)
        self._last_decision_at = (iteration.started_at
                                  + self.config.decision_delay_s)
        self._last_decision_ts = iteration.selected_mean_ts
        self.active_route = iteration.selected
        self._schedule(iteration.started_at + iteration.t_routing,
                       self.start_iteration)

    # -- reporting ----------------------------------------------------------

    def _account_ts_interval(self, until: float) -> None:
        if (self._last_decision_at is not None
                and self._last_decision_ts is not None
                and until > self._last_decision_at):
            span = until - self._last_decision_at
            self._ts_weight += span * self._last_decision_ts
            self._ts_time += span

    def finalize(self, end: float) -> None:
        self._account_ts_interval(end)
        self._last_decision_at = None

    @property
    def ts_time_mean(self) -> float:
        """Time-weighted mean tie strength of the selected paths."""
        return self._ts_weight / self._ts_time if self._ts_time > 0 else 0.0

    @property
    def mean_t_routing(self) -> float:
        periods = [it.t_routing for it in self.iterations if it.t_routing > 0]
        return sum(periods) / len(periods) if periods else 0.0
