"""QoS- and tie-strength-aware source routing: single-path forwarding over
multipath probing.

A source periodically (every adaptive t_routing seconds) discovers the
simple paths to its destination over the instantaneous connectivity graph,
measures each one with a train of probe packets answered by a single probe
reply, ranks the answered paths by one key and forwards data on the first
until the next iteration: paths that meet the customer's QoS request first,
then descending score (seven QoS qualifications blended with the path's
geometric-mean tie strength), fewer hops and lexicographic path.  So when
no path meets the request, data takes the best-scored usable path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .engine import add_up
from .packets import Packet, PacketClass
from .social import TS_SCALE_MAX, path_mean_ts

if TYPE_CHECKING:
    from .config import RunConfig

QOS_METRIC_COUNT = 7
RM_SPAN_DB = 20.0  # SNR margin that earns the full radio-margin qualification


@dataclass(frozen=True)
class CustomerRequest:
    """QoS bounds a path must satisfy to carry the flow."""

    bw_min_bps: float = 150_000.0
    loss_max: float = 0.25
    delay_max_s: float = 2.0
    jitter_max_s: float = 1.0


@dataclass(frozen=True)
class PathQualification:
    """Raw per-path measurements and their [0, 1] qualifications (1 = best)."""

    path: tuple[int, ...]
    bw_bps: float
    loss: float
    delay_s: float
    jitter_s: float
    hops: int
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


def qualify(path: tuple[int, ...], bw_bps: float, loss: float,
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
        path=path, bw_bps=bw_bps, loss=loss,
        delay_s=delay_s, jitter_s=jitter_s, hops=hops,
        q_bw=q_bw, q_l=q_l, q_d=q_d, q_j=q_j, q_h=q_h, q_rm=q_rm, q_mm=q_mm)


def meets(qual: PathQualification, request: CustomerRequest) -> bool:
    """Whether a path meets all four bounds; equality passes (inclusive)."""
    return (qual.bw_bps >= request.bw_min_bps
            and qual.loss <= request.loss_max
            and qual.delay_s <= request.delay_max_s
            and qual.jitter_s <= request.jitter_max_s)


def mscore(qual: PathQualification, mean_ts: float, w_ts: float) -> float:
    """Blend the QoS qualifications with the path tie strength, weighted
    1 - w_ts and w_ts.

    The normalization averages the seven qualifications and rescales the
    0-4 tie strength to [0, 1], so w_ts = 0.125 gives every individual
    metric (QoS or social) the same weight by nominal range only: within a
    decision (master seed 1, density 200) the QoS half spans a median 0.054
    and ts / 4 spans 0.344, as tools/decision_scales.txt reports.
    """
    return ((1.0 - w_ts) * (add_up(qual.qualifications) / QOS_METRIC_COUNT)
            + w_ts * (mean_ts / TS_SCALE_MAX))


class Ranked(NamedTuple):
    """One usable path's place in a decision."""

    qual: PathQualification
    mean_ts: float
    score: float
    meets: bool


def rank(candidates: list[tuple[PathQualification, float]],
         request: CustomerRequest, w_ts: float) -> list[Ranked]:
    """The (qualification, mean tie strength) candidates in forwarding
    order: those that meet the request first, each part by descending
    mscore, ties broken on fewer hops, then lexicographic path.  The head
    is the choice: the best path that meets the request, or the best
    usable path when none does."""
    ranked = [Ranked(qual, mean_ts, mscore(qual, mean_ts, w_ts),
                     meets(qual, request)) for qual, mean_ts in candidates]
    ranked.sort(key=lambda r: (not r.meets, -r.score, r.qual.hops,
                               r.qual.path))
    return ranked


def update_nstate(quals: list[PathQualification]) -> float:
    """Network state: the per-metric means across the available paths,
    averaged over the seven QoS metrics with equal weights."""
    if not quals:
        raise ValueError("nstate needs at least one qualified path")
    nstate = 0.0
    for m in range(QOS_METRIC_COUNT):
        mean_m = add_up(q.qualifications[m] for q in quals) / len(quals)
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


def discover_paths(adj: dict[int, list[int]], src: int, dst: int, ttl: int,
                   max_paths: int) -> list[tuple[int, ...]]:
    """Enumerate simple src-dst paths of at most ``ttl`` hops over the
    connectivity snapshot.

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
    if src not in dist or dist[src] > ttl:
        return []
    found: list[tuple[int, ...]] = []
    path = [src]
    on_path = {src}

    def extend(node: int, remaining: int) -> None:
        for nbr in adj[node]:
            if len(found) >= max_paths:
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

    for length in range(dist[src], ttl + 1):
        if len(found) >= max_paths:
            break
        extend(src, length)
    return found


@dataclass
class MonitoringIteration:
    """Everything one discovery/probe/selection cycle produced."""

    index: int
    started_at: float
    discovered: list[tuple[int, ...]]
    ranked: list[Ranked] = field(default_factory=list)  # set at decision
    nstate: float = 0.0
    t_routing: float = 0.0

    @property
    def selected(self) -> tuple[int, ...] | None:
        return self.ranked[0].qual.path if self.ranked else None


class SourceProtocol:
    """Per-flow protocol driver: monitoring cycle and path selection.

    The driver owns what its flow's probes measure and both endpoints'
    protocol state for the one iteration awaiting its decision (the
    simulation is single-threaded, so the destination side lives here
    too).  Its settings are read from the run's ``config``.
    It reads the adjacency at t from ``connectivity(t)``, inserts a packet
    at its first route node with ``send``, and reads the virtual clock and
    sets its timers on ``sim`` (``sim.clock``, ``sim.schedule``).
    """

    def __init__(self, flow_id: int, src: int, dst: int, config: RunConfig,
                 ts_matrix, connectivity, send, sim):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.config = config
        self.ts_matrix = ts_matrix
        self._connectivity = connectivity  # (t) -> adjacency dict
        self._send = send
        self._sim = sim
        self.iterations: list[MonitoringIteration] = []
        self.active_route: tuple[int, ...] | None = None
        self.nstate = 0.0  # pessimistic start: fastest refresh until measured
        self._bootstrap = True
        self._decided_through = -1
        # the open iteration's destination side: path -> one (delay, margin,
        # rate, speed) sample per counted probe, None once its reply left
        self._collectors: dict[tuple[int, ...],
                               list[tuple[float, ...]] | None] = {}
        # the open iteration's source side: path -> qualify's arguments
        self._replies: dict[tuple[int, ...], dict] = {}
        self.ts_time_mean = 0.0  # set by finalize

    # -- monitoring cycle ---------------------------------------------------

    def start_iteration(self) -> MonitoringIteration:
        t = self._sim.clock
        index = len(self.iterations)
        if self._decided_through != index - 1:
            raise RuntimeError(f"iteration {index - 1} is still undecided")
        adj = self._connectivity(t)
        paths = discover_paths(adj, self.src, self.dst, self.config.ttl,
                               self.config.max_paths)
        iteration = MonitoringIteration(index=index, started_at=t,
                                        discovered=paths)
        self.iterations.append(iteration)
        if self._bootstrap and paths:
            # data may flow on the shortest discovered path until the first
            # decision completes
            self.active_route = paths[0]
            self._bootstrap = False
        for k, path in enumerate(paths):
            for j in range(self.config.pm_train):
                # trains interleave round-robin across paths so one signaling
                # queue never swallows a whole burst
                send_at = t + (j * len(paths) + k) * self.config.pm_spacing_s
                packet = Packet(
                    klass=PacketClass.PROBE, size_bytes=self.config.pm_bytes,
                    route=path, created_at=send_at, flow_id=self.flow_id,
                    payload={
                        "iteration": index, "min_margin_db": math.inf,
                        "min_rate_bps": math.inf, "rel_speed_sum": 0.0,
                    })
                self._sim.schedule(send_at, self._send, packet)
        self._sim.schedule(t + self.config.decision_delay_s, self._decide,
                           iteration)
        return iteration

    @staticmethod
    def on_probe_hop(packet: Packet, margin_db: float, rate_bps: float,
                     speed_mps: float) -> None:
        """A probe crosses one link: keep the path's weakest SNR margin and
        rate, and add the link's relative speed."""
        info = packet.payload
        info["min_margin_db"] = min(info["min_margin_db"], margin_db)
        info["min_rate_bps"] = min(info["min_rate_bps"], rate_bps)
        info["rel_speed_sum"] += speed_mps

    def on_probe_at_destination(self, packet: Packet) -> None:
        info = packet.payload
        index = info["iteration"]
        if index <= self._decided_through:
            return  # a reply now would reach the source after the decision
        path = packet.route
        now = self._sim.clock
        window_end = (self.iterations[index].started_at
                      + self.config.probe_window_s)
        if path not in self._collectors:
            self._collectors[path] = []
            if now < window_end:
                self._sim.schedule(window_end, self._emit_reply, index, path)
        samples = self._collectors[path]
        if samples is None:
            return  # the path's reply has left
        # one link recorded per hop of a delivered probe
        samples.append((now - packet.created_at, info["min_margin_db"],
                        info["min_rate_bps"],
                        info["rel_speed_sum"] / (len(path) - 1)))
        if len(samples) >= self.config.pm_train or now >= window_end:
            self._emit_reply(index, path)

    def _emit_reply(self, index: int, path: tuple[int, ...]) -> None:
        samples = self._collectors.get(path)
        if index <= self._decided_through or samples is None:
            return  # decided, or the reply has left
        self._collectors[path] = None
        delays, margins, rates, speeds = zip(*samples)
        gaps = [abs(b - a) for a, b in zip(delays, delays[1:])]
        jitter = add_up(gaps) / len(gaps) if gaps else 0.0
        payload = {
            "iteration": index, "path": path,
            "bw_bps": add_up(rates) / len(delays),
            "loss": 1.0 - len(delays) / self.config.pm_train,
            "delay_s": add_up(delays) / len(delays),
            "jitter_s": jitter,
            "rm_margin_db": add_up(margins) / len(delays),
            "mm_speed_mps": add_up(speeds) / len(delays),
        }
        reply = Packet(
            klass=PacketClass.PROBE_REPLY, size_bytes=self.config.pmr_bytes,
            route=tuple(reversed(path)), created_at=self._sim.clock,
            flow_id=self.flow_id, payload=payload)
        self._send(reply)

    def on_probe_reply_at_source(self, packet: Packet) -> None:
        measured = dict(packet.payload)
        if measured.pop("iteration") <= self._decided_through:
            return  # reply outlived its iteration's decision
        self._replies[measured["path"]] = measured

    def _decide(self, iteration: MonitoringIteration) -> None:
        self._decided_through = iteration.index
        self._collectors.clear()
        replies, self._replies = self._replies, {}
        # a path without a reply is dead this iteration (probes or reply lost)
        quals = [qualify(**replies[path], request=self.config.customer_request,
                         max_speed_mps=self.config.mobility.max_speed_mps)
                 for path in iteration.discovered if path in replies]
        iteration.ranked = rank(
            [(q, path_mean_ts(q.path, self.ts_matrix)) for q in quals],
            self.config.customer_request, self.config.w_ts)
        if quals:
            self.nstate = update_nstate(quals)  # in discovery order
        iteration.nstate = self.nstate
        iteration.t_routing = update_t_routing(
            self.nstate, self.config.alpha_tune, self.config.beta_tune)
        self.active_route = iteration.selected
        next_at = iteration.started_at + iteration.t_routing
        if next_at < self.config.duration_s:  # nothing starts at the end
            self._sim.schedule(next_at, self.start_iteration)

    # -- reporting ----------------------------------------------------------

    def finalize(self, end: float) -> None:
        """Set ``ts_time_mean``, the time-weighted mean tie strength of the
        selected paths: each decided iteration's selection holds from its
        decision to the next decision, or to ``end``."""
        delay = self.config.decision_delay_s
        decided = self.iterations[:self._decided_through + 1]
        untils = [it.started_at + delay for it in decided[1:]] + [end]
        weight = time = 0.0
        for it, until in zip(decided, untils):
            at = it.started_at + delay
            if it.ranked and until > at:
                weight += (until - at) * it.ranked[0].mean_ts
                time += until - at
        self.ts_time_mean = weight / time if time > 0 else 0.0

    @property
    def mean_t_routing(self) -> float:
        periods = [it.t_routing for it in self.iterations if it.t_routing > 0]
        return add_up(periods) / len(periods) if periods else 0.0
