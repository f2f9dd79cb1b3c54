"""One complete simulation run: wiring of engine, mobility, radio, MAC,
social matrix, routing protocol and traffic sources, plus result accounting.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path

from . import mobility as mob
from .config import ConfigError, RunConfig
from .engine import Simulator, add_up
from .mac import MacLayer, frame_service
from .packets import DROP_CAUSES, Packet, PacketClass
from .radio import Medium
from .routing import SourceProtocol, bfs_distance, discover_paths
from .social import generate_ts_matrix, load_ts_matrix
from .video import VideoFrame, VideoSource, load_frame_trace, packetize

VIDEO_CLASSES = (PacketClass.VIDEO_I, PacketClass.VIDEO_P, PacketClass.VIDEO_B)

# The MAC load factor takes positions at the start of the 0.1 s bucket that
# holds the query time; at 2 m/s nodes move 0.2 m per quantum, far below the
# 120 m range.  Exact times are still used for per-hop link margins and the
# connectivity snapshots of route discovery.
TOPOLOGY_QUANTUM_S = 0.1


# the columns of result.csv, in order: one row per video flow, then 'all'
DROP_FIELDS = tuple("drops_" + cause.replace("-", "_")
                    for cause in DROP_CAUSES)
RESULT_FIELDS = ("flow_id", "src", "dst", "generated", "delivered",
                 "loss_fraction", "mean_delay_s", "mean_jitter_s",
                 "decodable_gop_fraction", "ts_time_mean", "iterations",
                 "mean_t_routing", *DROP_FIELDS)


@dataclass(kw_only=True)
class Counters:
    """The packets of one class or one video flow, by outcome."""
    generated: int = 0
    delivered: int = 0
    drops: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in DROP_CAUSES})

    def book_end_of_run(self) -> None:
        """Packets still queued or mid-hop when the clock stops never
        arrived: count them as end-of-run drops."""
        residual = self.generated - self.delivered - sum(self.drops.values())
        assert residual >= 0, "accounting bug: more outcomes than packets"
        self.drops["end-of-run"] += residual


@dataclass
class FlowStats(Counters):
    flow_id: int
    src: int
    dst: int
    delay_sum: float = 0.0
    jitter_sum: float = 0.0
    jitter_n: int = 0
    last_delay: float | None = None
    # per GoP: its I-frame packets generated and not yet delivered
    gop_i_pending: list[int] = field(default_factory=list)

    @property
    def loss_fraction(self) -> float:
        if self.generated == 0:
            return 0.0
        return 1.0 - self.delivered / self.generated

    @property
    def mean_delay_s(self) -> float:
        return self.delay_sum / self.delivered if self.delivered else 0.0

    @property
    def mean_jitter_s(self) -> float:
        return self.jitter_sum / self.jitter_n if self.jitter_n else 0.0

    @property
    def decodable_gop_fraction(self) -> float:
        """Fraction of GoPs whose I packets all arrived, one dropped or in
        flight at the end counting as lost."""
        if not self.gop_i_pending:
            return 1.0
        return self.gop_i_pending.count(0) / len(self.gop_i_pending)

    def count_generated(self, frame: VideoFrame,
                        packets: list[Packet]) -> None:
        """Count a new frame's packets and tag each I packet with its GoP:
        an I frame opens one, of either source, and the frames after it
        belong to it until the next."""
        if frame.frame_type == "I":
            self.gop_i_pending.append(0)
        gop = len(self.gop_i_pending) - 1
        for packet in packets:
            self.generated += 1
            if packet.klass is PacketClass.VIDEO_I:
                self.gop_i_pending[gop] += 1
                packet.payload = {"gop": gop}

    def count_delivered(self, packet: Packet, delay: float) -> None:
        self.delivered += 1
        self.delay_sum += delay
        if self.last_delay is not None:
            self.jitter_sum += abs(delay - self.last_delay)
            self.jitter_n += 1
        self.last_delay = delay
        if packet.klass is PacketClass.VIDEO_I:
            self.gop_i_pending[packet.payload["gop"]] -= 1

    def row(self, **cells) -> dict:
        """The result.csv row of these packets, keyed by RESULT_FIELDS in
        order: the counts and their statistics, then ``cells``, which add
        the routing columns and may replace any other."""
        row = {"flow_id": self.flow_id, "src": self.src, "dst": self.dst,
               "generated": self.generated, "delivered": self.delivered,
               "loss_fraction": self.loss_fraction,
               "mean_delay_s": self.mean_delay_s,
               "mean_jitter_s": self.mean_jitter_s,
               "decodable_gop_fraction": self.decodable_gop_fraction,
               **{name: self.drops[cause]
                  for cause, name in zip(DROP_CAUSES, DROP_FIELDS)},
               **cells}
        assert row.keys() == set(RESULT_FIELDS), sorted(row)
        return {name: row[name] for name in RESULT_FIELDS}


def _cell(name: str):
    """A RunResult attribute that reads one cell of the 'all' row."""
    return property(lambda self: self.total[name])


@dataclass
class RunResult:
    """A run's result.csv rows, each keyed by RESULT_FIELDS in order: one
    per video flow, and ``total``, the 'all' row, which pools the flows'
    packets and counts the drops of every packet class."""
    flows: list[dict]
    total: dict
    class_counters: dict[str, dict]

    total_generated = _cell("generated")
    total_delivered = _cell("delivered")
    pooled_loss = _cell("loss_fraction")
    pooled_delay = _cell("mean_delay_s")
    ts_time_mean = _cell("ts_time_mean")
    iterations = _cell("iterations")

    @property
    def drops_by_cause(self) -> dict[str, int]:
        return {cause: self.total[name]
                for cause, name in zip(DROP_CAUSES, DROP_FIELDS)}


def run_inputs(config: RunConfig):
    """The mobility trace, tie-strength matrix and frame trace of a run:
    each the file its config key names, read and checked, or else None, and
    the run draws its own.  The trace and matrix must hold
    ``config.nodes`` nodes, and the frame trace's frames pass
    ``RunConfig.check_video_frames``.  A file that cannot be read or loaded
    is a ConfigError that names its key and path: ``<key> <path>: <why>``."""
    def read(key: str, load):
        path = attrgetter(key)(config)
        if not path:
            return None
        try:
            return load(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            why = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"{key} {path}: {why}") from None

    nodes = config.nodes
    trace = read("mobility.trace", lambda text: mob.import_trace(
        text, config.area_width_m, config.area_height_m,
        duration=config.duration_s))
    if trace is not None and len(trace.node_ids) != nodes:
        raise ConfigError(f"mobility.trace {config.mobility.trace} has "
                          f"{len(trace.node_ids)} nodes, but the run has "
                          f"{nodes}")
    matrix = read("social.matrix", load_ts_matrix)
    if matrix is not None and len(matrix) != nodes:
        n = len(matrix)
        raise ConfigError(f"social.matrix {config.social.matrix} is {n} x "
                          f"{n}, but the run has {nodes}")

    def load_frames(text: str) -> list[tuple[str, int]]:
        frames = load_frame_trace(text)
        if config.video.flows:
            i_sizes = [size for ftype, size in frames if ftype == "I"]
            config.check_video_frames(
                sum(size for _, size in frames) / len(frames),
                sum(i_sizes) / len(i_sizes))
        return frames
    return trace, matrix, read("video.trace", load_frames)


class SimulationRun:
    """Builds the model from a RunConfig and executes it to completion."""

    def __init__(self, config: RunConfig):
        mobility_trace, ts_matrix, frame_trace = run_inputs(config)
        self.config = config
        self.sim = Simulator(config.master_seed)
        if mobility_trace is None:
            mobility_trace = mob.generate_waypoint_trace(
                config.area_width_m, config.area_height_m, config.nodes,
                config.mobility.max_speed_mps, config.duration_s,
                self.sim.rng["mobility"],
                pause_s=config.mobility.pause_s,
                min_speed_fraction=config.mobility.min_speed_fraction,
                warmup_s=config.mobility.warmup_s)
        self.trace = mobility_trace
        self._trace_end = mobility_trace.duration
        self.node_ids = self.trace.node_ids
        # no segment holds any time until the first lookup
        self._segments = {node: (math.inf, -math.inf, 0.0, 0.0, None, None)
                          for node in self.node_ids}
        self._load_bucket: float | None = None
        self._load_positions: dict[int, tuple[float, float]] = {}
        self.medium = Medium(config.radio, self._position_of, self.node_ids)
        self.mac = MacLayer(self.node_ids, capacity=config.mac.queue_capacity,
                            neighbor_provider=self._neighbors_of)
        if ts_matrix is None:
            ts_matrix = generate_ts_matrix(
                len(self.node_ids), config.social.mu_ts, config.social.sigma_ts,
                self.sim.rng["social"])
        self.ts_matrix = ts_matrix
        self.classes = {klass: Counters() for klass in PacketClass}
        self.flow_stats: dict[int, FlowStats] = {}
        self.protocols: dict[int, SourceProtocol] = {}
        self.cbr_state: dict[int, dict] = {}
        self._frame_trace = frame_trace
        self._channel = self.sim.rng["channel"]
        # what every hop reads, looked up once
        self._access_delay = config.mac.access_delay_s
        self._duration = config.duration_s
        self._bitrate = config.radio.nominal_bitrate_bps
        self._on_hop_done = self._hop_done
        self._on_tx_done = self._tx_done
        self._setup_sources()

    # -- topology helpers ----------------------------------------------------

    def _position_of(self, node: int, t: float):
        """``mob.position_at`` at min(t, duration), from the node's current
        waypoint segment; a bisect only when t leaves that segment."""
        if t > self._trace_end:
            t = self._trace_end
        start, end, x, y, dx, dy = segment = self._segments[node]
        if not start <= t < end:
            start, end, x, y, dx, dy = segment = mob.segment_at(
                self.trace, node, t)
            self._segments[node] = segment
        if dx is None or t == start:
            return x, y
        frac = (t - start) / (end - start)
        return x + frac * dx, y + frac * dy

    def _neighbors_of(self, node: int, t: float) -> list[int]:
        """The backlogged nodes linked to ``node`` in the unit-disk graph at
        the start of t's bucket, which are all the MAC load counts.

        Only those pairs are tested, by the medium's rule
        ``dx * dx + dy * dy <= range_sq``; the positions of the nodes
        touched are kept for the bucket.
        """
        backlogged = self.mac.backlogged
        if len(backlogged) == (node in backlogged):  # no other node
            return []
        bucket = math.floor(t / TOPOLOGY_QUANTUM_S) * TOPOLOGY_QUANTUM_S
        if bucket != self._load_bucket:
            self._load_bucket = bucket
            self._load_positions = {}
        positions = self._load_positions
        here = positions.get(node)
        if here is None:
            here = positions[node] = self._position_of(node, bucket)
        x, y = here
        r2 = self.medium.range_sq
        nbrs = []
        for other in backlogged:
            if other == node:
                continue
            there = positions.get(other)
            if there is None:
                there = positions[other] = self._position_of(other, bucket)
            dx = there[0] - x
            dy = there[1] - y
            if dx * dx + dy * dy <= r2:
                nbrs.append(other)
        return nbrs

    def _velocity_of(self, node: int, t: float):
        """The node's velocity at min(t, duration): that of its current
        waypoint segment, which ``_position_of`` enters, and zero outside
        segments."""
        self._position_of(node, t)
        start, end, _x, _y, dx, dy = self._segments[node]
        if dx is None:
            return 0.0, 0.0
        return dx / (end - start), dy / (end - start)

    # -- model assembly ------------------------------------------------------

    def _pick_endpoints(self, count: int) -> list[int]:
        """Distinct endpoints, resampled until every pair spans the network.

        Flows should cross several hops (min_hops) and start connected; a
        pair that begins partitioned would measure the scenario topology,
        not the protocol.  The bound relaxes stepwise when the topology
        cannot honor it, so small test networks still get endpoints.
        Mid-run partitions still happen and still count.
        """
        rng = self.sim.rng["traffic"]
        adj = self.medium.connectivity(0.0)
        ttl = self.config.ttl
        choice = rng.sample(self.node_ids, count)
        for min_hops in range(min(self.config.flow_min_hops, ttl), 0, -1):
            for _ in range(100):
                # the graph is undirected: hops from dst equal hops to it
                if all(min_hops
                       <= bfs_distance(adj, choice[i + 1]).get(choice[i],
                                                               math.inf)
                       <= ttl for i in range(0, count, 2)):
                    return choice
                choice = rng.sample(self.node_ids, count)
        return choice  # nothing connected after many tries: run as drawn

    def _setup_sources(self) -> None:
        config = self.config
        endpoints = self._pick_endpoints(
            2 * config.video.flows + 2 * config.cbr.flows)
        for f in range(config.video.flows):
            src, dst = endpoints[2 * f], endpoints[2 * f + 1]
            flow_id = f
            self.flow_stats[flow_id] = FlowStats(flow_id, src, dst)
            protocol = SourceProtocol(
                flow_id=flow_id, src=src, dst=dst, config=config,
                ts_matrix=self.ts_matrix,
                connectivity=self.medium.connectivity,
                send=self._inject, sim=self.sim)
            self.protocols[flow_id] = protocol
            self.sim.schedule(0.0, protocol.start_iteration)
            source = VideoSource(config.video, trace=self._frame_trace)
            self._every(config.video.start_s, config.video.frame_interval,
                        self._send_frame, (flow_id, source))
        base = 2 * config.video.flows
        for c in range(config.cbr.flows):
            src, dst = endpoints[base + 2 * c], endpoints[base + 2 * c + 1]
            state = self.cbr_state[c] = {"src": src, "dst": dst, "route": None}
            self._every(0.0, config.cbr.refresh_s, self._find_cbr_route,
                        (state,))
            self._every(0.0, config.cbr.interval, self._send_cbr, (state,))
        # deterministic stagger spreads beacon transmissions inside a period
        period = config.beacon_period_s
        for i, node in enumerate(self.node_ids):
            self._every(period * i / len(self.node_ids), period,
                        self._send_beacon, (node,))

    # -- traffic sources --------------------------------------------------------

    def _every(self, start: float, period: float, action, args: tuple) -> None:
        """The one rule of every traffic source: ``action(t, *args)`` fires
        at ``start`` and every ``period`` after, each time by adding
        ``period`` to the last, and a firing is scheduled only if it comes
        before ``duration_s``, as the monitoring cycle's iterations are."""
        if start < self._duration:
            self.sim.schedule(start, self._fire, start, period, action, args)

    def _fire(self, t: float, period: float, action, args: tuple) -> None:
        action(t, *args)
        t += period
        if t < self._duration:
            self.sim.schedule(t, self._fire, t, period, action, args)

    def _send_beacon(self, t: float, node: int) -> None:
        self._inject(Packet(klass=PacketClass.BEACON,
                            size_bytes=self.config.beacon_bytes,
                            route=(node,), created_at=t))

    def _send_frame(self, t: float, flow_id: int, source: VideoSource) -> None:
        frame = source.next_frame(self.sim.rng["traffic"], t)
        packets = packetize(frame, self.config.video.max_packet_bytes,
                            route=self.protocols[flow_id].active_route,
                            flow_id=flow_id)
        self.flow_stats[flow_id].count_generated(frame, packets)
        for packet in packets:
            self._inject(packet)

    def _find_cbr_route(self, t: float, state: dict) -> None:
        paths = discover_paths(self.medium.connectivity(t), state["src"],
                               state["dst"], self.config.ttl, 1)
        state["route"] = paths[0] if paths else None

    def _send_cbr(self, t: float, state: dict) -> None:
        self._inject(Packet(klass=PacketClass.CBR,
                            size_bytes=self.config.cbr.packet_bytes,
                            route=state["route"], created_at=t))

    # -- MAC service loop -----------------------------------------------------

    def _inject(self, packet: Packet) -> None:
        """The one way into the network: count the packet generated, then
        queue it at its holder, or drop it (no route, or a full queue)."""
        self.classes[packet.klass].generated += 1
        if packet.route is None:
            self._drop(packet, "no-route")
            return
        node = packet.route[packet.hop_index]
        if self.mac.enqueue(node, packet):
            self._kick(node)
        else:
            self._drop(packet, "queue-overflow")

    def _kick(self, node: int) -> None:
        """Decide the hop of node's next frame as it leaves the queue, from
        the link at its on-air time (positions come from the trace, and the
        frame is the sender's until ``_hop_done``); one event ends the
        hop."""
        mac = self.mac
        if node not in mac.backlogged:  # every queue of node is empty
            return
        state = mac.nodes[node]
        if state.transmitting:
            return
        packet = mac.dequeue_next(node)
        state.transmitting = True
        t = self.sim.clock
        access, rate, air = frame_service(
            packet.size_bytes, mac.neighborhood_load(node, t),
            self._access_delay, self._bitrate)
        t_air = t + access  # on air after contention scaled by local load
        # an outcome on air after the end is left to end-of-run accounting
        booked = t_air <= self._duration
        if packet.klass is PacketClass.BEACON:
            # one on air counts as delivered: a beacon is an AC0 frame that
            # takes queue space and air time, and nothing reads its reception
            if booked:
                self._delivered(packet)
            self.sim.schedule(t_air + air, self._on_tx_done, node)
            return
        nxt = packet.route[packet.hop_index + 1]
        link = self.medium.link_state(node, nxt, t_air)
        busy, cause = self.medium.transmit(link, air, self._channel)
        if packet.klass is PacketClass.PROBE:
            self._record_probe_link(packet, link, rate, t_air)
        if cause is None:
            self.sim.schedule(t_air + busy, self._on_hop_done, node, nxt,
                              packet)
            return
        if booked:
            self._drop(packet, cause)
        # a corrupted frame still takes its air time; a link break none
        self.sim.schedule(t_air + busy, self._on_tx_done, node)

    def _hop_done(self, node: int, nxt: int, packet: Packet) -> None:
        """The frame reaches nxt, which delivers or queues it, then node's
        radio is free: one event, in the order of two events at one time
        with consecutive sequence numbers, which nothing can run between."""
        packet.hop_index += 1
        if nxt == packet.route[-1]:
            self._delivered(packet)
        elif self.mac.enqueue(nxt, packet):
            self._kick(nxt)
        else:
            self._drop(packet, "queue-overflow")
        self.mac.nodes[node].transmitting = False
        self._kick(node)

    def _tx_done(self, node: int) -> None:
        self.mac.nodes[node].transmitting = False
        self._kick(node)

    def _record_probe_link(self, packet: Packet, link, rate: float,
                           t: float) -> None:
        info = packet.payload
        info["min_margin_db"] = min(info["min_margin_db"], link.margin_db)
        info["min_rate_bps"] = min(info["min_rate_bps"], rate)
        va = self._velocity_of(link.node_a, t)
        vb = self._velocity_of(link.node_b, t)
        info["rel_speed_sum"] += math.hypot(vb[0] - va[0], vb[1] - va[1])

    # -- delivery and drop accounting ------------------------------------------

    def _delivered(self, packet: Packet) -> None:
        """The one place a packet is counted delivered."""
        self.classes[packet.klass].delivered += 1
        if packet.klass is PacketClass.PROBE:
            self.protocols[packet.flow_id].on_probe_at_destination(packet)
            return
        if packet.klass is PacketClass.PROBE_REPLY:
            self.protocols[packet.flow_id].on_probe_reply_at_source(packet)
            return
        if packet.klass in VIDEO_CLASSES:
            self.flow_stats[packet.flow_id].count_delivered(
                packet, self.sim.clock - packet.created_at)

    def _drop(self, packet: Packet, cause: str) -> None:
        self.classes[packet.klass].drops[cause] += 1
        if packet.klass in VIDEO_CLASSES:
            self.flow_stats[packet.flow_id].drops[cause] += 1

    # -- run ----------------------------------------------------------------------

    def run(self) -> RunResult:
        duration = self.config.duration_s
        self.sim.run_until(duration)
        for protocol in self.protocols.values():
            protocol.finalize(duration)
        for counters in (*self.classes.values(), *self.flow_stats.values()):
            counters.book_end_of_run()
        # the 'all' row: the flows' packets and the drops of every class
        total = FlowStats("all", "", "", drops={
            cause: sum(c.drops[cause] for c in self.classes.values())
            for cause in DROP_CAUSES})
        flows = []
        for flow_id, stats in sorted(self.flow_stats.items()):
            protocol = self.protocols[flow_id]
            flows.append(stats.row(ts_time_mean=protocol.ts_time_mean,
                                   iterations=len(protocol.iterations),
                                   mean_t_routing=protocol.mean_t_routing))
            total.generated += stats.generated
            total.delivered += stats.delivered
            total.delay_sum += stats.delay_sum
        t_routings = [f["mean_t_routing"] for f in flows
                      if f["mean_t_routing"] > 0]
        ts_means = [f["ts_time_mean"] for f in flows]
        return RunResult(
            flows=flows,
            total=total.row(
                mean_jitter_s="", decodable_gop_fraction="",
                ts_time_mean=(add_up(ts_means) / len(ts_means)
                              if ts_means else 0.0),
                iterations=sum(f["iterations"] for f in flows),
                mean_t_routing=(add_up(t_routings) / len(t_routings)
                                if t_routings else 0.0)),
            class_counters={klass.value: asdict(c)
                            for klass, c in self.classes.items()})

    def protocol_log_rows(self) -> list[dict]:
        """One row per routing iteration, keyed by PROTOCOL_LOG_FIELDS."""
        rows = []
        for flow_id, protocol in sorted(self.protocols.items()):
            for it in protocol.iterations:
                head = it.ranked[0] if it.ranked else None
                rows.append({
                    "flow": flow_id,
                    "iteration": it.index,
                    "t": it.started_at,
                    "discovered": len(it.discovered),
                    "usable": len(it.ranked),
                    "survivors": sum(r.meets for r in it.ranked),
                    "nstate": it.nstate,
                    "t_routing": it.t_routing,
                    "selected": "-".join(map(str, head.qual.path))
                    if head else "",
                    "mscore": head.score if head else "",
                    "mean_ts": head.mean_ts if head else "",
                })
        return rows


PROTOCOL_LOG_FIELDS = ("flow", "iteration", "t", "discovered", "usable",
                       "survivors", "nstate", "t_routing", "selected",
                       "mscore", "mean_ts")


def run_simulation(config: RunConfig) -> tuple[RunResult, list[dict]]:
    run = SimulationRun(config)
    result = run.run()
    return result, run.protocol_log_rows()
