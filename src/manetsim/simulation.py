"""One complete simulation run: wiring of engine, mobility, radio, MAC,
social matrix, routing protocol and traffic sources, plus result accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import mobility as mob
from .config import RunConfig
from .engine import Simulator
from .mac import MacLayer
from .packets import DROP_CAUSES, Packet, PacketClass
from .radio import Medium, in_range, transmission_delay
from .routing import (DiscoveryLimits, SourceProtocol, bfs_distance,
                      discover_paths)
from .social import generate_ts_matrix, validate_ts_matrix
from .video import CbrSpec, VideoFrame, VideoSource, packetize

VIDEO_CLASSES = (PacketClass.VIDEO_I, PacketClass.VIDEO_P, PacketClass.VIDEO_B)

# The MAC load factor takes positions at the start of the 0.1 s bucket that
# holds the query time; at 2 m/s nodes move 0.2 m per quantum, far below the
# 120 m range.  Exact times are still used for per-hop link SNR and for the
# connectivity snapshots of route discovery.
TOPOLOGY_QUANTUM_S = 0.1


@dataclass
class FlowStats:
    flow_id: int
    src: int
    dst: int
    generated: int = 0
    generated_bytes: int = 0
    delivered: int = 0
    delay_sum: float = 0.0
    jitter_sum: float = 0.0
    jitter_n: int = 0
    last_delay: float | None = None
    drops: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in DROP_CAUSES})
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
        """Count a new frame's packets and tag each I packet with its GoP."""
        if frame.frame_index == 0:  # an I frame opens the GoP
            self.gop_i_pending.append(0)
        for packet in packets:
            self.generated += 1
            self.generated_bytes += packet.size_bytes
            if packet.klass is PacketClass.VIDEO_I:
                self.gop_i_pending[frame.gop_index] += 1
                packet.payload["gop"] = frame.gop_index

    def count_delivered(self, packet: Packet, delay: float) -> None:
        self.delivered += 1
        self.delay_sum += delay
        if self.last_delay is not None:
            self.jitter_sum += abs(delay - self.last_delay)
            self.jitter_n += 1
        self.last_delay = delay
        if packet.klass is PacketClass.VIDEO_I:
            self.gop_i_pending[packet.payload["gop"]] -= 1


@dataclass
class ClassCounters:
    generated: int = 0
    delivered: int = 0
    drops: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in DROP_CAUSES})

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())


@dataclass
class RunResult:
    duration_s: float
    flows: list[dict]
    drops_by_cause: dict[str, int]
    class_counters: dict[str, dict]
    total_generated: int
    total_delivered: int
    iterations: int
    mean_t_routing: float
    ts_time_mean: float

    @property
    def pooled_loss(self) -> float:
        if self.total_generated == 0:
            return 0.0
        return 1.0 - self.total_delivered / self.total_generated

    @property
    def pooled_delay(self) -> float:
        delivered = sum(f["delivered"] for f in self.flows)
        if delivered == 0:
            return 0.0
        return sum(f["delay_sum"] for f in self.flows) / delivered


class SimulationRun:
    """Builds the model from a RunConfig and executes it to completion."""

    def __init__(self, config: RunConfig,
                 mobility_trace: mob.MobilityTrace | None = None,
                 ts_matrix=None, frame_trace=None):
        self.config = config
        self.sim = Simulator(config.master_seed)
        area = config.area
        if mobility_trace is None:
            mobility_trace = mob.generate_waypoint_trace(
                area, config.mobility.max_speed_mps, config.duration_s,
                self.sim.rng.stream("mobility"),
                pause_s=config.mobility.pause_s,
                min_speed_fraction=config.mobility.min_speed_fraction,
                warmup_s=config.mobility.warmup_s)
        self.trace = mobility_trace
        self.node_ids = self.trace.node_ids
        # no segment holds any time until the first lookup
        self._segments = {node: (math.inf, -math.inf, 0.0, 0.0, None, None)
                          for node in self.node_ids}
        self._range_sq = config.radio.tx_range_m ** 2
        self._load_bucket: float | None = None
        self._load_positions: dict[int, tuple[float, float]] = {}
        self.medium = Medium(config.radio, self._position_of, self.node_ids)
        self.mac = MacLayer(self.node_ids, capacity=config.mac.queue_capacity,
                            neighbor_provider=self._neighbors_of)
        if ts_matrix is None:
            ts_matrix = generate_ts_matrix(
                len(self.node_ids), config.social.mu_ts, config.social.sigma_ts,
                self.sim.rng.stream("social"))
        else:
            validate_ts_matrix(ts_matrix)
            if ts_matrix.shape != (len(self.node_ids),) * 2:
                raise ValueError(
                    f"tie-strength matrix is {ts_matrix.shape[0]} x "
                    f"{ts_matrix.shape[1]}, but the run has "
                    f"{len(self.node_ids)} nodes")
        self.ts_matrix = ts_matrix
        self.drops = {cause: 0 for cause in DROP_CAUSES}
        self.classes = {klass: ClassCounters() for klass in PacketClass}
        self.flow_stats: dict[int, FlowStats] = {}
        self.protocols: dict[int, SourceProtocol] = {}
        self.cbr_state: dict[int, dict] = {}
        self._frame_trace = frame_trace
        self._channel = self.sim.rng.stream("channel")
        self._gop_model = config.video.gop_model()
        self._setup_flows()
        self._setup_beacons()

    # -- topology helpers ----------------------------------------------------

    def _position_of(self, node: int, t: float):
        """``mob.position_at`` at min(t, duration), from the node's current
        waypoint segment; a bisect only when t leaves that segment."""
        if t > self.trace.duration:
            t = self.trace.duration
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

        Only those pairs are tested, with ``in_range``; the positions of the
        nodes touched are kept for the rest of the bucket."""
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
        r2 = self._range_sq
        nbrs = []
        for other in backlogged:
            if other == node:
                continue
            there = positions.get(other)
            if there is None:
                there = positions[other] = self._position_of(other, bucket)
            if in_range(there[0] - x, there[1] - y, r2):
                nbrs.append(other)
        return nbrs

    def _velocity_of(self, node: int, t: float):
        """``mob.velocity_at`` at min(t, duration), from the node's current
        waypoint segment, which ``_position_of`` has entered for the link
        just measured at t."""
        if t > self.trace.duration:
            t = self.trace.duration
        start, end, _x, _y, dx, dy = segment = self._segments[node]
        if not start <= t < end:
            start, end, _x, _y, dx, dy = segment = mob.segment_at(
                self.trace, node, t)
            self._segments[node] = segment
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
        rng = self.sim.rng.stream("traffic")
        if count > len(self.node_ids):
            raise ValueError("not enough nodes for the configured flows")
        adj = self.medium.connectivity(0.0)
        ttl = self.config.limits.ttl
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

    def _setup_flows(self) -> None:
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
                send=self._inject, now=lambda: self.sim.clock,
                schedule=self.sim.schedule)
            self.protocols[flow_id] = protocol
            self.sim.schedule(0.0, protocol.start_iteration)
            source = VideoSource(self._gop_model, trace=self._frame_trace)
            self.sim.schedule(config.video.start_s, self._video_tick,
                              flow_id, source)
        base = 2 * config.video.flows
        for c in range(config.cbr.flows):
            src, dst = endpoints[base + 2 * c], endpoints[base + 2 * c + 1]
            spec = CbrSpec(config.cbr.rate_bps, config.cbr.packet_bytes)
            self.cbr_state[c] = {"src": src, "dst": dst, "spec": spec,
                                 "route": None}
            self.sim.schedule(0.0, self._cbr_refresh, c)
            self.sim.schedule(0.0, self._cbr_tick, c)

    def _setup_beacons(self) -> None:
        # deterministic stagger spreads beacon transmissions inside a period
        period = self.config.beacon_period_s
        for i, node in enumerate(self.node_ids):
            offset = period * i / max(1, len(self.node_ids))
            self.sim.schedule(offset, self._beacon_tick, node)

    # -- beacons --------------------------------------------------------------

    def _beacon_tick(self, node: int) -> None:
        t = self.sim.clock
        if t >= self.config.duration_s:
            return
        packet = Packet(klass=PacketClass.BEACON,
                        size_bytes=self.config.beacon_bytes,
                        src=node, dst=-1, route=(node,), created_at=t)
        self.classes[packet.klass].generated += 1
        if self.mac.enqueue(node, packet):
            self._kick(node)
        else:
            self._drop(packet, "queue-overflow")
        self.sim.schedule(t + self.config.beacon_period_s, self._beacon_tick,
                          node)

    def _deliver_beacon(self) -> None:
        """Count the beacon delivered.  Beacons matter to the model only as
        AC0 frames that take queue space and air time, which feeds the MAC
        load factor; nothing reads their reception."""
        self.classes[PacketClass.BEACON].delivered += 1

    # -- MAC service loop -----------------------------------------------------

    def _inject(self, packet: Packet) -> None:
        """Entry point for locally generated packets (data, probes, replies)."""
        self.classes[packet.klass].generated += 1
        node = packet.route[packet.hop_index]
        if self.mac.enqueue(node, packet):
            self._kick(node)
        else:
            self._drop(packet, "queue-overflow")

    def _kick(self, node: int) -> None:
        """Decide the hop of node's next frame as it leaves the queue, from
        the link at its on-air time (positions come from the trace, and the
        frame is the sender's until ``_receive``); one event ends the hop."""
        state = self.mac.nodes[node]
        if state.transmitting:
            return
        packet = self.mac.dequeue_next(node)
        if packet is None:
            return
        state.transmitting = True
        t = self.sim.clock
        load = self.mac.neighborhood_load(node, t)
        # contention before the frame goes on air, scaled by local load
        t_air = t + self.config.mac.access_delay_s * load
        # an outcome on air after the end is left to end-of-run accounting
        booked = t_air <= self.config.duration_s
        if packet.klass is PacketClass.BEACON:
            if booked:
                self._deliver_beacon()
            busy = transmission_delay(self.config.radio,
                                      packet.size_bytes, load)
            self.sim.schedule(t_air + busy, self._tx_done, node)
            return
        hop = packet.hop_index + 1
        if hop >= len(packet.route):
            self.sim.schedule(t_air, self._tx_done, node)
            return
        nxt = packet.route[hop]
        link = self.medium.link_state(node, nxt, t_air)
        status, busy, cause = self.medium.transmit(
            link, packet.size_bytes, load, self._channel)
        if packet.klass is PacketClass.PROBE:
            self._record_probe_link(packet, link, load, t_air)
        if status == "delivered":
            self.sim.schedule(t_air + busy, self._hop_done, node, nxt, packet)
            return
        if booked:
            self._drop(packet, cause)
        # a corrupted frame still takes its air time
        self.sim.schedule(t_air if status == "dropped" else t_air + busy,
                          self._tx_done, node)

    def _hop_done(self, node: int, nxt: int, packet: Packet) -> None:
        """The frame reaches nxt, then node's radio is free: one event, in
        the order of two events at one time with consecutive sequence
        numbers, which nothing can run between."""
        self._receive(nxt, packet)
        self._tx_done(node)

    def _tx_done(self, node: int) -> None:
        self.mac.nodes[node].transmitting = False
        self._kick(node)

    def _record_probe_link(self, packet: Packet, link, load: float,
                           t: float) -> None:
        info = packet.payload
        margin = link.snr_db - self.config.radio.snr_threshold_db
        info["min_margin_db"] = min(info["min_margin_db"], margin)
        rate = self.config.radio.nominal_bitrate_bps / max(1.0, load)
        info["min_rate_bps"] = min(info["min_rate_bps"], rate)
        va = self._velocity_of(link.node_a, t)
        vb = self._velocity_of(link.node_b, t)
        info["rel_speed_sum"] += math.hypot(vb[0] - va[0], vb[1] - va[1])
        info["rel_speed_links"] += 1

    def _receive(self, node: int, packet: Packet) -> None:
        packet.hop_index += 1
        if node == packet.route[-1]:
            self._delivered(packet)
            return
        if self.mac.enqueue(node, packet):
            self._kick(node)
        else:
            self._drop(packet, "queue-overflow")

    # -- delivery and drop accounting ------------------------------------------

    def _delivered(self, packet: Packet) -> None:
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
        self.drops[cause] += 1
        self.classes[packet.klass].drops[cause] += 1
        if packet.klass in VIDEO_CLASSES:
            self.flow_stats[packet.flow_id].drops[cause] += 1

    # -- traffic sources --------------------------------------------------------

    def _video_tick(self, flow_id: int, source: VideoSource) -> None:
        t = self.sim.clock
        if t >= self.config.duration_s:
            return
        stats = self.flow_stats[flow_id]
        protocol = self.protocols[flow_id]
        frame = source.next_frame(self.sim.rng.stream("traffic"), t)
        route = protocol.active_route or (stats.src, stats.dst)
        packets = packetize(frame, self.config.video.max_packet_bytes,
                            src=stats.src, dst=stats.dst, route=route,
                            flow_id=flow_id)
        stats.count_generated(frame, packets)
        for packet in packets:
            if protocol.active_route is None:
                self.classes[packet.klass].generated += 1
                self._drop(packet, "no-route")
            else:
                self._inject(packet)
        self.sim.schedule(t + self._gop_model.frame_interval,
                          self._video_tick, flow_id, source)

    def _cbr_refresh(self, cbr_id: int) -> None:
        t = self.sim.clock
        if t >= self.config.duration_s:
            return
        state = self.cbr_state[cbr_id]
        adj = self.medium.connectivity(t)
        paths = discover_paths(adj, state["src"], state["dst"],
                               DiscoveryLimits(ttl=self.config.limits.ttl,
                                               max_paths=1))
        state["route"] = paths[0] if paths else None
        self.sim.schedule(t + self.config.cbr.refresh_s, self._cbr_refresh,
                          cbr_id)

    def _cbr_tick(self, cbr_id: int) -> None:
        t = self.sim.clock
        if t >= self.config.duration_s:
            return
        state = self.cbr_state[cbr_id]
        packet = Packet(klass=PacketClass.CBR,
                        size_bytes=state["spec"].packet_bytes,
                        src=state["src"], dst=state["dst"],
                        route=state["route"] or (state["src"], state["dst"]),
                        created_at=t)
        if state["route"] is None:
            self.classes[packet.klass].generated += 1
            self._drop(packet, "no-route")
        else:
            self._inject(packet)
        self.sim.schedule(t + state["spec"].interval, self._cbr_tick, cbr_id)

    # -- run ----------------------------------------------------------------------

    def run(self) -> RunResult:
        duration = self.config.duration_s
        self.sim.run_until(duration)
        for protocol in self.protocols.values():
            protocol.finalize(duration)
        # packets still queued or mid-hop when the clock stops never arrived
        for counters in self.classes.values():
            residual = counters.generated - counters.delivered - counters.dropped
            assert residual >= 0, "accounting bug: more outcomes than packets"
            if residual:
                counters.drops["end-of-run"] += residual
                self.drops["end-of-run"] += residual
        for stats in self.flow_stats.values():
            residual = (stats.generated - stats.delivered
                        - sum(stats.drops.values()))
            assert residual >= 0, "accounting bug: more outcomes than packets"
            stats.drops["end-of-run"] += residual
        flows = []
        for flow_id, stats in sorted(self.flow_stats.items()):
            protocol = self.protocols[flow_id]
            flows.append({
                "flow_id": flow_id, "src": stats.src, "dst": stats.dst,
                "generated": stats.generated, "delivered": stats.delivered,
                "offered_bps": stats.generated_bytes * 8 / duration,
                "loss_fraction": stats.loss_fraction,
                "mean_delay_s": stats.mean_delay_s,
                "mean_jitter_s": stats.mean_jitter_s,
                "delay_sum": stats.delay_sum,
                "decodable_gop_fraction": stats.decodable_gop_fraction,
                "ts_time_mean": protocol.ts_time_mean,
                "iterations": len(protocol.iterations),
                "mean_t_routing": protocol.mean_t_routing,
                "drops": dict(stats.drops),
            })
        total_generated = sum(f["generated"] for f in flows)
        total_delivered = sum(f["delivered"] for f in flows)
        iterations = sum(f["iterations"] for f in flows)
        t_routings = [f["mean_t_routing"] for f in flows
                      if f["mean_t_routing"] > 0]
        ts_means = [f["ts_time_mean"] for f in flows]
        return RunResult(
            duration_s=duration, flows=flows, drops_by_cause=dict(self.drops),
            class_counters={
                klass.value: {"generated": c.generated,
                              "delivered": c.delivered,
                              "drops": dict(c.drops)}
                for klass, c in self.classes.items()},
            total_generated=total_generated, total_delivered=total_delivered,
            iterations=iterations,
            mean_t_routing=(sum(t_routings) / len(t_routings)
                            if t_routings else 0.0),
            ts_time_mean=(sum(ts_means) / len(ts_means) if ts_means else 0.0))

    def protocol_log_rows(self) -> list[dict]:
        rows = []
        for flow_id, protocol in sorted(self.protocols.items()):
            for it in protocol.iterations:
                rows.append({
                    "flow": flow_id,
                    "iteration": it.index,
                    "t": it.started_at,
                    "discovered": len(it.discovered),
                    "usable": len(it.qualifications),
                    "survivors": len(it.survivors),
                    "nstate": it.nstate,
                    "t_routing": it.t_routing,
                    "selected": "-".join(map(str, it.selected))
                    if it.selected else "",
                    "mscore": it.selected_score
                    if it.selected_score is not None else "",
                    "mean_ts": it.selected_mean_ts
                    if it.selected_mean_ts is not None else "",
                })
        return rows


def run_simulation(config: RunConfig, mobility_trace=None, ts_matrix=None,
                   frame_trace=None) -> tuple[RunResult, list[dict]]:
    run = SimulationRun(config, mobility_trace=mobility_trace,
                        ts_matrix=ts_matrix, frame_trace=frame_trace)
    result = run.run()
    return result, run.protocol_log_rows()
