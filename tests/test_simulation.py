"""Integration tests: the full stack on small controlled scenarios."""

import collections
import dataclasses
import gc
import hashlib
import inspect
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracle_utils
from manetsim import mobility as mob
from manetsim import simulation
from manetsim.config import CbrConfig, RunConfig, SocialConfig, VideoConfig
from manetsim.harness import (point_config, protocol_log_csv_text,
                              result_csv_text, run_once_to_dir, scenario_seed)
from manetsim.mobility import MobilityTrace
from manetsim.packets import DROP_CAUSES, Packet, PacketClass
from manetsim.radio import Medium, RadioSpec
from manetsim.routing import qualify
from manetsim.simulation import DROP_FIELDS, SimulationRun, run_simulation
from manetsim.video import VideoFrame


def static_trace(positions, duration=60.0):
    trace = MobilityTrace(duration=duration)
    for node, (x, y) in enumerate(positions):
        trace.waypoints[node] = ([0.0], [x], [y])
    return trace


def full_ts(n, value=4):
    m = np.full((n, n), value, dtype=np.int64)
    np.fill_diagonal(m, 0)
    return m


def two_node_config(**overrides):
    base = dict(
        duration_s=40.0, node_count=2, master_seed=1,
        video=VideoConfig(flows=1), cbr=CbrConfig(flows=0),
        social=SocialConfig(mu_ts=4.0, sigma_ts=1.0))
    base.update(overrides)
    return RunConfig().replace(**base)


class TestTwoNodeIdle:
    """Static pair 20 m apart: no corruption, no contention, one hop."""

    def run(self, tmp_path, video_start=0.0):
        config = two_node_config(
            video=VideoConfig(flows=1, start_s=video_start))
        trace = static_trace([(100.0, 100.0), (120.0, 100.0)],
                             duration=config.duration_s)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        result = run.run()
        return run, result

    def test_probe_measurements_on_idle_network(self, tmp_path):
        # video held back so the first probe train sees only beacons
        run, _ = self.run(tmp_path, video_start=30.0)
        protocol = run.protocols[0]
        decided = [it for it in protocol.iterations if it.selected]
        assert decided, "no iteration completed"
        first = decided[0]
        qual = first.qualifications[first.selected]
        assert qual.loss == 0.0
        assert qual.hops == 1
        assert qual.jitter_s == pytest.approx(0.0, abs=2e-3)
        assert first.selected == (run.flow_stats[0].src, run.flow_stats[0].dst)

    def test_video_flows_without_loss(self, tmp_path):
        _, result = self.run(tmp_path)
        flow = result.flows[0]
        assert flow["generated"] > 0
        # only the end-of-run tail may be undelivered
        assert result.drops_by_cause["corruption"] == 0
        assert result.drops_by_cause["link-break"] == 0
        assert flow["loss_fraction"] < 0.02
        assert flow["decodable_gop_fraction"] > 0.95

    def test_per_hop_delay_exceeds_transmission_delay(self, tmp_path):
        _, result = self.run(tmp_path)
        flow = result.flows[0]
        assert flow["mean_delay_s"] > 1500 * 8 / 11e6

    def test_selected_path_ts_from_matrix(self, tmp_path):
        run, result = self.run(tmp_path)
        assert result.ts_time_mean == pytest.approx(4.0)


class TestHopEvents:
    def test_delivered_hop_costs_one_completion_event(self, tmp_path):
        # no flows: between beacons, one injected frame is the only traffic
        config = two_node_config(duration_s=2.0, video=VideoConfig(flows=0))
        trace = static_trace([(100.0, 100.0), (120.0, 100.0)], duration=2.0)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        run.sim.run_until(0.2)  # the beacons of t=0 are done, t=0.5 is next
        before = run.sim.queue.processed
        run._inject(Packet(klass=PacketClass.CBR, size_bytes=1500,
                           route=(0, 1), created_at=0.2))
        run.sim.run_until(0.3)
        assert run.classes[PacketClass.CBR].delivered == 1
        # the hop is decided at dequeue; reception and end of transmission
        # are its one event
        assert run.sim.queue.processed - before == 1

    @staticmethod
    def idle_run(tmp_path):
        config = two_node_config(duration_s=2.0, video=VideoConfig(flows=0))
        trace = static_trace([(100.0, 100.0), (120.0, 100.0)], duration=2.0)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        run.sim.run_until(0.2)  # the beacons of t=0 are done, t=0.5 is next
        calls = []

        def refuse(name):
            def called(*args):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return called

        for name in ("dequeue_next", "neighborhood_load"):
            setattr(run.mac, name, refuse(name))
        run.sim.schedule = refuse("schedule")
        return run, calls

    def test_kick_on_an_empty_queue_does_nothing(self, tmp_path):
        run, calls = self.idle_run(tmp_path)
        assert not run.mac.backlogged
        for node in (0, 1):
            run._kick(node)
        assert calls == []
        assert not any(state.transmitting for state in run.mac.nodes.values())

    def test_kick_on_a_busy_radio_does_nothing(self, tmp_path):
        run, calls = self.idle_run(tmp_path)
        run.mac.nodes[0].transmitting = True
        assert run.mac.enqueue(0, Packet(
            klass=PacketClass.CBR, size_bytes=1500, route=(0, 1),
            created_at=0.2))
        run._kick(0)
        assert calls == []
        assert run.mac.backlogged == {0}


class TestPayload:
    def test_only_probes_replies_and_i_packets_carry_one(self, tmp_path):
        config = two_node_config(duration_s=6.0, cbr=CbrConfig(flows=1),
                                 node_count=4)
        trace = static_trace([(100.0, 100.0), (200.0, 100.0),
                              (300.0, 100.0), (400.0, 100.0)], duration=6.0)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(4)))
        seen = {}
        enqueue = run.mac.enqueue

        def recording_enqueue(node, packet):
            seen[id(packet)] = packet  # the entry keeps the packet, and its id
            return enqueue(node, packet)

        run.mac.enqueue = recording_enqueue
        run.run()
        by_class = {}
        for packet in seen.values():
            by_class.setdefault(packet.klass, []).append(packet)
        assert set(by_class) == set(PacketClass)
        for klass in (PacketClass.BEACON, PacketClass.CBR,
                      PacketClass.VIDEO_P, PacketClass.VIDEO_B):
            assert all(p.payload is None for p in by_class[klass]), klass
        i_packets = by_class[PacketClass.VIDEO_I]
        assert all(p.payload == {"gop": round(p.created_at * 25.0) // 12}
                   for p in i_packets)
        assert len({p.payload["gop"] for p in i_packets}) > 10
        for klass in (PacketClass.PROBE, PacketClass.PROBE_REPLY):
            assert all(p.payload["iteration"] >= 0 for p in by_class[klass])
        # a probe carries only what the hops it crosses measure
        assert all(set(p.payload) == {"iteration", "min_margin_db",
                                      "min_rate_bps", "rel_speed_sum"}
                   for p in by_class[PacketClass.PROBE])
        # a reply carries qualify's raw measurement arguments, nothing else
        params = set(inspect.signature(qualify).parameters)
        params -= {"request", "max_speed_mps"}
        assert all(set(p.payload) == params
                   for p in by_class[PacketClass.PROBE_REPLY])


class TestHopOracle:
    """With no channel draws, deciding a hop at dequeue gives the bytes of
    the two-event path that decides it on air."""

    @pytest.mark.parametrize("config", [
        point_config(RunConfig(), 0.2, 3.0, 200,
                     scenario_seed(1, 3.0, 200, 0)).replace(duration_s=20.0),
        point_config(RunConfig(), 0.8, 1.0, 100,
                     scenario_seed(1, 1.0, 100, 0)).replace(duration_s=60.0),
    ], ids=["dense54-20s", "sparse27-60s"])
    def test_bytes_equal_the_two_event_path(self, config):
        config = config.replace(radio=dataclasses.replace(
            config.radio, max_corruption_prob=0.0))
        runs = [SimulationRun(config), oracle_utils.TwoEventRun(config)]
        texts = []
        for run in runs:
            result = run.run()
            assert result.drops_by_cause["link-break"] > 0
            assert run.classes[PacketClass.PROBE].delivered > 0
            texts.append((result_csv_text(result),
                          protocol_log_csv_text(run.protocol_log_rows())))
        assert texts[0] == texts[1]
        assert runs[0].sim.queue.processed < runs[1].sim.queue.processed


class TestOnAirAfterTheEnd:
    """A frame that leaves the queue before the end but would go on air
    after it is booked end-of-run, as the run's end finds it; one on air
    before the end is booked by its outcome."""

    DURATION = 2.0

    def counters(self, tmp_path, klass, distance, on_air, channel=None):
        config = two_node_config(duration_s=self.DURATION,
                                 video=VideoConfig(flows=0))
        trace = static_trace([(0.0, 100.0), (distance, 100.0)],
                             duration=self.DURATION)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        if channel is not None:
            run._channel = channel
        # load 1, so the frame goes on air one access delay after dequeue
        access = config.mac.access_delay_s
        t = self.DURATION - access + (access / 2 if on_air == "after"
                                      else -access / 2)
        run.sim.run_until(t)
        assert not run.mac.backlogged
        assert not any(state.transmitting for state in run.mac.nodes.values())
        route = (0,) if klass is PacketClass.BEACON else (0, 1)
        run._inject(Packet(klass=klass, size_bytes=1000, route=route,
                           created_at=t))
        run.run()
        counters = run.classes[klass]
        drops = {cause: n for cause, n in counters.drops.items() if n}
        return counters, drops

    @pytest.mark.parametrize("on_air", ["before", "after"])
    def test_link_break(self, tmp_path, on_air):
        _, drops = self.counters(tmp_path, PacketClass.CBR, 500.0, on_air)
        assert drops == ({"link-break": 1} if on_air == "before"
                         else {"end-of-run": 1})

    @pytest.mark.parametrize("on_air", ["before", "after"])
    def test_corruption(self, tmp_path, on_air):
        class Corrupting:
            def random(self):
                return 0.0

        _, drops = self.counters(tmp_path, PacketClass.CBR, 100.0, on_air,
                                 Corrupting())
        assert drops == ({"corruption": 1} if on_air == "before"
                         else {"end-of-run": 1})

    @pytest.mark.parametrize("on_air", ["before", "after"])
    def test_beacon(self, tmp_path, on_air):
        counters, drops = self.counters(tmp_path, PacketClass.BEACON, 50.0,
                                        on_air)
        if on_air == "before":
            assert drops == {}
            assert counters.delivered == counters.generated
        else:
            assert drops == {"end-of-run": 1}
            assert counters.delivered == counters.generated - 1


class TestIterationsEndWithTheRun:
    def test_no_iteration_starts_at_the_end(self, tmp_path):
        # apart for the whole run: no path, so nstate 0 and an iteration
        # every beta_tune = 3 s; the beacons stop before 9 s, and so must
        # the iterations, at 0, 3 and 6 s
        config = two_node_config(duration_s=9.0, flow_min_hops=1)
        trace = static_trace([(10.0, 10.0), (500.0, 500.0)],
                             duration=config.duration_s)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        result = run.run()
        assert run.classes[PacketClass.BEACON].generated == 18
        assert [row["t"] for row in run.protocol_log_rows()] == [0.0, 3.0,
                                                                6.0]
        assert result.iterations == 3


class TestProbeLinkOnAir:
    def test_probe_records_the_link_at_its_on_air_time(self, tmp_path):
        # node 1 moves at 10 m/s until it stops at t=1; the probe leaves the
        # queue before then and goes on air after
        config = two_node_config(duration_s=2.0, video=VideoConfig(flows=0))
        trace = MobilityTrace(duration=2.0)
        trace.waypoints[0] = ([0.0], [100.0], [100.0])
        trace.waypoints[1] = ([0.0, 1.0], [110.0, 120.0], [100.0, 100.0])
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        arrived = []
        run.protocols[0] = SimpleNamespace(
            on_probe_at_destination=arrived.append)
        t = 1.0 - config.mac.access_delay_s / 2
        run.sim.run_until(t)
        assert not run.mac.backlogged
        run._inject(Packet(
            klass=PacketClass.PROBE, size_bytes=1000, route=(0, 1),
            created_at=t, flow_id=0,
            payload={"min_margin_db": math.inf, "min_rate_bps": math.inf,
                     "rel_speed_sum": 0.0}))
        run.sim.run_until(config.duration_s)
        [probe] = arrived
        assert probe.payload["min_margin_db"] == config.radio.margin_db(20.0)
        assert probe.payload["rel_speed_sum"] == 0.0

    def test_two_hop_probe_records_one_relative_speed_per_hop(self,
                                                              tmp_path):
        # node 0 stands, node 1 moves at (3, 0) m/s and node 2 at (0, 4)
        # m/s: the hops' relative speeds are 3 and 5 m/s throughout, and the
        # destination's mean over len(route) - 1 hops must be their mean
        config = two_node_config(node_count=3, duration_s=2.0,
                                 video=VideoConfig(flows=0))
        trace = MobilityTrace(duration=2.0)
        trace.waypoints[0] = ([0.0], [100.0], [100.0])
        trace.waypoints[1] = ([0.0, 2.0], [120.0, 126.0], [100.0, 100.0])
        trace.waypoints[2] = ([0.0, 2.0], [140.0, 140.0], [100.0, 108.0])
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(3)))
        arrived = []
        run.protocols[0] = SimpleNamespace(
            on_probe_at_destination=arrived.append)
        run.sim.run_until(0.5)
        assert not run.mac.backlogged
        run._inject(Packet(
            klass=PacketClass.PROBE, size_bytes=1000, route=(0, 1, 2),
            created_at=0.5, flow_id=0,
            payload={"min_margin_db": math.inf, "min_rate_bps": math.inf,
                     "rel_speed_sum": 0.0}))
        run.sim.run_until(config.duration_s)
        [probe] = arrived
        assert probe.payload["rel_speed_sum"] / (len(probe.route) - 1) == (
            (math.hypot(3.0, 0.0) + math.hypot(-3.0, 4.0)) / 2)


class TestVelocityOracle:
    """``_velocity_of`` reads the segment ``_position_of`` holds; it must
    equal ``oracle_utils.velocity_at`` at min(t, duration) wherever it is
    asked."""

    @staticmethod
    def make_run(tmp_path, duration=40.0):
        config = two_node_config(node_count=3, duration_s=duration,
                                 video=VideoConfig(flows=0))
        trace = MobilityTrace(duration=duration)
        # moves, pauses from 10 s to 12.5 s, moves, stops at 30 s
        trace.waypoints[0] = ([0.0, 10.0, 12.5, 30.0],
                              [0.0, 30.0, 30.0, 100.0],
                              [0.0, 40.0, 40.0, 7.0])
        trace.waypoints[1] = ([0.0], [200.0], [200.0])
        trace.waypoints[2] = ([2.0, 8.0], [50.0, 50.0], [0.0, 90.0])
        return SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(3)))

    TIMES = [0.0, 1.0, 2.0, 5.0, 8.0, 10.0, 11.0, 12.5, 20.0, 30.0, 35.0,
             40.0, 45.0, 1e9]

    def expected(self, run, node, t):
        return oracle_utils.velocity_at(run.trace, node,
                                        min(t, run.trace.duration))

    @pytest.mark.parametrize("t", TIMES)
    def test_fresh_lookup(self, tmp_path, t):
        run = self.make_run(tmp_path)
        for node in run.node_ids:
            assert run._velocity_of(node, t) == self.expected(run, node, t)

    def test_after_position_lookups_in_any_order(self, tmp_path):
        run = self.make_run(tmp_path)
        rng = np.random.default_rng(3)
        times = self.TIMES + list(rng.uniform(0.0, 50.0, 200))
        rng.shuffle(times)
        for t in times:
            for node in run.node_ids:
                run._position_of(node, t)
                assert run._velocity_of(node, t) == self.expected(
                    run, node, t), (node, t)

    def test_random_waypoint_trace(self):
        run = SimulationRun(sparse27_config(30.0))
        rng = np.random.default_rng(8)
        for t in sorted(rng.uniform(0.0, 31.0, 300)):
            for node in run.node_ids:
                run._position_of(node, t)
                assert run._velocity_of(node, t) == self.expected(
                    run, node, t)


class TestProbeLossEstimate:
    def test_train_loss_tracks_corruption_probability(self, tmp_path):
        # exactly at the range boundary the corruption probability equals
        # max_corruption_prob; the probe trains should measure it
        config = two_node_config(
            duration_s=300.0,
            radio=RadioSpec(max_corruption_prob=0.2))
        trace = static_trace([(100.0, 100.0), (220.0, 100.0)],
                             duration=config.duration_s)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        run.run()
        losses = []
        for it in run.protocols[0].iterations:
            qual = it.qualifications.get(it.selected)
            if qual is not None:
                losses.append(qual.loss)
        assert len(losses) >= 15
        mean_loss = sum(losses) / len(losses)
        assert mean_loss == pytest.approx(0.2, abs=0.08)


class TestForwarding:
    def test_multi_hop_chain_delivers_with_additive_delay(self, tmp_path):
        config = two_node_config(node_count=4)
        trace = static_trace([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0),
                              (300.0, 0.0)], duration=config.duration_s)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(4)))
        result = run.run()
        flow = result.flows[0]
        hops = abs(flow["dst"] - flow["src"])
        assert flow["delivered"] > 0
        # each hop adds at least the access plus transmission time
        assert flow["mean_delay_s"] >= hops * (
            config.mac.access_delay_s + 100 * 8 / 11e6)

    def test_route_break_drops_with_cause(self, tmp_path):
        # relay walks out of range at t ~ 10 s, leaving the route broken
        config = two_node_config(node_count=3, duration_s=30.0)
        trace = MobilityTrace(duration=30.0)
        trace.waypoints[0] = ([0.0], [0.0], [100.0])
        trace.waypoints[1] = ([0.0, 10.0, 11.5], [100.0, 100.0, 100.0],
                              [100.0, 100.0, 400.0])
        trace.waypoints[2] = ([0.0], [200.0], [100.0])
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(3)))
        result = run.run()
        assert result.drops_by_cause["link-break"] > 0


class TestAccounting:
    def run_default(self):
        config = RunConfig().replace(duration_s=30.0, node_count=20,
                                     master_seed=3)
        result, _ = run_simulation(config)
        return result

    def test_per_class_conservation(self):
        result = self.run_default()
        for klass, counters in result.class_counters.items():
            dropped = sum(counters["drops"].values())
            assert counters["generated"] == counters["delivered"] + dropped, \
                f"class {klass} leaks packets"

    def test_flow_totals_match_video_classes(self):
        result = self.run_default()
        video_generated = sum(
            result.class_counters[k]["generated"]
            for k in ("video-i", "video-p", "video-b"))
        assert video_generated == result.total_generated

    def test_per_flow_drops_sum_to_video_class_drops(self):
        result = self.run_default()
        for flow in result.flows:
            assert flow["generated"] == (
                flow["delivered"] + sum(flow[name] for name in DROP_FIELDS))
        for cause, name in zip(DROP_CAUSES, DROP_FIELDS):
            assert sum(f[name] for f in result.flows) == sum(
                result.class_counters[k]["drops"][cause]
                for k in ("video-i", "video-p", "video-b"))
        assert any(sum(f[name] for name in DROP_FIELDS) for f in result.flows)

    def test_drop_causes_sum(self):
        result = self.run_default()
        total_drops = sum(
            sum(c["drops"].values()) for c in result.class_counters.values())
        assert total_drops == sum(result.drops_by_cause.values())

    def test_loss_fraction_in_range(self):
        result = self.run_default()
        for flow in result.flows:
            assert 0.0 <= flow["loss_fraction"] <= 1.0
            assert 0.0 <= flow["decodable_gop_fraction"] <= 1.0
        assert 0.0 <= result.ts_time_mean <= 4.0

    def test_offered_video_load_near_target(self, monkeypatch):
        config = RunConfig().replace(duration_s=120.0, node_count=10,
                                     master_seed=6)
        generated = {}  # flow -> bytes of the frames packetized
        real_packetize = simulation.packetize

        def packetize(frame, *args, flow_id, **kwargs):
            generated[flow_id] = generated.get(flow_id, 0) + frame.size_bytes
            return real_packetize(frame, *args, flow_id=flow_id, **kwargs)

        monkeypatch.setattr(simulation, "packetize", packetize)
        SimulationRun(config).run()
        assert sorted(generated) == list(range(config.video.flows))
        for flow_bytes in generated.values():
            assert flow_bytes * 8 / config.duration_s == (
                pytest.approx(config.video.target_rate_bps, rel=0.05))


def sparse27_config(duration_s):
    """Repetition 0 of the 27-node, mu=1, w_ts=0.8 scenario."""
    return point_config(RunConfig(), 0.8, 1.0, 100,
                        scenario_seed(1, 1.0, 100, 0)).replace(
                            duration_s=duration_s)


class TestGoldenDigest:
    def test_lossy_sparse_run_bytes(self):
        # 27 nodes for 40 s: all five drop causes and probe link records;
        # a change that claims to keep behaviour keeps these digests
        run = SimulationRun(sparse27_config(40.0))
        result = run.run()
        assert all(result.drops_by_cause.values())
        assert run.classes[PacketClass.PROBE].delivered > 0
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in
                   (result_csv_text(result),
                    protocol_log_csv_text(run.protocol_log_rows()))]
        assert digests == [
            "1904b3848661a1872bbf16adb36ccc018092d17d7ae50c68becef12414ccdc86",
            "16af2af71c47e1d14d1bb9ca1032415e79496130db2f1089718e73feee75278d",
        ]

    @pytest.mark.parametrize("w_ts, mu_ts, density, duration_s, digests", [
        (0.2, 3.0, 200, 200.0, [
            "b739efb5fc3c2cfea36c022f77167226b99061519ecbc2fbcc34d64c43ee866a",
            "3b39bb691d8a12a1e24f146ae084cf78e6341b9170d73136c7a9509bfce38dd2",
        ]),
        (0.8, 1.0, 100, 600.0, [
            "819cebd40816690b5c31af22baa3a2b9966a5b30c083ab620406f072c1e3140d",
            "490c0e059514a5f2846877796baf02b2c96395824b2e156b310dfd36d52cf682",
        ]),
    ], ids=["dense54", "sparse27_long"])
    def test_full_length_bench_run_bytes(self, w_ts, mu_ts, density,
                                         duration_s, digests):
        # repetition 0 of the benchmark's simulate workloads at their full
        # length: a last-bit change late in a long run shows only here
        config = point_config(RunConfig(), w_ts, mu_ts, density,
                              scenario_seed(1, mu_ts, density, 0)).replace(
                                  duration_s=duration_s)
        result, rows = run_simulation(config)
        assert [hashlib.sha256(text.encode()).hexdigest() for text in
                (result_csv_text(result),
                 protocol_log_csv_text(rows))] == digests


class RecordingRun(SimulationRun):
    """A run that keeps every packet passing each accounting point; the
    overrides are also what ``SourceProtocol`` is handed as ``send``."""

    def __init__(self, *args, **kwargs):
        self.injected, self.delivered, self.dropped = [], [], []
        super().__init__(*args, **kwargs)

    def _inject(self, packet):
        self.injected.append(packet)
        super()._inject(packet)

    def _delivered(self, packet):
        self.delivered.append(packet)
        super()._delivered(packet)

    def _drop(self, packet, cause):
        self.dropped.append(packet)
        super()._drop(packet, cause)


class TestCounterWriters:
    def test_one_writer_per_class_counter(self):
        # the lossy golden run: every class, all five drop causes
        run = RecordingRun(sparse27_config(40.0))
        run.run()
        injected = {id(p) for p in run.injected}
        assert len(injected) == len(run.injected)
        outcomes = [id(p) for p in run.delivered + run.dropped]
        assert len(set(outcomes)) == len(outcomes)
        assert injected.issuperset(outcomes)
        for klass, counters in run.classes.items():
            assert counters.generated == sum(
                p.klass is klass for p in run.injected) > 0, klass
            assert counters.delivered == sum(
                p.klass is klass for p in run.delivered), klass


class TestPacketFieldsRead:
    def test_every_packet_field_is_read_by_a_run(self, monkeypatch):
        # each slot becomes a property that notes its reads: a field no run
        # reads is state to drop, not to carry on every packet
        read = set()
        for f in dataclasses.fields(Packet):
            slot = Packet.__dict__[f.name]

            def get(packet, name=f.name, slot=slot):
                read.add(name)
                return slot.__get__(packet, Packet)

            monkeypatch.setattr(Packet, f.name, property(get, slot.__set__))
        run_simulation(RunConfig().replace(duration_s=20.0))
        unread = {f.name for f in dataclasses.fields(Packet)} - read
        assert not unread, sorted(unread)


class TestFrameFieldsRead:
    def test_every_frame_field_is_read_by_a_run(self, monkeypatch):
        # as for Packet: each field becomes a property that notes its reads
        read = set()
        for name in VideoFrame._fields:
            field = VideoFrame.__dict__[name]

            def get(frame, name=name, field=field):
                read.add(name)
                return field.__get__(frame, VideoFrame)

            monkeypatch.setattr(VideoFrame, name, property(get))
        run_simulation(RunConfig().replace(duration_s=20.0))
        unread = set(VideoFrame._fields) - read
        assert not unread, sorted(unread)


class TestLoadOracle:
    """The MAC load factor from the backlogged nodes alone equals its
    definition on the whole-network snapshot, on every load of a run."""

    def test_dense_run_every_load_equals_snapshot_definition(self):
        config = point_config(RunConfig(), 0.2, 3.0, 200,
                              scenario_seed(1, 3.0, 200, 0)).replace(
                                  duration_s=20.0)
        run = SimulationRun(config)
        assert len(run.node_ids) == 54
        # the oracle's own medium, positions from the scalar definition
        trace = run.trace
        oracle_medium = Medium(
            config.radio,
            lambda n, t: mob.position_at(trace, n, min(t, trace.duration)),
            run.node_ids)
        load = run.mac.neighborhood_load
        seen = {"calls": 0, "others_backlogged": 0, "contended": 0}

        def checked_load(node, t):
            got = load(node, t)
            backlogged = run.mac.backlogged
            assert got == oracle_utils.snapshot_load(
                backlogged, oracle_medium, node, t), f"node {node}, t={t!r}"
            seen["calls"] += 1
            seen["others_backlogged"] += bool(backlogged - {node})
            seen["contended"] += got > 1
            return got

        run.mac.neighborhood_load = checked_load
        run.run()
        # both paths ran: loads with no other node backlogged, and loads
        # whose pair tests found backlogged neighbours
        assert seen["calls"] > 6000
        assert seen["calls"] - seen["others_backlogged"] > 1000
        assert seen["contended"] > 3000


class TestLoadRangeEdge:
    """Pairs at exactly the range, and one float step inward and outward:
    ``Medium.connectivity`` and the load path's pair rule agree on each."""

    R = RadioSpec().tx_range_m

    @staticmethod
    def backlog_both(run):
        for node in (0, 1):
            run.mac.enqueue(node, Packet(
                klass=PacketClass.CBR, size_bytes=1500,
                route=(node, 1 - node), created_at=0.0))

    @staticmethod
    def offsets(dx, dy):
        """(offset, linked): (dx, dy) at the range, then each nonzero
        coordinate one ``nextafter`` step toward 0 (inside) and away from
        it (outside)."""
        out = [((dx, dy), True)]
        for toward, linked in ((0.0, True), (math.inf, False)):
            if dx:
                out.append(((math.nextafter(dx, toward), dy), linked))
            if dy:
                out.append(((dx, math.nextafter(dy, toward)), linked))
        return out

    @pytest.mark.parametrize("far", [(R, 0.0), (0.0, R), (72.0, 96.0)],
                             ids=["x-axis", "y-axis", "3-4-5"])
    def test_load_path_agrees_with_connectivity(self, tmp_path, far):
        config = two_node_config(duration_s=5.0, video=VideoConfig(flows=0))
        for offset, linked in self.offsets(*far):
            run = SimulationRun(oracle_utils.with_inputs(
                tmp_path, config,
                static_trace([(0.0, 0.0), offset], duration=5.0), full_ts(2)))
            adj = run.medium.connectivity(0.0)
            assert adj == ({0: [1], 1: [0]} if linked else {0: [], 1: []}), (
                f"offset {offset!r}")
            self.backlog_both(run)
            for node in (0, 1):
                # t = 0.05 s lies in the bucket that starts at 0
                assert run._neighbors_of(node, 0.05) == adj[node], (
                    f"offset {offset!r}, node {node}")

    def test_imported_static_trace_one_ulp_either_side(self, tmp_path):
        # node 0 at the origin; the others at the range from it, one float
        # step inside or outside, and at two offsets that x * x and x ** 2
        # (libm pow) round to opposite sides of r2; the trace goes through
        # the importer's text format
        points, linked = [(0.0, 0.0)], []
        for far in ((self.R, 0.0), (0.0, self.R), (72.0, 96.0)):
            for offset, verdict in self.offsets(*far):
                points.append(offset)
                linked.append(verdict)
        points += [(10.493151554772574, 119.54034369387004),
                   (57.77210581213665, 105.17786739628869)]
        linked += [False, True]
        text = "\n".join(f"0.0 {x!r} {y!r}" for x, y in points)
        trace = mob.import_trace(text, 520.0, 520.0, duration=5.0)
        config = two_node_config(duration_s=5.0, node_count=len(points),
                                 video=VideoConfig(flows=0))
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(len(points))))
        r2 = config.radio.tx_range_m ** 2

        def product_rule(dx, dy):
            return dx * dx + dy * dy <= r2

        assert [product_rule(x, y) for x, y in points[1:]] == linked
        adj = run.medium.connectivity(0.0)
        for node in range(len(points)):  # every node backlogged
            assert run.mac.enqueue(node, Packet(
                klass=PacketClass.CBR, size_bytes=1500, route=(node, 0),
                created_at=0.0))
        for node, (x, y) in enumerate(points):
            rule = [other for other, (ox, oy) in enumerate(points)
                    if other != node and product_rule(ox - x, oy - y)]
            got = sorted(run._neighbors_of(node, 0.05))
            assert got == rule == adj[node], f"node {node} at {(x, y)!r}"
            usable = [other for other in range(len(points)) if other != node
                      and run.medium.link_state(node, other, 0.0).usable]
            assert usable == rule, f"node {node} at {(x, y)!r}"

    def test_positions_taken_at_the_bucket_start(self, tmp_path):
        # 2 m/s apart each: out of range 0.0125 s into the bucket [0, 0.1)
        trace = MobilityTrace(duration=5.0)
        trace.waypoints[0] = ([0.0, 5.0], [10.0, 0.0], [0.0, 0.0])
        trace.waypoints[1] = ([0.0, 5.0], [self.R + 9.95, self.R + 19.95],
                              [0.0, 0.0])
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path,
            two_node_config(duration_s=5.0, video=VideoConfig(flows=0)),
            trace, full_ts(2)))
        self.backlog_both(run)
        assert not run.medium.link_state(0, 1, 0.05).usable
        assert run._neighbors_of(0, 0.05) == [1]
        assert run._neighbors_of(1, 0.05) == [0]
        assert run._neighbors_of(0, 0.15) == []


class TestDecodableGops:
    """A run's decodable_gop_fraction against the per-packet oracle, from
    every video packet's (GoP, is-I, delivered) recorded around the run.
    The recorder numbers each flow's GoPs itself, by the I frames it sees
    packetized, so the oracle reads no numbering of the run's."""

    @staticmethod
    def record(monkeypatch):
        entries = {}  # id(packet) -> [packet, gop, is_i, delivered]
        gops = collections.Counter()  # flow id -> GoPs opened
        real_packetize = simulation.packetize
        real_delivered = SimulationRun._delivered

        def packetize(frame, *args, flow_id, **kwargs):
            packets = real_packetize(frame, *args, flow_id=flow_id, **kwargs)
            is_i = frame.frame_type == "I"
            gops[flow_id] += is_i
            for packet in packets:  # the entry keeps the packet, and its id
                entries[id(packet)] = [packet, gops[flow_id] - 1, is_i,
                                       False]
            return packets

        def delivered(self, packet):
            if id(packet) in entries:
                entries[id(packet)][3] = True
            real_delivered(self, packet)

        monkeypatch.setattr(simulation, "packetize", packetize)
        monkeypatch.setattr(SimulationRun, "_delivered", delivered)
        return entries

    @staticmethod
    def oracle(entries, flow_id):
        return oracle_utils.decodable_gop_fraction(
            (gop, is_i, delivered)
            for packet, gop, is_i, delivered in entries.values()
            if packet.flow_id == flow_id)

    def test_lossy_27_node_run(self, monkeypatch):
        entries = self.record(monkeypatch)
        result, _ = run_simulation(sparse27_config(40.0))
        assert {e[0].flow_id for e in entries.values()} == {0, 1}
        for flow in result.flows:
            assert 0.12 < flow["decodable_gop_fraction"] < 0.67
            assert flow["decodable_gop_fraction"] == self.oracle(
                entries, flow["flow_id"])

    def test_frame_trace_opens_a_gop_at_each_i_frame(
            self, monkeypatch, tmp_path):
        # 30 frames with I frames at 0 and 17: GoPs of 17 and 13 frames,
        # neither a multiple of the 12-frame pattern
        trace = tmp_path / "frames.txt"
        trace.write_text("".join(
            f"{i} {'I' if i in (0, 17) else 'P' if i % 3 == 0 else 'B'} "
            f"{9000 if i in (0, 17) else 700 + 37 * i}\n"
            for i in range(30)))
        config = sparse27_config(40.0).replace(
            video=VideoConfig(trace=str(trace)))
        entries = self.record(monkeypatch)
        result = run_once_to_dir(config, str(tmp_path / "out"))
        for flow in result.flows:
            assert 0.0 < flow["decodable_gop_fraction"] < 1.0
            assert flow["decodable_gop_fraction"] == self.oracle(
                entries, flow["flow_id"])


class TestMemory:
    def test_retained_heap_bounded_in_run_length(self):
        """What a finished run keeps grows with GoPs and routing iterations,
        not with packets: going from 20 s to 60 s adds about 85 KB here,
        and one record per video packet would add about 285 KB."""
        def retained(duration_s):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run = SimulationRun(sparse27_config(duration_s))
                run.run()
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        run_simulation(sparse27_config(5.0))  # first-run allocations
        assert retained(60.0) - retained(20.0) < 150_000


class TestBeacons:
    def test_beacon_reception_takes_no_channel_draws(self, tmp_path):
        # node 1 at 100 m would be corrupted by a unicast; without flows
        # only beacons go on air
        config = two_node_config(duration_s=10.0,
                                 video=VideoConfig(flows=0))
        trace = static_trace([(0.0, 0.0), (100.0, 0.0)], duration=10.0)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))

        class CountingStream:
            draws = 0

            def random(self):
                self.draws += 1
                return 0.5

        run._channel = CountingStream()
        run.run()
        assert run.classes[PacketClass.BEACON].delivered > 0
        assert run._channel.draws == 0

    def test_beacons_are_signaling_class(self, tmp_path):
        config = two_node_config(duration_s=10.0)
        trace = static_trace([(0.0, 0.0), (50.0, 0.0)], duration=10.0)
        run = SimulationRun(oracle_utils.with_inputs(
            tmp_path, config, trace, full_ts(2)))
        run.run()
        beacons = run.classes[PacketClass.BEACON]
        # one a second from 0 and from 0.5 s, none at the end
        assert beacons.generated == 2 * 10


class TestDeterminism:
    def test_same_seed_same_results(self):
        config = RunConfig().replace(duration_s=20.0, node_count=16,
                                     master_seed=11)
        res_a, log_a = run_simulation(config)
        res_b, log_b = run_simulation(config)
        assert res_a == res_b
        assert log_a == log_b

    def test_different_seed_differs(self):
        base = RunConfig().replace(duration_s=20.0, node_count=16)
        res_a, _ = run_simulation(base.replace(master_seed=1))
        res_b, _ = run_simulation(base.replace(master_seed=2))
        assert res_a != res_b
