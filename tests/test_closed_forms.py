"""Closed-form laws of the MAC and radio on static scenarios.

Nodes stand still (an imported one-waypoint trace per node), no video flows
run, and CBR sources saturate their senders.  A sender's radio then never
idles: it serves one frame after another, each taking its service time at
its load factor ``L``, the sender plus its backlogged neighbours,

    S(L) = L * access_delay_s + 8 * bytes * L / nominal_bitrate_bps + d / c,

where the last term, the propagation delay over the hop's d metres, applies
to unicast frames only.  A frame counts as served, delivered or corrupted,
when it goes on air no later than ``duration_s``.  Every expected count
below is computed from the configuration by these formulas; none is fitted
to the simulator.
"""

import math
import re
from collections import Counter
from pathlib import Path

import pytest

from manetsim import simulation
from manetsim.config import load_config
from manetsim.packets import PacketClass
from manetsim.radio import SPEED_OF_LIGHT
from manetsim.simulation import SimulationRun
from oracle_utils import dcf_saturation

DURATION_S = 60.0
HOP_M = 50.0


def run_static(tmp_path, points, cbr_flows, rate_bps, duration_s=DURATION_S,
               min_hops=1):
    """The config, the finished run and its CBR counters, for nodes
    standing at ``points``."""
    trace = tmp_path / "static.trace"
    trace.write_text("".join(f"0.0 {x} {y}\n" for x, y in points))
    config = load_config(
        f"nodes: {len(points)}\nduration_s: {duration_s}\n"
        f"flow_min_hops: {min_hops}\nmobility: {{trace: {trace}}}\n"
        f"video: {{flows: 0}}\n"
        f"cbr: {{flows: {cbr_flows}, rate_bps: {rate_bps}}}\n")
    run = SimulationRun(config)
    return config, run, run.run().class_counters["cbr"]


def served(cbr) -> int:
    return cbr["delivered"] + cbr["drops"]["corruption"]


def service_s(config, size_bytes, load, distance_m=0.0):
    return (load * config.mac.access_delay_s
            + 8.0 * size_bytes * load / config.radio.nominal_bitrate_bps
            + distance_m / SPEED_OF_LIGHT)


def firings(start, period, duration_s):
    """Firings of a periodic source, as the model schedules them: one at
    ``start``, then one each time ``period`` is added to the last, while
    the sum is below ``duration_s``."""
    t, count = start, 0
    while t < duration_s:
        count += 1
        t += period
    return count


def beacons_sent(config, i=0):
    """Beacons the i-th node sends: one per period from its stagger
    offset, ``i / nodes`` of a period."""
    period = config.beacon_period_s
    return firings(period * i / config.nodes, period,
                   config.duration_s)


def cbr_ticks(config):
    """CBR packets one flow sends, one per ``cbr.interval`` from t = 0."""
    return firings(0.0, config.cbr.interval, config.duration_s)


class TestSaturatedHop:
    """One saturated sender 50 m from its receiver.

    With defaults a CBR frame of 1,500 bytes takes S(1) = 6 ms + 1.0909 ms
    + 0.17 us = 7.091 ms, so the hop saturates above 8 * 1500 / S(1) =
    1.69 Mb/s.  The receiver sends only beacons, each of which leaves its
    queue the moment it is queued, so it is never a backlogged neighbour
    and the sender's load stays 1.  Over 60 s the sender's radio is busy
    with its 60 beacons, S_b(1) = 6 ms + 32 * 8 / 11e6 = 6.023 ms each, and
    CBR frames, so it serves (60 - 60 S_b(1)) / S(1) = 8,410.4 frames; the
    last one may or may not go on air before the end, so the count lies
    within one frame of that.  Above saturation it depends on nothing else:
    not on the rate, and so not on how many packets overflow the queue.
    What the run leaves unsent is at most a full queue and the frame on
    air.

    So the queue overflows by what the hop cannot serve.  The flow sends G
    packets, one per tick of ``cbr.interval`` below 60 s; its static link
    never breaks and always has a route, so each packet is served, left at
    the end, or dropped at the full queue:

        queue-overflow = G - served - left,

    with served within one of 8,410.4 and 0 <= left <= queue_capacity + 1.
    At 2 Mb/s, G = 10,000, so the overflow lies in [1,537.6, 1,590.6].  At
    3 Mb/s the clock's sums of 0.004 s stay just below 60 s at the 15,000th
    addition, so G = 15,001, one more than 60 / 0.004.
    """

    POINTS = [(100.0, 100.0), (100.0 + HOP_M, 100.0)]

    @staticmethod
    def frames_served(config, rate_bps):
        """(60 - 60 S_b(1)) / S(1), checked to be below the offered rate."""
        frame = service_s(config, config.cbr.packet_bytes, 1, HOP_M)
        assert rate_bps > 8.0 * config.cbr.packet_bytes / frame
        beacons = service_s(config, config.beacon_bytes, 1)
        return (DURATION_S - beacons_sent(config) * beacons) / frame

    @pytest.mark.parametrize("rate_bps", [2.0e6, 3.0e6])
    def test_frames_served_fill_the_run_less_the_beacons(self, tmp_path,
                                                         rate_bps):
        config, _, cbr = run_static(tmp_path, self.POINTS, 1, rate_bps)
        expected = self.frames_served(config, rate_bps)
        assert expected == pytest.approx(8410.4, abs=0.05)
        assert abs(served(cbr) - expected) <= 1.0
        assert cbr["drops"]["queue-overflow"] > 0  # the sender saturates
        # left at the end: at most a full queue and the frame on air
        assert cbr["drops"]["end-of-run"] <= config.mac.queue_capacity + 1

    @pytest.mark.parametrize("rate_bps", [2.0e6, 3.0e6])
    def test_overflow_is_what_the_hop_cannot_serve(self, tmp_path,
                                                   rate_bps):
        config, _, cbr = run_static(tmp_path, self.POINTS, 1, rate_bps)
        sent = cbr_ticks(config)
        assert cbr["generated"] == sent
        expected = self.frames_served(config, rate_bps)
        most_left = config.mac.queue_capacity + 1
        assert (sent - (expected + 1.0) - most_left
                <= cbr["drops"]["queue-overflow"]
                <= sent - (expected - 1.0))


class TestContention:
    """k saturated senders in mutual range, each one hop from its receiver.

    Nodes on a 50 x 60 m grid are all neighbours, so each sender's load is
    k (itself and the other backlogged senders) and a frame over d metres
    takes S(k) = k (S(1) - HOP_M / c) + d / c.  Each sender serves its 60
    beacons at S_b(k) = k S_b(1) and (60 - 60 S_b(k)) / S(k) CBR frames,
    within one, so k senders serve within k frames of

        sum over senders of (60 - 60 k S_b(1)) / S(k),

    about (60 - 60 k S_b(1)) / S(1): 8,359.5 for k = 2 and 8,308.4 for
    k = 3.  That is the single hop's 8,410 less the other senders'
    beacons: under the load-factor MAC the aggregate saturation throughput
    does not depend on the number of contenders.
    """

    POINTS = [(100.0 + x, 100.0 + y) for y in (0.0, 30.0, 60.0)
              for x in (0.0, HOP_M)]

    @pytest.mark.parametrize("senders", [2, 3])
    def test_senders_serve_the_single_hop_total(self, tmp_path, senders):
        points = self.POINTS[:2 * senders]
        config, run, cbr = run_static(tmp_path, points, senders, 2.0e6)
        pairs = [(s["src"], s["dst"]) for s in run.cbr_state.values()]
        assert len({node for pair in pairs for node in pair}) == 2 * senders
        beacons = service_s(config, config.beacon_bytes, senders)
        expected = 0.0
        for src, dst in pairs:
            (xa, ya), (xb, yb) = points[src], points[dst]
            assert math.hypot(xb - xa, yb - ya) < config.radio.tx_range_m
            expected += ((DURATION_S - beacons_sent(config) * beacons)
                         / service_s(config, config.cbr.packet_bytes,
                                     senders, math.hypot(xb - xa, yb - ya)))
        assert abs(served(cbr) - expected) <= senders


class TestChainBelowSaturation:
    """One CBR flow over a static 4-hop chain, far below saturation.

    Five nodes stand 100 m apart on a line.  Each links only to its
    neighbours (200 m is beyond the 120 m range), so ``flow_min_hops: 4``
    leaves the two ends as the one endpoint pair and 0-1-2-3-4 as the one
    route.  The flow sends a 1,500-byte packet every 0.12 s (100 kb/s),
    and a packet crosses the chain in about 4 S(1) = 28 ms: no queue
    overflows, no link breaks, and only the last packet can still be on
    its way when the run ends.

    Corruption depends only on a hop's SNR.  At 100 m the margin over the
    threshold is 10 n log10(120 / 100) = 2.375 dB, so each hop corrupts a
    frame with p = 0.05 (1 - 2.375 / 20) = 0.04406, each hop with its own
    draw from the channel stream.  A packet that reaches an outcome,
    delivered or corrupted at some hop, is delivered with probability
    q = (1 - p)^4 = 0.8351, so the delivered count of n decided packets is
    Binomial(n, q).  Over 300 s, n is about 2,500 and the normal
    approximation holds; the test accepts within z sqrt(n q (1 - q)) of
    n q, z = 3.2905, the two-sided 99.9% normal quantile: about 61
    packets, or 0.024 of n.  One hop fewer or more moves q by about 0.04,
    and twice the corruption by about 0.14.
    """

    DURATION_S = 300.0
    POINTS = [(10.0 + 100.0 * i, 100.0) for i in range(5)]

    def test_decided_packets_deliver_the_product_of_the_hops(self, tmp_path):
        config, run, cbr = run_static(tmp_path, self.POINTS, 1, 100e3,
                                      duration_s=self.DURATION_S,
                                      min_hops=4)
        state = run.cbr_state[0]
        assert {state["src"], state["dst"]} == {0, 4}
        assert cbr["generated"] == cbr_ticks(config)
        drops = cbr["drops"]
        assert drops["queue-overflow"] == drops["link-break"] == 0
        assert drops["no-route"] == 0
        assert drops["end-of-run"] <= 1
        margin = 10.0 * config.radio.path_loss_exponent * math.log10(
            config.radio.tx_range_m / 100.0)
        p = config.radio.max_corruption_prob * (
            1.0 - margin / config.radio.corruption_span_db)
        assert p == pytest.approx(0.04406, abs=5e-6)
        q = (1.0 - p) ** 4
        decided = served(cbr)
        half_width = 3.2905 * math.sqrt(decided * q * (1.0 - q))
        assert abs(cbr["delivered"] - decided * q) <= half_width


class TestTrafficSources:
    """Every traffic source fires by one rule: at its start time and every
    period after, by repeated addition, and never at or after
    ``duration_s``.  Node i beacons from ``i / nodes`` of a beacon period,
    each video flow sends a frame every ``video.frame_interval`` from
    ``video.start_s``, and each CBR flow looks its route up every
    ``cbr.refresh_s`` and sends a packet every ``cbr.interval``, both from
    t = 0.

    The run lasts 12 beacon periods and 4 route refreshes, so node 0's
    13th beacon and each flow's 5th lookup would fall exactly on the end.
    Beacons and CBR packets are counted as they enter the network
    (``_inject``), frames as they are cut into packets and route lookups
    as they search the graph.
    """

    @pytest.mark.parametrize("video_start_s", [0.5, 12.0])
    def test_each_source_fires_its_count(self, monkeypatch, video_start_s):
        config = load_config(
            "nodes: 10\nduration_s: 12.0\ncbr: {refresh_s: 3.0}\n"
            f"video: {{start_s: {video_start_s}}}\n")
        calls = {"inject": [], "packetize": [], "discover_paths": []}

        def counted(name, wrapped):
            def call(*args, **kwargs):
                calls[name].append(args)
                return wrapped(*args, **kwargs)
            return call

        monkeypatch.setattr(SimulationRun, "_inject", counted(
            "inject", SimulationRun._inject))
        for name in ("packetize", "discover_paths"):
            monkeypatch.setattr(simulation, name, counted(
                name, getattr(simulation, name)))
        run = SimulationRun(config)
        run.run()

        duration = config.duration_s
        assert beacons_sent(config) == 12
        assert firings(0.0, config.cbr.refresh_s, duration) == 4
        packets = [packet for _run, packet in calls["inject"]]
        assert max(p.created_at for p in packets) < duration
        beacons = Counter(p.route[0] for p in packets
                          if p.klass is PacketClass.BEACON)
        assert beacons == {node: beacons_sent(config, i)
                           for i, node in enumerate(run.node_ids)}
        assert (sum(p.klass is PacketClass.CBR for p in packets)
                == config.cbr.flows * cbr_ticks(config))
        assert len(calls["packetize"]) == config.video.flows * firings(
            video_start_s, config.video.frame_interval, duration)
        assert len(calls["discover_paths"]) == config.cbr.flows * firings(
            0.0, config.cbr.refresh_s, duration)


def printed(value: float, cell: str) -> str:
    """``value`` written with as many decimals as ``cell`` has."""
    return f"{value:.{len(cell.partition('.')[2])}f}"


class TestDcfComparison:
    """README's comparison with 802.11 DCF, recomputed: Bianchi's
    saturation throughput for n senders from ``oracle_utils``, and this
    model's per-frame time at load 1, ``access_delay_s + 8 * bytes /
    nominal_bitrate_bps``, from the defaults."""

    def section(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        return readme.split("How this MAC compares with 802.11 DCF", 1)[1]

    def prose(self):
        return " ".join(self.section().split())

    def rows(self):
        return [[cell.strip() for cell in line.strip("|").split("|")]
                for line in self.section().splitlines()
                if re.match(r"\| \d", line)]

    def test_table_is_bianchis_model(self):
        rows = self.rows()
        assert [int(n) for n, *_ in rows] == [1, 2, 3, 5, 10, 20]
        one = dcf_saturation(1)[1]
        for n, p_cell, rate_cell, ratio_cell in rows:
            p, rate = dcf_saturation(int(n))
            assert printed(p, p_cell) == p_cell, n
            assert printed(rate, rate_cell) == rate_cell, n
            assert printed(rate / one, ratio_cell) == ratio_cell, n

    def test_aggregate_range_is_the_tables(self):
        low, high = re.search(r"stays within ([\d.]+)-([\d.]+) of one "
                              r"sender's", self.prose()).groups()
        ratios = [dcf_saturation(int(n))[1] / dcf_saturation(1)[1]
                  for n, *_ in self.rows()]
        assert (printed(min(ratios), low), printed(max(ratios), high)) == (
            low, high)

    def test_per_frame_times(self):
        cells = re.search(
            r"DCF takes ([\d.]+) ms for 1,500 bytes and ([\d.]+) ms for "
            r"64 bytes, against this model's ([\d.]+) and ([\d.]+) ms at "
            r"load 1, of which ([\d.]+) ms is `access_delay_s`",
            self.prose()).groups()
        config = load_config("")
        times = [1e3 / dcf_saturation(1, 1500)[1],
                 1e3 / dcf_saturation(1, 64)[1],
                 1e3 * service_s(config, 1500, 1),
                 1e3 * service_s(config, 64, 1),
                 1e3 * config.mac.access_delay_s]
        assert [printed(t, cell) for t, cell in zip(times, cells)] == list(
            cells)
