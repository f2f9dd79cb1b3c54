import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from manetsim.mac import frame_service
from manetsim.mobility import generate_waypoint_trace, position_at
from manetsim.radio import SPEED_OF_LIGHT, Medium, RadioSpec


def static_medium(positions, spec=None):
    return Medium(spec or RadioSpec(), lambda node, t: positions[node],
                  sorted(positions))


def pairwise_connectivity(spec, position_of, node_ids, t):
    """Reference snapshot: the scalar loop over every pair of nodes."""
    pos = {n: position_of(n, t) for n in node_ids}
    adj = {n: [] for n in node_ids}
    r2 = spec.tx_range_m ** 2
    for i, a in enumerate(node_ids):
        xa, ya = pos[a]
        for b in node_ids[i + 1:]:
            xb, yb = pos[b]
            if (xb - xa) * (xb - xa) + (yb - ya) * (yb - ya) <= r2:
                adj[a].append(b)
                adj[b].append(a)
    return adj


class TestRadioSpec:
    @pytest.mark.parametrize("spec", [
        RadioSpec(), RadioSpec(tx_range_m=250.0, path_loss_exponent=2.7)])
    def test_margin_is_zero_at_range(self, spec):
        assert spec.margin_db(spec.tx_range_m) == 0.0

    def test_margin_gain_when_halving_distance(self):
        # log-distance with exponent 3: 10*3*log10(120/60) dB
        spec = RadioSpec()
        gain = spec.margin_db(60.0) - spec.margin_db(120.0)
        assert gain == pytest.approx(30.0 * math.log10(2.0), abs=1e-9)
        assert gain == pytest.approx(9.0309, abs=1e-3)

    def test_margin_decreasing_in_distance(self):
        spec = RadioSpec()
        margins = [spec.margin_db(d) for d in (10, 30, 60, 90, 119, 120)]
        assert margins == sorted(margins, reverse=True)

    def test_corruption_zero_at_the_span(self):
        spec = RadioSpec()
        assert spec.corruption_probability(spec.corruption_span_db) == 0.0

    def test_corruption_peaks_at_zero_margin(self):
        spec = RadioSpec()
        assert spec.corruption_probability(0.0) == spec.max_corruption_prob

    @given(st.floats(min_value=-40, max_value=70),
           st.floats(min_value=0, max_value=80))
    @settings(max_examples=200, deadline=None)
    def test_corruption_monotone_nonincreasing(self, margin, bump):
        spec = RadioSpec()
        assert spec.corruption_probability(margin + bump) <= \
            spec.corruption_probability(margin) + 1e-15


class TestLinkState:
    def test_boundary_inclusive(self):
        medium = static_medium({0: (0.0, 0.0), 1: (120.0, 0.0)})
        assert medium.link_state(0, 1, 0.0).usable is True

    def test_just_outside(self):
        medium = static_medium({0: (0.0, 0.0), 1: (121.0, 0.0)})
        assert medium.link_state(0, 1, 0.0).usable is False

    @pytest.mark.parametrize("a, b, linked", [
        ((397.947453749145, 309.31468317518636),
         (324.9179523818797, 214.09550480208446), True),
        ((366.15740655496506, 324.0581318338633),
         (484.14227443583013, 302.15902337861297), False),
    ])
    def test_usable_agrees_with_connectivity_at_the_edge(self, a, b, linked):
        # hypot(dx, dy) <= range and dx * dx + dy * dy <= range ** 2 round
        # differently at these pairs, one ulp from the range
        medium = static_medium({0: a, 1: b})
        assert (medium.connectivity(0.0)[0] == [1]) is linked
        assert medium.link_state(0, 1, 0.0).usable is linked
        assert medium.link_state(1, 0, 0.0).usable is linked

    def test_self_link_rejected(self):
        medium = static_medium({0: (0.0, 0.0), 1: (50.0, 0.0)})
        with pytest.raises(ValueError):
            medium.link_state(0, 0, 0.0)


class TestNeighborSet:
    def test_isolated_node(self):
        medium = static_medium({0: (0.0, 0.0), 1: (500.0, 0.0),
                                2: (500.0, 500.0)})
        assert medium.connectivity(0.0)[0] == []

    def test_three_nodes_on_a_line(self):
        medium = static_medium({0: (0.0, 0.0), 1: (100.0, 0.0),
                                2: (200.0, 0.0)})
        adj = medium.connectivity(0.0)
        assert adj[1] == [0, 2]
        assert adj[0] == [1]
        assert adj[2] == [1]

    def test_symmetry_on_random_topology(self):
        rng = random.Random(4)
        positions = {n: (rng.uniform(0, 520), rng.uniform(0, 520))
                     for n in range(20)}
        medium = static_medium(positions)
        adj = medium.connectivity(0.0)
        for a in range(20):
            for b in adj[a]:
                assert a in adj[b]


def air_time(spec, size_bytes, load):
    """A frame's air time at ``load`` by the MAC's law."""
    return frame_service(size_bytes, load, 0.0, spec.nominal_bitrate_bps)[2]


class TestTransmit:
    def test_unusable_link_drops_with_cause(self):
        medium = static_medium({0: (0.0, 0.0), 1: (200.0, 0.0)})
        link = medium.link_state(0, 1, 0.0)
        outcome = medium.transmit(link, air_time(medium.spec, 1500, 1),
                                  random.Random(1))
        assert outcome.cause == "link-break"

    def test_delivery_delay_includes_transmission(self):
        medium = static_medium({0: (0.0, 0.0), 1: (20.0, 0.0)})
        link = medium.link_state(0, 1, 0.0)
        air = air_time(medium.spec, 1500, 1)
        outcome = medium.transmit(link, air, random.Random(1))
        assert outcome.cause is None
        assert outcome.delay_s >= air > 0

    def test_corruption_rate_matches_curve(self):
        # at exactly the range (margin 0) the corruption probability is
        # the maximum
        spec = RadioSpec(max_corruption_prob=0.2)
        medium = static_medium({0: (0.0, 0.0), 1: (120.0, 0.0)}, spec)
        link = medium.link_state(0, 1, 0.0)
        air = air_time(spec, 100, 1)
        rng = random.Random(17)
        n = 20_000
        corrupted = sum(
            medium.transmit(link, air, rng).cause == "corruption"
            for _ in range(n))
        assert corrupted / n == pytest.approx(0.2, abs=0.01)

    def test_close_link_never_corrupts(self):
        medium = static_medium({0: (0.0, 0.0), 1: (10.0, 0.0)})
        link = medium.link_state(0, 1, 0.0)
        air = air_time(medium.spec, 100, 1)
        rng = random.Random(3)
        assert all(medium.transmit(link, air, rng).cause is None
                   for _ in range(2000))


class FixedDraw:
    """A channel stream whose every draw is ``value``; counts the draws."""

    def __init__(self, value):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


HOP_SPECS = [RadioSpec(),
             RadioSpec(tx_range_m=250.0, path_loss_exponent=2.7,
                       nominal_bitrate_bps=2e6, max_corruption_prob=0.3,
                       corruption_span_db=7.5)]
# each spec with 0, 0.5 m, the 1 m reference, a mid distance, and its
# range with one ulp either side
HOP_CASES = [(spec, dist) for spec in HOP_SPECS for dist in (
    0.0, 0.5, 1.0, 37.25, math.nextafter(spec.tx_range_m, 0.0),
    spec.tx_range_m, math.nextafter(spec.tx_range_m, math.inf))]
HOP_LOADS = [0, 0.5, 1, 11]


class TestFusedHopOracle:
    """``link_state`` and ``transmit`` against the RadioSpec definitions
    they inline, ``transmit`` with a frame's air time at a load: equal bit
    for bit, not approximately."""

    @pytest.mark.parametrize("spec,dist", HOP_CASES)
    def test_link_state_margin_and_usable(self, spec, dist):
        link = static_medium({0: (0.0, 0.0), 1: (dist, 0.0)},
                             spec).link_state(0, 1, 0.0)
        assert (link.node_a, link.node_b) == (0, 1)
        assert link.distance_m == dist
        assert link.margin_db == spec.margin_db(dist)
        assert link.usable is (dist <= spec.tx_range_m)

    @pytest.mark.parametrize("load", HOP_LOADS)
    @pytest.mark.parametrize("spec,dist", HOP_CASES)
    def test_transmit_delay_and_corruption_probability(self, spec, dist,
                                                       load):
        medium = static_medium({0: (0.0, 0.0), 1: (dist, 0.0)}, spec)
        link = medium.link_state(0, 1, 0.0)
        air = air_time(spec, 1500, load)
        if not link.usable:
            rng = FixedDraw(0.0)
            outcome = medium.transmit(link, air, rng)
            assert outcome == (0.0, "link-break")
            assert rng.draws == 0
            return
        delay = air + dist / SPEED_OF_LIGHT
        p = spec.corruption_probability(spec.margin_db(dist))
        # corrupted exactly when the draw falls below p
        at_p = FixedDraw(p)
        assert medium.transmit(link, air, at_p) == (delay, None)
        assert at_p.draws == (1 if p > 0.0 else 0)
        if p > 0.0:
            below = medium.transmit(link, air,
                                    FixedDraw(math.nextafter(p, 0.0)))
            assert below == (delay, "corruption")

    @given(st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=60.0),
           st.integers(min_value=1, max_value=3000))
    @settings(max_examples=300, deadline=None)
    def test_random_hops_match_definitions(self, dist, load, size):
        spec = RadioSpec()
        medium = static_medium({0: (0.0, 0.0), 1: (dist, 0.0)}, spec)
        link = medium.link_state(0, 1, 0.0)
        assert link.margin_db == spec.margin_db(dist)
        if link.usable:
            p = spec.corruption_probability(link.margin_db)
            air = air_time(spec, size, load)
            delay = air + dist / SPEED_OF_LIGHT
            assert medium.transmit(link, air, FixedDraw(p)) == (delay, None)
            if p > 0.0:
                assert medium.transmit(
                    link, air, FixedDraw(math.nextafter(p, 0.0))
                ).cause == "corruption"


class TestConnectivityGraph:
    def test_unit_disk_graph(self):
        rng = random.Random(9)
        positions = {n: (rng.uniform(0, 520), rng.uniform(0, 520))
                     for n in range(15)}
        medium = static_medium(positions)
        adj = medium.connectivity(0.0)
        for a in range(15):
            for b in range(15):
                if a == b:
                    continue
                d = math.dist(positions[a], positions[b])
                assert (b in adj[a]) == (d <= 120.0)

    def test_matches_pairwise_reference_on_random_walks(self):
        spec = RadioSpec()
        rng = random.Random(21)
        trace = generate_waypoint_trace(520.0, 520.0, 54, 2.0, 200.0, rng,
                                        warmup_s=300.0)
        medium = Medium(spec, lambda n, t: position_at(trace, n, t),
                        trace.node_ids)
        times = [0.0, 200.0] + [rng.uniform(0.0, 200.0) for _ in range(150)]
        times += [t for n in range(10) for t in trace.waypoints[n][0]
                  if t <= 200.0]
        for t in times:
            assert medium.connectivity(t) == pairwise_connectivity(
                spec, medium._position_of, trace.node_ids, t), f"t={t!r}"

    @pytest.mark.parametrize("far", [
        (120.0, 0.0),  # exactly at range
        (72.0, 96.0),  # exactly at range, 3-4-5 triangle
        # x * x and x ** 2 (libm pow) round these pairs to opposite sides;
        # the product rule links only the second
        (10.493151554772574, 119.54034369387004),
        (57.77210581213665, 105.17786739628869),
    ])
    def test_range_edge_matches_pairwise_reference(self, far):
        positions = {0: (0.0, 0.0), 1: far, 2: (far[0] / 2, far[1] / 2)}
        medium = static_medium(positions)
        assert medium.connectivity(0.0) == pairwise_connectivity(
            medium.spec, lambda n, t: positions[n], [0, 1, 2], 0.0)

    def test_cache_keeps_one_snapshot(self):
        medium = static_medium({0: (0.0, 0.0), 1: (50.0, 0.0)})
        for t in (0.0, 0.1, 0.2, 0.1):
            medium.connectivity(t)
        assert list(medium._graph_cache) == [0.1]

    def test_adjacency_sorted(self):
        medium = static_medium({0: (0.0, 0.0), 1: (50.0, 0.0),
                                2: (50.0, 50.0)})
        adj = medium.connectivity(0.0)
        for nbrs in adj.values():
            assert nbrs == sorted(nbrs)
