import random

import pytest

from manetsim.mac import (AccessCategory, MacLayer, PRIORITY_MAP, category_of,
                          frame_service)
from manetsim.packets import Packet, PacketClass


def packet(klass, created_at=0.0):
    return Packet(klass=klass, size_bytes=100, route=(0, 1),
                  created_at=created_at)


class TestPriorityMap:
    def test_video_frame_classes(self):
        assert PRIORITY_MAP[PacketClass.VIDEO_I] is AccessCategory.AC1
        assert PRIORITY_MAP[PacketClass.VIDEO_P] is AccessCategory.AC2
        assert PRIORITY_MAP[PacketClass.VIDEO_B] is AccessCategory.AC3

    def test_signaling_is_ac0(self):
        assert PRIORITY_MAP[PacketClass.BEACON] is AccessCategory.AC0
        assert PRIORITY_MAP[PacketClass.PROBE] is AccessCategory.AC0
        assert PRIORITY_MAP[PacketClass.PROBE_REPLY] is AccessCategory.AC0

    def test_best_effort_is_ac3(self):
        assert PRIORITY_MAP[PacketClass.CBR] is AccessCategory.AC3

    def test_every_class_mapped(self):
        assert set(PRIORITY_MAP) == set(PacketClass)


class TestNodeQueues:
    """One node's four queues, through ``MacLayer.enqueue``/``dequeue_next``."""

    def test_enqueue_to_mapped_queue(self):
        mac = MacLayer([0])
        mac.enqueue(0, packet(PacketClass.VIDEO_I))
        assert len(mac.nodes[0].queues[AccessCategory.AC1]) == 1

    def test_capacity_fifty_then_overflow(self):
        mac = MacLayer([0])
        for _ in range(50):
            assert mac.enqueue(0, packet(PacketClass.CBR)) is True
        assert mac.enqueue(0, packet(PacketClass.CBR)) is False  # the 51st

    def test_overflow_is_per_category(self):
        mac = MacLayer([0])
        for _ in range(50):
            mac.enqueue(0, packet(PacketClass.CBR))
        assert mac.enqueue(0, packet(PacketClass.VIDEO_I)) is True

    def test_overflow_is_per_node(self):
        mac = MacLayer([0, 1], capacity=2)
        for _ in range(2):
            mac.enqueue(0, packet(PacketClass.CBR))
        assert mac.enqueue(0, packet(PacketClass.CBR)) is False
        assert mac.enqueue(1, packet(PacketClass.CBR)) is True

    def test_strict_priority(self):
        mac = MacLayer([0])
        mac.enqueue(0, packet(PacketClass.VIDEO_B))
        mac.enqueue(0, packet(PacketClass.VIDEO_I))
        assert mac.dequeue_next(0).klass is PacketClass.VIDEO_I
        assert mac.dequeue_next(0).klass is PacketClass.VIDEO_B

    def test_empty_returns_none(self):
        assert MacLayer([0]).dequeue_next(0) is None

    def test_only_low_priority_served(self):
        mac = MacLayer([0])
        mac.enqueue(0, packet(PacketClass.VIDEO_B))
        assert mac.dequeue_next(0).klass is PacketClass.VIDEO_B

    def test_fifo_within_queue(self):
        mac = MacLayer([0])
        for i in range(5):
            mac.enqueue(0, packet(PacketClass.CBR, created_at=float(i)))
        assert [mac.dequeue_next(0).created_at
                for _ in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_every_class_reaches_its_category(self):
        mac = MacLayer([0])
        for klass in PacketClass:
            mac.enqueue(0, packet(klass))
        for ac in AccessCategory:
            assert [p.klass for p in mac.nodes[0].queues[ac]] == [
                k for k in PacketClass if PRIORITY_MAP[k] is ac]
            assert all(category_of(p) is ac
                       for p in mac.nodes[0].queues[ac])


class TestNeighborhoodLoad:
    def make_layer(self, neighbors):
        # the provider returns the backlogged ones among the neighbours
        mac = MacLayer([0, 1, 2, 3], neighbor_provider=lambda n, t: [
            m for m in neighbors if m in mac.backlogged])
        return mac

    def test_idle_neighborhood(self):
        mac = self.make_layer([1, 2, 3])
        assert mac.neighborhood_load(0, 0.0) == 1

    def test_three_backlogged_neighbors(self):
        mac = self.make_layer([1, 2, 3])
        for node in (1, 2, 3):
            mac.enqueue(node, packet(PacketClass.CBR))
        assert mac.neighborhood_load(0, 0.0) == 4

    def test_own_backlog_does_not_count(self):
        mac = self.make_layer([1])
        mac.enqueue(0, packet(PacketClass.CBR))
        assert mac.neighborhood_load(0, 0.0) == 1

    def test_without_provider_load_is_one(self):
        mac = MacLayer([0])
        assert mac.neighborhood_load(0, 0.0) == 1

    def test_matches_queue_scan_through_churn(self):
        # enqueues, overflow rejections and dequeues that empty a node
        nodes = list(range(6))
        mac = MacLayer(nodes, capacity=2, neighbor_provider=lambda n, t: [
            m for m in nodes if m != n and m in mac.backlogged])
        rng = random.Random(5)
        rejected = emptied = 0
        for _ in range(2000):
            node = rng.choice(nodes)
            if rng.random() < 0.5:
                klass = rng.choice([PacketClass.BEACON, PacketClass.CBR])
                rejected += not mac.enqueue(node, packet(klass))
            elif mac.dequeue_next(node) is not None:
                emptied += not any(mac.nodes[node].queues)
            for n in nodes:
                scan = 1 + sum(any(mac.nodes[m].queues)
                               for m in nodes if m != n)
                assert mac.neighborhood_load(n, 0.0) == scan
        assert rejected > 0 and emptied > 0


class TestFrameService:
    """The load-factor law: access delay, shared rate and air time."""

    def test_air_time_of_full_packet(self):
        # 1500 bytes at 11 Mbps, no contention
        _, rate, air = frame_service(1500, 1, 0.006, 11e6)
        assert rate == 11e6
        assert air == pytest.approx(1500 * 8 / 11e6)
        assert air == pytest.approx(1.0909e-3, rel=1e-3)

    def test_load_factor_halves_effective_rate(self):
        _, rate, air = frame_service(1500, 2, 0.006, 11e6)
        _, rate_1, air_1 = frame_service(1500, 1, 0.006, 11e6)
        assert rate == rate_1 / 2
        assert air == pytest.approx(2.0 * air_1)

    def test_sub_unity_load_does_not_speed_up(self):
        assert frame_service(1500, 0.25, 0.006, 11e6)[1:] == \
            frame_service(1500, 1, 0.006, 11e6)[1:]

    @pytest.mark.parametrize("load", [1, 2, 5, 11])
    def test_access_delay_scales_with_load(self, load):
        assert frame_service(1500, load, 0.006, 11e6)[0] == 0.006 * load


class TestDifferentiationUnderSaturation:
    def test_drop_ordering_with_mixed_offered_load(self):
        # one queue set, equal offered packets per class, service far below
        # the offered rate: lower categories must lose no more than higher
        mac = MacLayer([0])
        drops = {c: 0 for c in ("I", "P", "B")}
        offered = {c: 0 for c in ("I", "P", "B")}
        served = 0
        for round_idx in range(200):
            for name, klass in (("I", PacketClass.VIDEO_I),
                                ("P", PacketClass.VIDEO_P),
                                ("B", PacketClass.VIDEO_B)):
                offered[name] += 1
                if not mac.enqueue(0, packet(klass)):
                    drops[name] += 1
            if round_idx % 2 == 0:  # serve 1 of every 6 offered
                if mac.dequeue_next(0) is not None:
                    served += 1
        rate = {c: drops[c] / offered[c] for c in drops}
        assert rate["I"] <= rate["P"] <= rate["B"]
        assert rate["B"] > 0
