import random

import pytest

import oracle_utils
from manetsim.mac import AccessCategory, category_of
from manetsim.packets import PacketClass
from manetsim.simulation import FlowStats
from manetsim.video import (CbrConfig, VideoConfig, VideoFrame, VideoSource,
                            load_frame_trace, packetize)


class TestGopModel:
    def test_pattern_must_start_with_i(self):
        with pytest.raises(ValueError):
            VideoConfig(pattern="BBI")

    def test_pattern_alphabet(self):
        with pytest.raises(ValueError):
            VideoConfig(pattern="IXB")

    def test_pattern_has_one_i_frame(self):
        # a frame trace opens a GoP at each I frame, so generated GoPs of
        # IBBIBB would count half as many GoPs as the same frames replayed
        with pytest.raises(ValueError, match="'IBBIBB' has an I frame"):
            VideoConfig(pattern="IBBIBB")

    def test_mean_sizes_hit_target_rate(self):
        video = VideoConfig()
        means = video.mean_sizes()
        gop_bytes = sum(means[t] for t in video.pattern)
        gop_seconds = len(video.pattern) / video.fps
        assert gop_bytes * 8 / gop_seconds == pytest.approx(150_000, rel=1e-9)

    def test_size_ratio(self):
        means = VideoConfig().mean_sizes()
        assert means["I"] / means["B"] == pytest.approx(5.0)
        assert means["P"] / means["B"] == pytest.approx(2.0)


class TestVideoSource:
    def test_every_twelfth_frame_is_i(self):
        source = VideoSource(VideoConfig())
        rng = random.Random(1)
        types = [source.next_frame(rng, t * 0.04).frame_type
                 for t in range(48)]
        for i, ftype in enumerate(types):
            assert (ftype == "I") == (i % 12 == 0)

    def test_gop_and_frame_indices(self):
        source = VideoSource(VideoConfig())
        rng = random.Random(1)
        frames = [source.next_frame(rng, 0.0) for _ in range(25)]
        assert frames[0].gop_index == 0 and frames[0].frame_index == 0
        assert frames[12].gop_index == 1 and frames[12].frame_index == 0
        assert frames[24].gop_index == 2

    def test_mean_size_ordering(self):
        source = VideoSource(VideoConfig())
        rng = random.Random(2)
        sums = {"I": [0, 0], "P": [0, 0], "B": [0, 0]}
        for _ in range(10_000):
            f = source.next_frame(rng, 0.0)
            sums[f.frame_type][0] += f.size_bytes
            sums[f.frame_type][1] += 1
        mean = {t: s / n for t, (s, n) in sums.items()}
        assert mean["I"] > mean["P"] > mean["B"]

    def test_long_run_bitrate_within_five_percent(self):
        video = VideoConfig()
        source = VideoSource(video)
        rng = random.Random(3)
        n = 24_000
        total_bytes = sum(source.next_frame(rng, 0.0).size_bytes
                          for _ in range(n))
        rate = total_bytes * 8 / (n / video.fps)
        assert rate == pytest.approx(150_000, rel=0.05)

    def test_frame_trace_replay(self):
        source = VideoSource(VideoConfig(), trace=[("I", 900), ("B", 100)])
        rng = random.Random(4)
        a = source.next_frame(rng, 0.0)
        b = source.next_frame(rng, 0.04)
        assert (a.frame_type, a.size_bytes) == ("I", 900)
        assert (b.frame_type, b.size_bytes) == ("B", 100)


class TestPacketize:
    def frame(self, ftype, size):
        from manetsim.video import VideoFrame
        return VideoFrame(0, 0, ftype, size, 0.0)

    def test_two_packet_i_frame(self):
        packets = packetize(self.frame("I", 3000), 1500)
        assert len(packets) == 2
        assert all(p.klass is PacketClass.VIDEO_I for p in packets)
        assert sum(p.size_bytes for p in packets) == 3000

    def test_small_b_frame(self):
        packets = packetize(self.frame("B", 100), 1500)
        assert len(packets) == 1
        assert packets[0].klass is PacketClass.VIDEO_B

    def test_p_frame_maps_to_ac2(self):
        for p in packetize(self.frame("P", 4000), 1500):
            assert category_of(p) is AccessCategory.AC2

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            packetize(self.frame("I", 0), 1500)

    def test_packet_size_cap(self):
        packets = packetize(self.frame("I", 3100), 1500)
        assert [p.size_bytes for p in packets] == [1500, 1500, 100]


class TestGopCounters:
    """FlowStats' per-GoP I-packet counters against the per-packet oracle."""

    @staticmethod
    def fraction(log, rng=None):
        """Feed a (gop_index, is_i, delivered) log to a FlowStats, one
        single-packet frame per entry, GoPs in order; deliveries are
        interleaved with generation at random when rng is given, else all
        follow it."""
        stats = FlowStats(0, 0, 1)
        in_flight = []
        for gop, is_i, delivered in log:
            opens = len(stats.gop_i_pending) == gop
            frame = VideoFrame(gop, 0 if opens else 1, "I" if is_i else "B",
                               100, 0.0)
            packets = packetize(frame, 1500)
            stats.count_generated(frame, packets)
            if delivered:
                in_flight.extend(packets)
            while rng is not None and in_flight and rng.random() < 0.5:
                stats.count_delivered(
                    in_flight.pop(rng.randrange(len(in_flight))), 0.0)
        for packet in in_flight:
            stats.count_delivered(packet, 0.0)
        assert stats.generated == len(log)
        return stats.decodable_gop_fraction

    def check(self, log, expect):
        assert self.fraction(log) == expect
        assert oracle_utils.decodable_gop_fraction(log) == expect

    def test_no_losses(self):
        self.check([(0, True, True), (0, False, True), (1, True, True)], 1.0)

    def test_every_i_frame_lost(self):
        self.check([(0, True, False), (1, True, False)], 0.0)

    def test_one_of_two_i_packets_lost(self):
        self.check([(0, True, True), (0, True, False), (0, False, True)], 0.0)

    def test_gops_without_i_count_as_decodable(self):
        self.check([(0, False, False), (1, True, False), (2, False, True)],
                   2 / 3)

    def test_constructed_ratio(self):
        log = []
        for gop in range(10):
            log.append((gop, True, gop >= 3))
            log.append((gop, False, False))  # lost B never matters
        self.check(log, 0.7)

    def test_monotone_in_loss_removal(self):
        log = [(0, True, False), (1, True, True)]
        healed = [(0, True, True), (1, True, True)]
        assert self.fraction(healed) > self.fraction(log)

    def test_empty_log(self):
        self.check([], 1.0)

    def test_equal_to_oracle_on_random_logs(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            p_i, p_delivered = rng.random(), rng.random()
            log = [(gop, rng.random() < p_i, rng.random() < p_delivered)
                   for gop in range(rng.randint(0, 12))
                   for _ in range(rng.randint(1, 6))]
            assert (self.fraction(log, rng)
                    == oracle_utils.decodable_gop_fraction(log))
            if not log:
                seen.add("empty")
            if {g for g, _, _ in log} - {g for g, is_i, _ in log if is_i}:
                seen.add("gop-without-i")
            if any(is_i and not delivered for _, is_i, delivered in log):
                seen.add("lost-i")
        assert seen == {"empty", "gop-without-i", "lost-i"}

    def test_memory_per_gop_not_per_packet(self):
        stats = FlowStats(0, 0, 1)
        source = VideoSource(VideoConfig())
        rng = random.Random(5)
        for _ in range(10 * len(VideoConfig().pattern)):
            frame = source.next_frame(rng, 0.0)
            stats.count_generated(frame, packetize(frame, 200))
        assert stats.generated > 100
        assert len(stats.gop_i_pending) == 10


class TestCbr:
    def test_fixed_interval(self):
        cbr = CbrConfig(rate_bps=300_000.0, packet_bytes=1500)
        assert cbr.interval == pytest.approx(0.04)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            CbrConfig(rate_bps=0.0)

    def test_class_is_best_effort(self):
        from manetsim.packets import Packet
        p = Packet(klass=PacketClass.CBR, size_bytes=1500, route=(0, 1),
                   created_at=0.0)
        assert category_of(p) is AccessCategory.AC3


class TestFrameTrace:
    def test_parse_and_sort(self):
        frames = load_frame_trace("1, P, 500\n0, I, 2000\n2, B, 300\n")
        assert frames == [("I", 2000), ("P", 500), ("B", 300)]

    def test_bad_type(self):
        with pytest.raises(ValueError, match="line 1"):
            load_frame_trace("0, X, 100\n")

    def test_bad_size(self):
        with pytest.raises(ValueError, match="line 1"):
            load_frame_trace("0, I, 0\n")

    def test_empty(self):
        with pytest.raises(ValueError):
            load_frame_trace("# nothing\n")

    @pytest.mark.parametrize("row", ["1.5, P, 500", "1, P, 5e2", "x, P, 500"])
    def test_non_integer_field_names_the_line(self, row):
        with pytest.raises(ValueError, match="^line 4: expected 'index type "
                                             "size', index and size "
                                             "integers"):
            load_frame_trace(f"# frames\n0, I, 2000\n\n{row}\n")

    def test_repeated_index(self):
        # two "frame 0"s would both play
        with pytest.raises(ValueError, match="line 2: frame index 0 repeats "
                                             "line 1"):
            load_frame_trace("0 I 100\n0 P 50\n1 B 10\n")

    def test_first_frame_must_be_i(self):
        # the lowest index is on line 3
        with pytest.raises(ValueError, match="line 3.*I frame"):
            load_frame_trace("1, I, 500\n2, B, 300\n0, P, 2000\n")

    def test_gop_opens_at_each_traced_i_frame(self):
        source = VideoSource(VideoConfig(), trace=[
            ("I", 900), ("B", 100), ("P", 300), ("I", 800), ("B", 90)])
        rng = random.Random(4)
        frames = [source.next_frame(rng, 0.0) for _ in range(12)]
        assert [(f.gop_index, f.frame_index) for f in frames] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
            (4, 0), (4, 1)]
        assert all((f.frame_index == 0) == (f.frame_type == "I")
                   for f in frames)
