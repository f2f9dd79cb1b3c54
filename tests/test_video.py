import itertools
import random

import pytest

import oracle_utils
from manetsim.config import ConfigError, RunConfig
from manetsim.mac import AccessCategory, category_of
from manetsim.packets import PacketClass
from manetsim.simulation import FlowStats
from manetsim.video import (CbrConfig, VideoConfig, VideoFrame, VideoSource,
                            load_frame_trace, packetize)


def gop_openings(source, frames):
    """The frames, by play order, at which a FlowStats fed the source's
    frames opens a GoP."""
    stats = FlowStats(0, 0, 1)
    rng = random.Random(4)
    opened = []
    for i in range(frames):
        frame = source.next_frame(rng, 0.0)
        gops = len(stats.gop_i_pending)
        stats.count_generated(frame, packetize(frame, 1500))
        if len(stats.gop_i_pending) > gops:
            opened.append(i)
    return opened


class TestGopModel:
    def test_pattern_must_start_with_i(self):
        with pytest.raises(ValueError):
            VideoConfig(pattern="BBI")

    def test_pattern_alphabet(self):
        with pytest.raises(ValueError):
            VideoConfig(pattern="IXB")

    def test_pattern_has_one_i_frame(self):
        # a GoP opens at each I frame, so IBBIBB would be two GoPs, not the
        # one GoP a pattern describes
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

    def test_gop_opens_at_each_pattern_i_frame(self):
        source = VideoSource(VideoConfig())
        assert gop_openings(source, 25) == [0, 12, 24]

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
        return VideoFrame(ftype, size, 0.0)

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
        """Feed an (is_i, delivered) log to a FlowStats, one single-packet
        frame per entry, each I entry opening a GoP; deliveries are
        interleaved with generation at random when rng is given, else all
        follow it."""
        stats = FlowStats(0, 0, 1)
        in_flight = []
        for is_i, delivered in log:
            frame = VideoFrame("I" if is_i else "B", 100, 0.0)
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

    @staticmethod
    def numbered(log):
        """The oracle's (gop_index, is_i, delivered) form of an
        (is_i, delivered) log that opens with an I entry."""
        gops = itertools.accumulate(is_i for is_i, _ in log)
        return [(gop - 1, is_i, delivered)
                for gop, (is_i, delivered) in zip(gops, log)]

    def check(self, log, expect):
        assert self.fraction(log) == expect
        assert (oracle_utils.decodable_gop_fraction(self.numbered(log))
                == expect)

    def test_no_losses(self):
        self.check([(True, True), (False, True), (True, True)], 1.0)

    def test_every_i_frame_lost(self):
        self.check([(True, False), (True, False)], 0.0)

    def test_one_of_two_i_packets_lost(self):
        # one I frame of two packets, then a B frame: a single GoP
        stats = FlowStats(0, 0, 1)
        sent = []
        for frame in (VideoFrame("I", 3000, 0.0), VideoFrame("B", 100, 0.0)):
            sent.append(packetize(frame, 1500))
            stats.count_generated(frame, sent[-1])
        (i_delivered, _i_lost), (b_delivered,) = sent
        stats.count_delivered(i_delivered, 0.0)
        stats.count_delivered(b_delivered, 0.0)
        assert len(stats.gop_i_pending) == 1
        assert stats.decodable_gop_fraction == 0.0
        assert oracle_utils.decodable_gop_fraction(
            [(0, True, True), (0, True, False), (0, False, True)]) == 0.0

    def test_constructed_ratio(self):
        log = []
        for gop in range(10):
            log.append((True, gop >= 3))
            log.append((False, False))  # lost B never matters
        self.check(log, 0.7)

    def test_monotone_in_loss_removal(self):
        log = [(True, False), (True, True)]
        healed = [(True, True), (True, True)]
        assert self.fraction(healed) > self.fraction(log)

    def test_empty_log(self):
        self.check([], 1.0)

    def test_equal_to_oracle_on_random_logs(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            p_i, p_delivered = rng.random(), rng.random()
            # a stream opens with an I frame
            log = [(i == 0 or rng.random() < p_i, rng.random() < p_delivered)
                   for i in range(rng.randint(0, 40))]
            assert (self.fraction(log, rng)
                    == oracle_utils.decodable_gop_fraction(self.numbered(log)))
            if not log:
                seen.add("empty")
            if any(not is_i for is_i, _ in log):
                seen.add("gop-with-b")
            if any(is_i and not delivered for is_i, delivered in log):
                seen.add("lost-i")
        assert seen == {"empty", "gop-with-b", "lost-i"}

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
        with pytest.raises(ConfigError, match="cbr.rate_bps"):
            RunConfig(cbr=CbrConfig(rate_bps=0.0))

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
        assert gop_openings(source, 12) == [0, 3, 5, 8, 10]
