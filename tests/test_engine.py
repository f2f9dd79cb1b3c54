import pytest
from hypothesis import given, settings, strategies as st

from manetsim.engine import (DEFAULT_STREAMS, RngStreams, SchedulingError,
                             Simulator, UnknownStreamError, derive_stream_seed)


def collect(sim, log, label):
    return lambda: log.append((sim.clock, label))


class TestEventOrdering:
    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, collect(sim, log, "beacon"))
        sim.schedule(5.0, collect(sim, log, "beacon2"))
        sim.run_until(10.0)
        assert log == [(5.0, "beacon"), (5.0, "beacon2")]

    def test_timestamp_ordering(self):
        sim = Simulator()
        log = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, collect(sim, log, t))
        sim.run_until(10.0)
        assert [entry[1] for entry in log] == [1.0, 2.0, 3.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, lambda: None)

    def test_empty_run_reaches_end(self):
        sim = Simulator()
        sim.run_until(200.0)
        assert sim.clock == 200.0

    def test_clock_never_backwards(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SchedulingError):
            sim.run_until(4.0)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.clock)
            sim.schedule(sim.clock + 1.0, lambda: log.append(sim.clock))

        sim.schedule(1.0, first)
        sim.run_until(10.0)
        assert log == [1.0, 2.0]

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_execution_times_nondecreasing(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.schedule(t, lambda t=t: seen.append(sim.clock))
        sim.run_until(101.0)
        assert seen == sorted(seen)
        assert len(seen) == len(times)


class TestRngStreams:
    def test_unknown_stream_rejected(self):
        rng = RngStreams(1)
        with pytest.raises(UnknownStreamError):
            rng.stream("nonexistent")

    def test_streams_independent_of_interleaving(self):
        # record solo sequences first
        solo_a = [RngStreams(9).stream("mobility").random() for _ in range(1)]
        solo = {}
        for name in ("mobility", "traffic"):
            rng = RngStreams(9)
            solo[name] = [rng.stream(name).random() for _ in range(50)]
        rng = RngStreams(9)
        inter = {"mobility": [], "traffic": []}
        for i in range(50):
            inter["mobility"].append(rng.stream("mobility").random())
            inter["traffic"].append(rng.stream("traffic").random())
        assert inter == solo
        assert solo["mobility"][0] == solo_a[0]

    def test_same_seed_same_sequences(self):
        a = RngStreams(123)
        b = RngStreams(123)
        for name in DEFAULT_STREAMS:
            assert [a.stream(name).random() for _ in range(10)] == \
                   [b.stream(name).random() for _ in range(10)]

    def test_stream_seed_depends_on_name_and_master(self):
        assert derive_stream_seed(1, "mobility") != derive_stream_seed(1, "traffic")
        assert derive_stream_seed(1, "mobility") != derive_stream_seed(2, "mobility")

    def test_adding_streams_never_perturbs_existing(self):
        base = RngStreams(5, names=("mobility",))
        extended = RngStreams(5, names=("mobility", "extra"))
        assert [base.stream("mobility").random() for _ in range(20)] == \
               [extended.stream("mobility").random() for _ in range(20)]
