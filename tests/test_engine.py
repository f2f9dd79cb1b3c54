import random

import pytest
from hypothesis import given, settings, strategies as st

from manetsim.engine import (STREAMS, EventQueue, SchedulingError, Simulator,
                             add_up, derive_stream_seed)


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


class TestHandlerArguments:
    def test_fifo_among_equal_timestamps_with_arguments(self):
        sim = Simulator()
        log = []
        for label in ("a", "b", "c", "d"):
            sim.schedule(5.0, log.append, label)
        sim.schedule(4.0, log.append, "first")
        sim.run_until(10.0)
        assert log == ["first", "a", "b", "c", "d"]

    def test_arguments_reach_the_handler_unchanged(self):
        sim = Simulator()
        payload, key = {"x": [1, 2]}, (3, (4, 5))
        calls = []
        sim.schedule(1.0, lambda *args: calls.append(args), payload, key, None)
        sim.schedule(2.0, lambda *args: calls.append(args))
        sim.run_until(3.0)
        assert calls == [(payload, key, None), ()]
        assert calls[0][0] is payload and calls[0][1] is key

    def test_bound_method_handler(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.extend, [sim, "x"])
        sim.run_until(1.0)
        assert log == [sim, "x"]

    def test_scheduling_in_past_with_arguments_rejected(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, print, "never")
        assert sim.queue.peek_time() is None

    def test_processed_counts_events_run(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda: None)
        sim.run_until(2.5)
        assert sim.queue.processed == 2
        sim.run_until(10.0)
        assert sim.queue.processed == 4

    def test_processed_counts_events_run_when_a_handler_raises(self):
        sim = Simulator()
        log = []

        def fail():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        sim.schedule(3.0, fail)
        sim.schedule(4.0, log.append, 4)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run_until(10.0)
        assert log == [1, 2]
        assert sim.queue.processed == 3  # the failing event ran too
        assert sim.clock == 3.0
        sim.run_until(10.0)
        assert log == [1, 2, 4]
        assert sim.queue.processed == 4


class TestEventQueue:
    def test_push_pop_in_time_then_insertion_order(self):
        queue = EventQueue()
        queue.push(2.0, print, "late")
        queue.push(1.0, print, "a", "b")
        queue.push(1.0, print)
        assert queue.peek_time() == 1.0
        assert [queue.pop() for _ in range(3)] == [
            (1.0, print, ("a", "b")), (1.0, print, ()),
            (2.0, print, ("late",))]
        assert queue.processed == 3
        assert queue.peek_time() is None


class TestRngStreams:
    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            Simulator(1).rng["nonexistent"]

    def test_streams_independent_of_interleaving(self):
        solo = {}
        for name in ("mobility", "traffic"):
            stream = Simulator(9).rng[name]
            solo[name] = [stream.random() for _ in range(50)]
        rng = Simulator(9).rng
        inter = {"mobility": [], "traffic": []}
        for _ in range(50):
            inter["mobility"].append(rng["mobility"].random())
            inter["traffic"].append(rng["traffic"].random())
        assert inter == solo

    def test_same_seed_same_sequences(self):
        a = Simulator(123).rng
        b = Simulator(123).rng
        for name in STREAMS:
            assert [a[name].random() for _ in range(10)] == \
                   [b[name].random() for _ in range(10)]

    def test_stream_seed_depends_on_name_and_master(self):
        assert derive_stream_seed(1, "mobility") != derive_stream_seed(1, "traffic")
        assert derive_stream_seed(1, "mobility") != derive_stream_seed(2, "mobility")

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_each_stream_is_seeded_from_master_seed_and_name_alone(self, seed):
        # rule 2: a stream's draws depend on (master_seed, name) only, so
        # adding a stream never perturbs the draws of existing ones
        rng = Simulator(seed).rng
        assert set(rng) == set(STREAMS)
        for name in STREAMS:
            alone = random.Random(derive_stream_seed(seed, name))
            assert [rng[name].random() for _ in range(20)] == \
                   [alone.random() for _ in range(20)]


class TestAddUp:
    def test_adds_left_to_right_without_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16, so the plain sum loses the 1.0;
        # a compensated sum, as sum() is from CPython 3.12 on, keeps it
        assert add_up([1e16, 1.0, -1e16]) == 0.0
        assert add_up(iter([1e16, -1e16, 1.0])) == 1.0
