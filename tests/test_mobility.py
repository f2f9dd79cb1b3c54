import math
import random

import pytest

import oracle_utils
from manetsim.config import CbrConfig, RunConfig, VideoConfig
from manetsim.mobility import (MobilityTrace, generate_waypoint_trace,
                               import_trace, position_at)
from manetsim.simulation import SimulationRun

AREA = (520.0, 520.0)
WALK = (*AREA, 27)  # the area and node count of a generated walk


def hand_trace():
    """Single node moving from (0,0) to (100,0) over 10 s."""
    trace = MobilityTrace(duration=10.0)
    trace.waypoints[0] = ([0.0, 10.0], [0.0, 100.0], [0.0, 0.0])
    return trace


class TestGeneration:
    def test_trace_invariants(self):
        rng = random.Random(3)
        trace = generate_waypoint_trace(*WALK, 2.0, 200.0, rng)
        assert len(trace.waypoints) == 27
        # bounds, monotone times, speed cap
        oracle_utils.validate_trace(trace, *AREA, max_speed=2.0)

    def test_zero_duration_gives_initial_positions_only(self):
        trace = generate_waypoint_trace(*WALK, 2.0, 0.0, random.Random(1))
        for times, xs, ys in trace.waypoints.values():
            assert times == [0.0]

    def test_fixed_seed_reproducible(self):
        a = generate_waypoint_trace(*WALK, 2.0, 100.0, random.Random(5))
        b = generate_waypoint_trace(*WALK, 2.0, 100.0, random.Random(5))
        assert a.waypoints == b.waypoints

    def test_speed_positive_required(self):
        with pytest.raises(ValueError):
            generate_waypoint_trace(*WALK, 0.0, 10.0, random.Random(1))

    @pytest.mark.parametrize("width, height, nodes, match", [
        (0.0, 0.0, 2, "area"), (-1.0, 520.0, 2, "area"),
        (520.0, 0.0, 2, "area"), (520.0, 520.0, 0, "nodes"),
    ])
    def test_empty_area_or_population_rejected(self, width, height, nodes,
                                               match):
        # in a zero area every leg is empty and the walk never ends
        with pytest.raises(ValueError, match=match):
            generate_waypoint_trace(width, height, nodes, 2.0, 10.0,
                                    random.Random(1))

    def test_warmup_keeps_bounds_and_duration(self):
        trace = generate_waypoint_trace(*WALK, 2.0, 50.0, random.Random(2),
                                        warmup_s=300.0)
        oracle_utils.validate_trace(trace, *AREA, max_speed=2.0)
        for times, _, _ in trace.waypoints.values():
            assert times[0] == 0.0
            assert times[-1] >= 50.0

    def test_center_concentration_of_warmed_walk(self):
        # warmed random-waypoint positions sit closer to the center than a
        # uniform scatter: uniform mean distance-to-center on a square with
        # side L is L*(sqrt(2)+asinh(1))/6
        rng = random.Random(11)
        trace = generate_waypoint_trace(*WALK, 2.0, 400.0, rng,
                                        warmup_s=300.0)
        cx = cy = 260.0
        samples = []
        for node in trace.node_ids:
            for k in range(100):
                x, y = position_at(trace, node, 4.0 * k)
                samples.append(math.hypot(x - cx, y - cy))
        uniform_mean = 520.0 * (math.sqrt(2.0) + math.asinh(1.0)) / 6.0
        assert sum(samples) / len(samples) < uniform_mean


class TestPositionAt:
    def test_midpoint(self):
        assert position_at(hand_trace(), 0, 5.0) == (50.0, 0.0)

    def test_hand_interpolation(self):
        assert position_at(hand_trace(), 0, 7.0) == (70.0, 0.0)

    def test_exact_waypoint(self):
        assert position_at(hand_trace(), 0, 10.0) == (100.0, 0.0)
        assert position_at(hand_trace(), 0, 0.0) == (0.0, 0.0)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            position_at(hand_trace(), 99, 1.0)

    def test_time_out_of_range(self):
        with pytest.raises(ValueError):
            position_at(hand_trace(), 0, 11.0)
        with pytest.raises(ValueError):
            position_at(hand_trace(), 0, -1.0)

    def test_continuity(self):
        trace = generate_waypoint_trace(*WALK, 2.0, 100.0, random.Random(7))
        for node in (0, 13, 26):
            prev = position_at(trace, node, 0.0)
            for i in range(1, 1000):
                t = i * 0.1
                cur = position_at(trace, node, t)
                step = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
                assert step <= 2.0 * 0.1 + 1e-9
                prev = cur

    def test_velocity_on_segment(self):
        vx, vy = oracle_utils.velocity_at(hand_trace(), 0, 5.0)
        assert (vx, vy) == (10.0, 0.0)


def walk_query_orders(seed):
    """(trace, orders): a random walk with pauses, and its query times in
    ascending, descending and shuffled order.  The times include every
    waypoint up to the duration, the float just below each, and random
    times."""
    rng = random.Random(seed)
    trace = generate_waypoint_trace(520.0, 520.0, 8, 2.0, 200.0, rng,
                                    pause_s=5.0, warmup_s=50.0)
    on_waypoints = [t for times, _, _ in trace.waypoints.values()
                    for t in times if t <= trace.duration]
    ascending = sorted(set(
        [0.0, trace.duration] + on_waypoints
        + [math.nextafter(t, -math.inf) for t in on_waypoints if t > 0.0]
        + [rng.uniform(0.0, trace.duration) for _ in range(300)]))
    shuffled = list(ascending)
    rng.shuffle(shuffled)
    return trace, [ascending, ascending[::-1], shuffled]


def short_trace():
    """Waypoints that start after 0 or end before the duration, and a
    segment starting at -0.0, which only the exact-waypoint rule returns
    as -0.0 (-0.0 + 0.0 * dx is 0.0)."""
    trace = MobilityTrace(duration=100.0)
    trace.waypoints[0] = ([10.0, 30.0], [0.0, 90.0], [5.0, 7.0])
    trace.waypoints[1] = ([0.0, 20.0, 50.0], [1.0, 2.5, 400.0],
                          [3.0, 3.0, 0.0])
    trace.waypoints[2] = ([0.0], [260.0], [130.0])
    trace.waypoints[3] = ([40.0], [17.0], [19.0])
    trace.waypoints[4] = ([0.0, 20.0, 60.0], [5.0, -0.0, 80.0],
                          [5.0, -0.0, 9.0])
    return trace


SHORT_TRACE_TIMES = [0.0, 5.0, 10.0, 12.5, 20.0, 29.9, 30.0, 40.0, 49.99,
                     50.0, 60.0, 100.0, 49.99, 10.0, 5.0, 30.0, 0.0]


class TestSimulationPositionCursor:
    """SimulationRun._position_of keeps each node's segment between calls;
    it must equal position_at bit for bit in any query order."""

    @staticmethod
    def make_run(tmp_path, trace):
        config = RunConfig(nodes=len(trace.waypoints),
                           duration_s=trace.duration,
                           video=VideoConfig(flows=0), cbr=CbrConfig(flows=0))
        return SimulationRun(oracle_utils.with_inputs(tmp_path, config, trace))

    @staticmethod
    def assert_matches_scalar(run, trace, times):
        for t in times:
            for node in trace.node_ids:
                got = tuple(c.hex() for c in run._position_of(node, t))
                want = tuple(c.hex() for c in position_at(
                    trace, node, min(t, trace.duration)))
                assert got == want, f"node {node}, t={t!r}"

    def test_random_walk_in_order_backward_and_on_waypoints(self, tmp_path):
        trace, orders = walk_query_orders(6)
        run = self.make_run(tmp_path, trace)
        for times in orders:
            self.assert_matches_scalar(run, trace, times)

    def test_before_first_after_last_and_past_the_end(self, tmp_path):
        trace = short_trace()
        run = self.make_run(tmp_path, trace)
        self.assert_matches_scalar(run, trace,
                                   SHORT_TRACE_TIMES + [150.0, 30.0, 1e9])

    def test_negative_time_rejected_like_position_at(self, tmp_path):
        run = self.make_run(tmp_path, short_trace())
        run._position_of(0, 5.0)  # before node 0's first waypoint at 10.0
        with pytest.raises(ValueError):
            run._position_of(0, -1.0)


class TestImport:
    def test_basic_line(self):
        trace = import_trace("0.0 10.0 20.0 50.0 30.0 40.0\n", *AREA)
        assert trace.waypoints[0] == ([0.0, 50.0], [10.0, 30.0], [20.0, 40.0])

    def test_decreasing_times_name_the_line(self):
        text = "0.0 1.0 1.0 5.0 2.0 2.0\n0.0 1.0 1.0 0.0 2.0 2.0\n"
        with pytest.raises(ValueError, match="line 2"):
            import_trace(text, *AREA)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_names_the_line(self, time):
        text = f"# two nodes\n0 10 10 5 20 20\n0 10 10 {time} 20 20 5 30 30\n"
        with pytest.raises(ValueError,
                           match="line 3: waypoint times not finite"):
            import_trace(text, *AREA)

    @pytest.mark.parametrize("time", ["-5", "-5e-324"])
    def test_time_below_zero_names_the_line(self, time):
        # no segment may start before 0, where a run's time starts
        text = f"0 10 10\n{time} 0 0 10 100 0\n"
        with pytest.raises(ValueError, match="line 2: .* at least 0"):
            import_trace(text, *AREA)

    def test_empty_file(self):
        with pytest.raises(ValueError, match="no nodes"):
            import_trace("", *AREA)

    def test_bad_field_count(self):
        with pytest.raises(ValueError, match="line 1"):
            import_trace("0.0 1.0\n", *AREA)

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="line 1"):
            import_trace("0.0 x 2.0\n", *AREA)

    def test_out_of_area(self):
        with pytest.raises(ValueError, match="outside"):
            import_trace("0.0 600.0 20.0\n", *AREA)

    def test_node_count_matches_lines(self):
        text = "0.0 10.0 20.0\n0.0 30.0 40.0\n0.0 50.0 60.0\n"
        trace = import_trace(text, *AREA)
        assert trace.node_ids == [0, 1, 2]
