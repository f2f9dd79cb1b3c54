"""Direct tests of the per-flow monitoring driver with a stubbed network:
probe trains, reply aggregation, the ranking of the answered paths, the
one open iteration's probe state, and the hold-last network-state rule."""

import numpy as np
import pytest

from manetsim.config import RunConfig
from manetsim.engine import SchedulingError
from manetsim.packets import PacketClass
from manetsim.routing import SourceProtocol


class Harness:
    """Minimal engine: manual clock, recorded sends, runnable schedule."""

    def __init__(self, adj, n=6, w_ts=0.0):
        self.clock = 0.0
        self.sent = []
        self.pending = []  # (time, action, args)
        ts = np.full((n, n), 3, dtype=np.int64)
        np.fill_diagonal(ts, 0)
        self.ts = ts
        self.protocol = SourceProtocol(
            flow_id=0, src=0, dst=n - 1,
            config=RunConfig().replace(w_ts=w_ts),
            ts_matrix=ts, connectivity=lambda t: adj,
            send=self.sent.append, sim=self)

    def schedule(self, at, action, *args):
        if at < self.clock:
            raise SchedulingError(f"t={at} is before the clock at "
                                  f"{self.clock}")
        self.pending.append((at, action, args))

    def run_pending(self, until):
        while True:
            due = [entry for entry in self.pending if entry[0] <= until]
            if not due:
                break
            due.sort(key=lambda x: x[0])
            t, action, args = entry = due[0]
            self.pending.remove(entry)
            self.clock = max(self.clock, t)
            action(*args)
        self.clock = until


def diamond(n=6):
    # 0 -> {1,2} -> {3,4} -> 5: two disjoint three-hop routes
    return {0: [1, 2], 1: [0, 3], 2: [0, 4], 3: [1, 5], 4: [2, 5],
            5: [3, 4]}


def reply_payload(iteration, path, loss=0.0, delay=0.05, jitter=0.001,
                  bw=300_000.0, margin=15.0, speed=0.5):
    return {"iteration": iteration, "path": path, "bw_bps": bw, "loss": loss,
            "delay_s": delay, "jitter_s": jitter, "rm_margin_db": margin,
            "mm_speed_mps": speed}


class FakeReply:
    def __init__(self, payload):
        self.payload = payload


class TestProbeTrains:
    def test_train_covers_every_discovered_path(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        h.run_pending(until=1.0)  # flush the staggered sends
        probes = [p for p in h.sent if p.klass is PacketClass.PROBE]
        paths = {p.route for p in probes}
        iteration = h.protocol.iterations[0]
        assert paths == set(iteration.discovered)
        spacing = h.protocol.config.pm_spacing_s
        for k, path in enumerate(iteration.discovered):
            train = [p for p in probes if p.route == path]
            # ten send times, the trains interleaved round-robin
            assert sorted(p.created_at for p in train) == pytest.approx(
                [(j * len(paths) + k) * spacing for j in range(10)])

    def test_bootstrap_route_is_first_discovered(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        assert h.protocol.active_route == h.protocol.iterations[0].discovered[0]


class TestDecision:
    def decide(self, h, replies):
        iteration = h.protocol.iterations[-1]
        for path, overrides in replies.items():
            payload = reply_payload(iteration.index, path, **overrides)
            h.protocol.on_probe_reply_at_source(FakeReply(payload))
        h.run_pending(until=iteration.started_at
                      + h.protocol.config.decision_delay_s)
        return iteration

    def test_no_replies_means_no_route_and_hold_last_nstate(self):
        h = Harness(diamond())
        h.protocol.nstate = 0.42
        h.protocol.start_iteration()
        iteration = self.decide(h, {})
        assert iteration.selected is None
        assert h.protocol.active_route is None
        assert iteration.nstate == 0.42  # hold-last
        assert iteration.t_routing == pytest.approx(10 * 0.42 + 3)

    def test_survivor_beats_fallback(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        good, bad = it.discovered[0], it.discovered[1]
        iteration = self.decide(h, {
            good: {"loss": 0.05},
            bad: {"loss": 0.9},   # fails the customer request
        })
        assert [r.qual.path for r in iteration.ranked if r.meets] == [good]
        assert iteration.selected == good

    def test_fallback_to_best_usable_when_filter_empties(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        a, b = it.discovered[0], it.discovered[1]
        iteration = self.decide(h, {
            a: {"loss": 0.9},
            b: {"loss": 0.5},
        })
        assert not any(r.meets for r in iteration.ranked)
        assert iteration.selected == b  # best score among usable paths

    def test_missing_reply_marks_path_unusable(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        answered = it.discovered[1]
        iteration = self.decide(h, {answered: {}})
        assert [r.qual.path for r in iteration.ranked] == [answered]
        assert iteration.selected == answered

    def test_next_iteration_scheduled_at_t_routing(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        self.decide(h, {it.discovered[0]: {}})
        assert len(h.protocol.iterations) == 1
        h.run_pending(until=it.started_at + it.t_routing + 1e-9)
        assert len(h.protocol.iterations) == 2

    def test_late_reply_ignored_after_decision(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        self.decide(h, {})
        h.protocol.on_probe_reply_at_source(
            FakeReply(reply_payload(it.index, it.discovered[0])))
        assert h.protocol._replies == {}

    def test_ts_argmax_at_full_weight(self):
        h = Harness(diamond(), w_ts=1.0)
        # tie strengths favor the 2 -> 4 branch
        h.ts[0, 2] = h.ts[2, 4] = h.ts[4, 5] = 4
        h.ts[0, 1] = h.ts[1, 3] = h.ts[3, 5] = 1
        h.protocol.start_iteration()
        it = h.protocol.iterations[0]
        iteration = self.decide(h, {path: {} for path in it.discovered})
        assert iteration.selected == (0, 2, 4, 5)


class TestCollectors:
    def test_decision_frees_collectors_and_late_probe_gets_no_reply(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        h.run_pending(until=0.5)  # every probe sent, the window still open
        it = h.protocol.iterations[0]
        answered, late = it.discovered[0], it.discovered[1]
        probes = [p for p in h.sent if p.klass is PacketClass.PROBE]
        for probe in probes:
            if probe.route == answered:
                h.protocol.on_probe_at_destination(probe)
        assert list(h.protocol._collectors) == [answered]
        h.run_pending(until=it.started_at
                      + h.protocol.config.decision_delay_s)
        assert h.protocol._collectors == {}
        sent = len(h.sent)
        h.protocol.on_probe_at_destination(
            next(p for p in probes if p.route == late))
        assert h.protocol._collectors == {}
        assert len(h.sent) == sent


class TestOneOpenIteration:
    def test_start_with_an_undecided_iteration_fails(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        with pytest.raises(RuntimeError, match="iteration 0 is still "
                                               "undecided"):
            h.protocol.start_iteration()
        assert len(h.protocol.iterations) == 1

    def test_decided_iterations_probe_and_reply_leave_the_open_one(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        h.run_pending(until=0.5)
        it0 = h.protocol.iterations[0]
        path, other = it0.discovered[0], it0.discovered[1]
        stale_probe = next(p for p in h.sent if p.klass is PacketClass.PROBE
                           and p.route == path)
        TestDecision().decide(h, {path: {}})
        h.run_pending(until=it0.started_at + it0.t_routing + 0.5)
        it1 = h.protocol.iterations[1]
        assert it1.discovered == it0.discovered  # the same paths again
        probe = next(p for p in h.sent if p.klass is PacketClass.PROBE
                     and p.payload["iteration"] == 1 and p.route == path)
        h.protocol.on_probe_at_destination(probe)
        h.protocol.on_probe_reply_at_source(
            FakeReply(reply_payload(it1.index, other)))
        samples = list(h.protocol._collectors[path])
        replies = dict(h.protocol._replies)
        assert len(samples) == 1 and list(replies) == [other]
        sent = len(h.sent)
        h.protocol.on_probe_at_destination(stale_probe)
        h.protocol._emit_reply(it0.index, path)  # the decided window's end
        h.protocol.on_probe_reply_at_source(
            FakeReply(reply_payload(it0.index, path, loss=0.9)))
        assert h.protocol._collectors == {path: samples}
        assert h.protocol._replies == replies
        assert len(h.sent) == sent


class TestExposureAccounting:
    def test_time_weighted_mean_over_decision_intervals(self):
        h = Harness(diamond())
        h.protocol.start_iteration()
        it0 = h.protocol.iterations[0]
        path = it0.discovered[0]
        TestDecision().decide(h, {path: {}})
        # one decision interval from t=2.0 (decision) to finalize at t=10
        h.protocol.finalize(10.0)
        expected_ts = it0.ranked[0].mean_ts
        assert h.protocol.ts_time_mean == pytest.approx(expected_ts)

    @pytest.mark.parametrize("tail", [0.0, 1.5], ids=["end-on-decision",
                                                       "end-after-decision"])
    def test_unselected_interval_is_skipped(self, tail):
        # the 1 -> 3 branch has tie strength 1, the 2 -> 4 branch 4
        h = Harness(diamond())
        h.ts[0, 1] = h.ts[1, 3] = h.ts[3, 5] = 1
        h.ts[0, 2] = h.ts[2, 4] = h.ts[4, 5] = 4
        weak, strong = (0, 1, 3, 5), (0, 2, 4, 5)
        h.protocol.start_iteration()
        for answered in ([weak], [], [strong]):
            it = h.protocol.iterations[-1]
            TestDecision().decide(h, {path: {} for path in answered})
            h.run_pending(until=it.started_at + it.t_routing)
        it0, it1, it2 = h.protocol.iterations[:3]
        assert it0.selected == weak and it2.selected == strong
        assert it1.selected is None
        delay = h.protocol.config.decision_delay_s
        d0, d1, d2 = (it.started_at + delay for it in (it0, it1, it2))
        end = d2 + tail
        h.protocol.finalize(end)
        # weak from d0 to d1, nothing from d1 to d2, strong from d2 to the end
        weight = (d1 - d0) * it0.ranked[0].mean_ts
        time = d1 - d0
        if end > d2:
            weight += (end - d2) * it2.ranked[0].mean_ts
            time += end - d2
        assert h.protocol.ts_time_mean == weight / time
        assert it0.ranked[0].mean_ts == 1.0

    def test_no_decisions_yield_zero(self):
        h = Harness(diamond())
        h.protocol.finalize(10.0)
        assert h.protocol.ts_time_mean == 0.0
