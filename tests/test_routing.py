import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle_utils
from manetsim.routing import (CustomerRequest, PathQualification,
                              discover_paths, meets, mscore, qualify, rank,
                              update_nstate, update_t_routing)


def make_qual(path=(0, 1, 2), **overrides):
    raw = dict(bw_bps=200_000.0, loss=0.1, delay_s=0.5, jitter_s=0.2,
               rm_margin_db=10.0, mm_speed_mps=1.0)
    raw.update({k: v for k, v in overrides.items() if k in raw})
    request = overrides.get("request", CustomerRequest())
    return qualify(path=tuple(path), request=request,
                   max_speed_mps=2.0, **raw)


def qual_with_values(path, values):
    """PathQualification with the seven qualifications pinned directly."""
    q = dict(zip(("q_bw", "q_l", "q_d", "q_j", "q_h", "q_rm", "q_mm"), values))
    return PathQualification(
        path=tuple(path), bw_bps=0.0, loss=0.0, delay_s=0.0,
        jitter_s=0.0, hops=len(path) - 1, **q)


class TestWeights:
    # config.RunConfig checks the range (test_config.py::test_w_ts_range)
    @given(st.sampled_from((0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0))
           | st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=500, deadline=None)
    def test_complement_exact_everywhere(self, w):
        # 1 - w_ts and w_ts sum to exactly 1, so a path perfect on both
        # terms scores exactly 1
        assert (1.0 - w) + w == 1.0
        assert mscore(qual_with_values((0, 1), [1.0] * 7), 4.0, w) == 1.0


class TestQualify:
    def test_reference_scales_are_the_request_bounds(self):
        req = CustomerRequest()
        q = make_qual(bw_bps=req.bw_min_bps, delay_s=req.delay_max_s,
                      jitter_s=req.jitter_max_s, loss=0.0)
        assert q.q_bw == 1.0
        assert q.q_d == 0.0
        assert q.q_j == 0.0
        assert q.q_l == 1.0

    def test_hand_values(self):
        q = make_qual(path=(0, 5), loss=0.1, rm_margin_db=10.0,
                      mm_speed_mps=4.0)
        assert q.q_h == 1.0            # one hop
        assert q.q_l == pytest.approx(0.9)
        assert q.q_rm == pytest.approx(0.5)   # 10 dB of a 20 dB span
        assert q.q_mm == pytest.approx(0.0)   # at twice the max speed

    def test_all_qualifications_bounded(self):
        q = make_qual(bw_bps=9e9, loss=0.99, delay_s=99.0, jitter_s=99.0,
                      rm_margin_db=999.0, mm_speed_mps=99.0)
        for value in q.qualifications:
            assert 0.0 <= value <= 1.0


class TestMeets:
    def test_loss_bound(self):
        req = CustomerRequest(loss_max=0.25)
        assert not meets(make_qual(loss=0.30), req)

    def test_equality_passes(self):
        req = CustomerRequest()
        q = make_qual(bw_bps=req.bw_min_bps, loss=req.loss_max,
                      delay_s=req.delay_max_s, jitter_s=req.jitter_max_s)
        assert meets(q, req)

    @pytest.mark.parametrize("bound", ["bw_bps", "loss", "delay_s",
                                       "jitter_s"])
    def test_each_bound_fails_just_past_it(self, bound):
        req = CustomerRequest()
        at = dict(bw_bps=req.bw_min_bps, loss=req.loss_max,
                  delay_s=req.delay_max_s, jitter_s=req.jitter_max_s)
        at[bound] = math.nextafter(
            at[bound], -math.inf if bound == "bw_bps" else math.inf)
        assert not meets(make_qual(**at), req)


class TestMscore:
    def test_perfect_path(self):
        q = qual_with_values((0, 1), [1.0] * 7)
        for w in (0.0, 0.3, 1.0):
            assert mscore(q, 4.0, w) == pytest.approx(1.0)

    def test_ts_ignored_at_zero_weight(self):
        q = qual_with_values((0, 1), [0.5] * 7)
        assert mscore(q, 0.0, 0.0) == mscore(q, 4.0, 0.0)

    def test_equal_effective_weights_at_one_eighth(self):
        # at w_ts = 0.125 a bump in one qualification moves the score by
        # exactly as much as the same bump in the rescaled tie strength
        w = 0.125
        base = qual_with_values((0, 1), [0.5] * 7)
        bumped = qual_with_values((0, 1), [0.5] * 6 + [0.5 + 0.07])
        d_quals = mscore(bumped, 2.0, w) - mscore(base, 2.0, w)
        d_ts = mscore(base, 2.0 + 0.07 * 4.0, w) - mscore(base, 2.0, w)
        assert d_quals == pytest.approx(d_ts, abs=1e-12)
        assert d_quals == pytest.approx(0.125 * 0.07, abs=1e-12)
        assert (1.0 - w) / 7 == pytest.approx(0.125)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.0, max_value=3.9),
           st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_ts(self, w_ts, ts, bump):
        q = qual_with_values((0, 1), [0.5] * 7)
        assert (mscore(q, min(4.0, ts + bump), w_ts)
                >= mscore(q, ts, w_ts) - 1e-15)

    @given(st.floats(min_value=0.0, max_value=0.99),
           st.integers(min_value=0, max_value=6),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_any_qualification(self, w_ts, idx, bump):
        values = [0.4] * 7
        q = qual_with_values((0, 1), values)
        values[idx] = min(1.0, values[idx] + bump)
        q2 = qual_with_values((0, 1), values)
        assert mscore(q2, 2.0, w_ts) >= mscore(q, 2.0, w_ts) - 1e-15


class TestRank:
    def test_single_candidate(self):
        q = make_qual(path=(0, 1))
        ranked = rank([(q, 2.0)], CustomerRequest(), 0.5)
        assert ranked[0].qual.path == (0, 1)

    def test_tie_breaks_on_fewer_hops(self):
        short = qual_with_values((0, 3), [0.5] * 7)
        long = qual_with_values((0, 1, 3), [0.5] * 7)
        ranked = rank([(long, 2.0), (short, 2.0)], CustomerRequest(), 0.0)
        assert [r.qual.path for r in ranked] == [(0, 3), (0, 1, 3)]

    def test_tie_breaks_lexicographically(self):
        a = qual_with_values((0, 1, 3), [0.5] * 7)
        b = qual_with_values((0, 2, 3), [0.5] * 7)
        ranked = rank([(b, 2.0), (a, 2.0)], CustomerRequest(), 0.0)
        assert [r.qual.path for r in ranked] == [(0, 1, 3), (0, 2, 3)]

    def test_empty_gives_empty(self):
        assert rank([], CustomerRequest(), 0.0) == []

    @given(st.lists(st.tuples(
        st.sampled_from([(0, 9), (0, 1, 9), (0, 2, 9), (0, 1, 2, 9),
                         (0, 2, 1, 9), (0, 3, 1, 9), (0, 1, 3, 2, 9)]),
        st.sampled_from([100_000.0, 150_000.0, 300_000.0]),
        st.sampled_from([0.0, 0.25, 0.5]),
        st.sampled_from([0.5, 2.0, 2.5]),
        st.sampled_from([0.0, 1.0, 1.2]),
        st.sampled_from([0.0, 4.0]),
        st.sampled_from([0.0, 1.0, 2.5, 4.0])),
        max_size=7, unique_by=lambda c: c[0]),
        st.sampled_from([0.0, 0.125, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_step_rule(self, drawn, w_ts):
        # few distinct values, so scores tie and the hop and path
        # tie-breaks decide
        req = CustomerRequest()
        candidates = [(make_qual(path=path, bw_bps=bw, loss=loss,
                                 delay_s=delay, jitter_s=jitter,
                                 rm_margin_db=margin), ts)
                      for path, bw, loss, delay, jitter, margin, ts in drawn]
        ranked = rank(candidates, req, w_ts)
        choice = oracle_utils.two_step_choice(candidates, req, w_ts)
        assert (ranked[0][:3] if ranked else None) == choice
        assert sorted(r.qual.path for r in ranked) == sorted(
            q.path for q, _ in candidates)
        flags = [r.meets for r in ranked]
        assert flags == sorted(flags, reverse=True)
        assert sum(flags) == len(oracle_utils.filter_paths(
            [q for q, _ in candidates], req))

    def test_oracle_equivalence_sample(self):
        # the acceptance suite runs the full 200-graph version
        assert all(oracle_utils.run_oracle_trial(seed)[0]
                   for seed in range(40))


class TestDiscovery:
    def line(self, n):
        return {i: sorted(x for x in (i - 1, i + 1) if 0 <= x < n)
                for i in range(n)}

    def test_adjacent_pair(self):
        adj = {0: [1], 1: [0]}
        paths = discover_paths(adj, 0, 1, 10, 10)
        assert paths == [(0, 1)]

    def test_disconnected(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert discover_paths(adj, 0, 3, 10, 10) == []

    def test_two_disjoint_routes_match_brute_force(self):
        # diamond: 0-1-4 and 0-2-4, plus a longer 0-3-2-4 spur
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        paths = discover_paths(adj, 0, 4, 5, 100)
        import networkx as nx
        g = nx.Graph({k: set(v) for k, v in adj.items()})
        expected = {tuple(p) for p in nx.all_simple_paths(g, 0, 4)}
        assert set(paths) == expected
        assert (0, 1, 4) in paths and (0, 2, 4) in paths

    def test_order_by_hops_then_lexicographic(self):
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        paths = discover_paths(adj, 0, 4, 5, 100)
        keys = [(len(p), p) for p in paths]
        assert keys == sorted(keys)

    def test_max_paths_prefix(self):
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        all_paths = discover_paths(adj, 0, 4, 5, 100)
        two = discover_paths(adj, 0, 4, 5, 2)
        assert two == all_paths[:2]

    def test_ttl_bound(self):
        adj = self.line(8)
        assert discover_paths(adj, 0, 7, 6, 10) == []
        assert discover_paths(adj, 0, 7, 7, 10) == [
            tuple(range(8))]

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            discover_paths({0: []}, 0, 0, 10, 10)


class TestSelfConfiguration:
    def test_nstate_extremes(self):
        ones = [qual_with_values((0, 1), [1.0] * 7)]
        zeros = [qual_with_values((0, 1), [0.0] * 7)]
        assert update_nstate(ones) == pytest.approx(1.0)
        assert update_nstate(zeros) == pytest.approx(0.0)

    def test_nstate_hand_mean(self):
        quals = [qual_with_values((0, 1), [0.4] * 7),
                 qual_with_values((0, 2), [0.6] * 7)]
        assert update_nstate(quals) == pytest.approx(0.5)

    def test_nstate_requires_paths(self):
        with pytest.raises(ValueError):
            update_nstate([])

    def test_t_routing_line(self):
        assert update_t_routing(0.0) == pytest.approx(3.0)
        assert update_t_routing(1.0) == pytest.approx(13.0)
        assert update_t_routing(0.5) == pytest.approx(8.0)

    def test_t_routing_range(self):
        with pytest.raises(ValueError):
            update_t_routing(1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_t_routing_always_in_band(self, nstate):
        assert 3.0 <= update_t_routing(nstate) <= 13.0


class TestRankingInvarianceAtZeroWeight:
    def test_ts_matrix_never_changes_argmax(self):
        rng = random.Random(77)
        w_ts = 0.0
        request = CustomerRequest()
        for trial in range(30):
            adj, src, dst = oracle_utils.random_connected_graph(rng)
            n = len(adj)
            m1 = oracle_utils.generate_ts_matrix(n, 2.0, 1.0, rng)
            m2 = oracle_utils.generate_ts_matrix(n, 3.0, 1.0, rng)
            a, _ = oracle_utils.pipeline_best(adj, src, dst, trial, m1,
                                              w_ts, request)
            b, _ = oracle_utils.pipeline_best(adj, src, dst, trial, m2,
                                              w_ts, request)
            assert a == b
