import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle_utils
from manetsim.routing import (CustomerRequest, DiscoveryLimits,
                              PathQualification, ScoringWeights,
                              discover_paths, filter_paths, mscore, qualify,
                              select_best, update_nstate, update_t_routing)


def make_qual(path=(0, 1, 2), **overrides):
    raw = dict(bw_bps=200_000.0, loss=0.1, delay_s=0.5, jitter_s=0.2,
               rm_margin_db=10.0, mm_speed_mps=1.0)
    raw.update({k: v for k, v in overrides.items() if k in raw})
    request = overrides.get("request", CustomerRequest())
    return qualify(path=tuple(path), iteration=0, request=request,
                   max_speed_mps=2.0, **raw)


def qual_with_values(path, values):
    """PathQualification with the seven qualifications pinned directly."""
    q = dict(zip(("q_bw", "q_l", "q_d", "q_j", "q_h", "q_rm", "q_mm"), values))
    return PathQualification(
        path=tuple(path), iteration=0, bw_bps=0.0, loss=0.0, delay_s=0.0,
        jitter_s=0.0, hops=len(path) - 1, rm_margin_db=0.0, mm_speed_mps=0.0,
        **q)


class TestWeights:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ScoringWeights(1.3)
        with pytest.raises(ValueError):
            ScoringWeights(-0.1)

    def test_complement_is_exact_on_grid(self):
        for w in (0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0):
            weights = ScoringWeights(w)
            assert weights.w_qos + weights.w_ts == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=500, deadline=None)
    def test_complement_exact_everywhere(self, w):
        weights = ScoringWeights(w)
        assert weights.w_qos + weights.w_ts == 1.0


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


class TestFilter:
    def test_loss_bound(self):
        req = CustomerRequest(loss_max=0.25)
        kept = filter_paths([make_qual(loss=0.30)], req)
        assert kept == []

    def test_equality_passes(self):
        req = CustomerRequest()
        q = make_qual(bw_bps=req.bw_min_bps, loss=req.loss_max,
                      delay_s=req.delay_max_s, jitter_s=req.jitter_max_s)
        assert filter_paths([q], req) == [q]

    def test_empty_input(self):
        assert filter_paths([], CustomerRequest()) == []

    def test_subset_and_all_bounds(self):
        req = CustomerRequest()
        quals = [make_qual(loss=x / 10.0) for x in range(6)]
        kept = filter_paths(quals, req)
        assert set(kept) <= set(quals)
        for q in kept:
            assert (q.bw_bps >= req.bw_min_bps and q.loss <= req.loss_max
                    and q.delay_s <= req.delay_max_s
                    and q.jitter_s <= req.jitter_max_s)


class TestMscore:
    def test_perfect_path(self):
        q = qual_with_values((0, 1), [1.0] * 7)
        for w in (0.0, 0.3, 1.0):
            assert mscore(q, 4.0, ScoringWeights(w)) == pytest.approx(1.0)

    def test_ts_ignored_at_zero_weight(self):
        q = qual_with_values((0, 1), [0.5] * 7)
        w = ScoringWeights(0.0)
        assert mscore(q, 0.0, w) == mscore(q, 4.0, w)

    def test_equal_effective_weights_at_one_eighth(self):
        # at w_ts = 0.125 a bump in one qualification moves the score by
        # exactly as much as the same bump in the rescaled tie strength
        w = ScoringWeights(0.125)
        base = qual_with_values((0, 1), [0.5] * 7)
        bumped = qual_with_values((0, 1), [0.5] * 6 + [0.5 + 0.07])
        d_quals = mscore(bumped, 2.0, w) - mscore(base, 2.0, w)
        d_ts = mscore(base, 2.0 + 0.07 * 4.0, w) - mscore(base, 2.0, w)
        assert d_quals == pytest.approx(d_ts, abs=1e-12)
        assert d_quals == pytest.approx(0.125 * 0.07, abs=1e-12)
        assert w.w_qos / 7 == pytest.approx(0.125)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.0, max_value=3.9),
           st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_ts(self, w_ts, ts, bump):
        q = qual_with_values((0, 1), [0.5] * 7)
        w = ScoringWeights(w_ts)
        assert mscore(q, min(4.0, ts + bump), w) >= mscore(q, ts, w) - 1e-15

    @given(st.floats(min_value=0.0, max_value=0.99),
           st.integers(min_value=0, max_value=6),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_any_qualification(self, w_ts, idx, bump):
        values = [0.4] * 7
        q = qual_with_values((0, 1), values)
        values[idx] = min(1.0, values[idx] + bump)
        q2 = qual_with_values((0, 1), values)
        w = ScoringWeights(w_ts)
        assert mscore(q2, 2.0, w) >= mscore(q, 2.0, w) - 1e-15


class TestSelect:
    def test_single_candidate(self):
        q = make_qual(path=(0, 1))
        choice = select_best([(q, 2.0)], ScoringWeights(0.5))
        assert choice[0].path == (0, 1)

    def test_tie_breaks_on_fewer_hops(self):
        short = qual_with_values((0, 3), [0.5] * 7)
        long = qual_with_values((0, 1, 3), [0.5] * 7)
        choice = select_best([(long, 2.0), (short, 2.0)], ScoringWeights(0.0))
        assert choice[0].path == (0, 3)

    def test_tie_breaks_lexicographically(self):
        a = qual_with_values((0, 1, 3), [0.5] * 7)
        b = qual_with_values((0, 2, 3), [0.5] * 7)
        choice = select_best([(b, 2.0), (a, 2.0)], ScoringWeights(0.0))
        assert choice[0].path == (0, 1, 3)

    def test_empty_gives_none(self):
        assert select_best([], ScoringWeights(0.0)) is None

    def test_oracle_equivalence_sample(self):
        # the acceptance suite runs the full 200-graph version
        assert all(oracle_utils.run_oracle_trial(seed) for seed in range(40))


class TestDiscovery:
    def line(self, n):
        return {i: sorted(x for x in (i - 1, i + 1) if 0 <= x < n)
                for i in range(n)}

    def test_adjacent_pair(self):
        adj = {0: [1], 1: [0]}
        paths = discover_paths(adj, 0, 1, DiscoveryLimits())
        assert paths == [(0, 1)]

    def test_disconnected(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert discover_paths(adj, 0, 3, DiscoveryLimits()) == []

    def test_two_disjoint_routes_match_brute_force(self):
        # diamond: 0-1-4 and 0-2-4, plus a longer 0-3-2-4 spur
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        paths = discover_paths(adj, 0, 4, DiscoveryLimits(ttl=5, max_paths=100))
        import networkx as nx
        g = nx.Graph({k: set(v) for k, v in adj.items()})
        expected = {tuple(p) for p in nx.all_simple_paths(g, 0, 4)}
        assert set(paths) == expected
        assert (0, 1, 4) in paths and (0, 2, 4) in paths

    def test_order_by_hops_then_lexicographic(self):
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        paths = discover_paths(adj, 0, 4, DiscoveryLimits(ttl=5, max_paths=100))
        keys = [(len(p), p) for p in paths]
        assert keys == sorted(keys)

    def test_max_paths_prefix(self):
        adj = {0: [1, 2, 3], 1: [0, 4], 2: [0, 3, 4], 3: [0, 2], 4: [1, 2]}
        all_paths = discover_paths(adj, 0, 4,
                                   DiscoveryLimits(ttl=5, max_paths=100))
        two = discover_paths(adj, 0, 4, DiscoveryLimits(ttl=5, max_paths=2))
        assert two == all_paths[:2]

    def test_ttl_bound(self):
        adj = self.line(8)
        assert discover_paths(adj, 0, 7, DiscoveryLimits(ttl=6)) == []
        assert discover_paths(adj, 0, 7, DiscoveryLimits(ttl=7)) == [
            tuple(range(8))]

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            discover_paths({0: []}, 0, 0, DiscoveryLimits())


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
        weights = ScoringWeights(0.0)
        request = CustomerRequest()
        for trial in range(30):
            adj, src, dst = oracle_utils.random_connected_graph(rng)
            n = len(adj)
            m1 = oracle_utils.generate_ts_matrix(n, 2.0, 1.0, rng)
            m2 = oracle_utils.generate_ts_matrix(n, 3.0, 1.0, rng)
            a, _ = oracle_utils.pipeline_best(adj, src, dst, trial, m1,
                                              weights, request)
            b, _ = oracle_utils.pipeline_best(adj, src, dst, trial, m2,
                                              weights, request)
            assert a == b
