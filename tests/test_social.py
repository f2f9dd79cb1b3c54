import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import oracle_utils
from manetsim.social import (ALL_SIGNS, FACEBOOK_SIGNS, TWITTER_SIGNS,
                             NormalizationStats, TieSignLedger, TieSignWeights,
                             decayed_tie_strength, default_sign_weights,
                             dump_ts_matrix, generate_ts_matrix,
                             load_ts_matrix, path_mean_ts,
                             quantize_tie_strength, tie_strength)


class TestSignCatalog:
    def test_catalog_sizes(self):
        assert len(FACEBOOK_SIGNS) == 13
        assert len(TWITTER_SIGNS) == 11

    def test_tag_counts(self):
        fb_direct = [s for s in FACEBOOK_SIGNS if s.direct]
        fb_private = [s for s in FACEBOOK_SIGNS if s.private]
        tw_direct = [s for s in TWITTER_SIGNS if s.direct]
        tw_private = [s for s in TWITTER_SIGNS if s.private]
        assert len(fb_direct) == 4 and len(fb_private) == 5
        assert len(tw_direct) == 4 and len(tw_private) == 3

    def test_names_unique(self):
        names = [s.name for s in ALL_SIGNS]
        assert len(names) == len(set(names))


class TestDefaultWeights:
    def test_sum_to_one(self):
        w = default_sign_weights()
        assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_doubling_rules(self):
        w = default_sign_weights().weights
        # private doubles public at equal directness, direct doubles indirect
        assert w["wall_posts_on_friends_wall"] == pytest.approx(
            2 * w["comments_on_friends_objects"])
        assert w["comments_on_friends_objects"] == pytest.approx(
            2 * w["comments_on_same_objects"])
        assert w["same_private_group"] == pytest.approx(
            2 * w["same_public_group"])

    def test_private_strictly_above_public_enforced(self):
        with pytest.raises(ValueError):
            TieSignWeights({"wall_posts_on_friends_wall": 0.2,
                            "comments_on_friends_objects": 0.8})

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TieSignWeights({"wall_posts_on_friends_wall": 0.5})


class TestNormalize:
    from manetsim.social import normalize  # noqa: keep local alias

    def test_half_at_the_mean(self):
        from manetsim.social import normalize
        assert normalize(2, 2, 10) == pytest.approx(0.5, abs=1e-12)

    def test_one_at_the_maximum(self):
        from manetsim.social import normalize
        assert normalize(10, 2, 10) == pytest.approx(1.0, abs=1e-12)

    def test_zero_below_threshold(self):
        from manetsim.social import normalize
        # threshold is mean^2 / max = 0.4
        assert normalize(0.3, 2, 10) == 0.0
        assert normalize(0.4, 2, 10) == 0.0

    def test_zero_count_is_zero_even_with_degenerate_stats(self):
        from manetsim.social import normalize
        assert normalize(0, 0, 0) == 0.0

    def test_degenerate_population_pins_half(self):
        from manetsim.social import normalize
        assert normalize(3, 3, 3) == 0.5

    @given(st.floats(min_value=0.01, max_value=1e4),
           st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_and_monotone(self, mean, max_over_mean, x_frac):
        from manetsim.social import normalize
        maximum = mean * max_over_mean
        x = x_frac * maximum
        value = normalize(x, mean, maximum)
        assert 0.0 <= value <= 1.0
        assert normalize(min(x * 1.1, maximum), mean, maximum) >= value - 1e-12


class TestTieStrength:
    def ledger_with(self, counts):
        ledger = TieSignLedger()
        for (u, v, sign), count in counts.items():
            ledger.record(u, v, sign, count)
        return ledger

    def test_all_zero_counts(self):
        ledger = self.ledger_with({(0, 1, "same_hashtag"): 0})
        stats = NormalizationStats.from_ledger(ledger)
        assert tie_strength(0, 1, ledger, default_sign_weights(), stats) == 0.0

    def test_all_counts_at_population_max(self):
        ledger = TieSignLedger()
        for sign in ALL_SIGNS:
            ledger.record(0, 1, sign.name, 10)
            ledger.record(1, 0, sign.name, 0)
        stats = NormalizationStats.from_ledger(ledger)
        weights = default_sign_weights()
        assert tie_strength(0, 1, ledger, weights, stats) == pytest.approx(
            1.0, abs=1e-12)

    def test_hand_weighted_sum(self):
        # two active signs with weights 0.7 / 0.3 and f-values 1.0 / 0.5
        weights = TieSignWeights({"wall_posts_on_friends_wall": 0.7,
                                  "comments_on_friends_objects": 0.3})
        ledger = TieSignLedger()
        ledger.record(0, 1, "wall_posts_on_friends_wall", 10)
        ledger.record(0, 1, "comments_on_friends_objects", 2)
        ledger.record(1, 0, "wall_posts_on_friends_wall", 0)
        ledger.record(1, 0, "comments_on_friends_objects", 2)
        stats = NormalizationStats(
            mean={"wall_posts_on_friends_wall": 2.0,
                  "comments_on_friends_objects": 2.0},
            maximum={"wall_posts_on_friends_wall": 10.0,
                     "comments_on_friends_objects": 10.0})
        assert tie_strength(0, 1, ledger, weights, stats) == pytest.approx(
            0.7 * 1.0 + 0.3 * 0.5, abs=1e-12)

    def test_self_tie_is_zero(self):
        ledger = TieSignLedger()
        stats = NormalizationStats.from_ledger(ledger)
        assert tie_strength(3, 3, ledger, default_sign_weights(), stats) == 0.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_bounds_over_random_ledgers(self, seed):
        rng = random.Random(seed)
        ledger = TieSignLedger()
        for u, v in ((0, 1), (1, 0), (0, 2), (2, 1)):
            for sign in ALL_SIGNS:
                if rng.random() < 0.5:
                    ledger.record(u, v, sign.name, rng.randrange(0, 40))
        stats = NormalizationStats.from_ledger(ledger)
        weights = default_sign_weights()
        for u, v in ((0, 1), (1, 0), (0, 2), (2, 1)):
            assert 0.0 <= tie_strength(u, v, ledger, weights, stats) <= 1.0


class TestLedger:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            TieSignLedger().record(1, 1, "same_hashtag", 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TieSignLedger().record(0, 1, "same_hashtag", -1)

    def test_unknown_sign_rejected(self):
        with pytest.raises(KeyError):
            TieSignLedger().record(0, 1, "poking", 1)

    def test_text_import(self):
        text = "0, 1, same_hashtag, 5, 1000.0\n1, 0, common_followers, 2, 900\n"
        ledger = TieSignLedger.from_text(text)
        assert ledger.count(0, 1, "same_hashtag") == 5
        assert ledger.last_update(1, 0, "common_followers") == 900.0

    def test_text_import_reports_row(self):
        with pytest.raises(ValueError, match="line 1"):
            TieSignLedger.from_text("0, 0, same_hashtag, 5, 0\n")

    def test_unknown_sign_reported_at_its_file_line(self):
        # the bad row is the second row, on line 4, and its message is
        # quoted once
        with pytest.raises(ValueError) as excinfo:
            TieSignLedger.from_text(
                "# header\n\n0,1,wall_posts_on_friends_wall,3,0\n"
                "0,1,no_such_sign,1,0\n")
        assert str(excinfo.value) == \
            "line 4: unknown sign type 'no_such_sign'"

    @pytest.mark.parametrize("last", ["-inf", "inf", "nan"])
    def test_non_finite_update_time_rejected(self, last):
        # at zero decay, elapsed = now - (-inf) would make the sum nan
        with pytest.raises(ValueError, match="line 2: .*not finite"):
            TieSignLedger.from_text(
                "0,1,same_hashtag,5,0\n"
                f"0,1,wall_posts_on_friends_wall,3,{last}\n")


class TestDecay:
    def test_zero_elapsed(self):
        assert decayed_tie_strength(0.8, 0.0, 5.0) == 0.8

    def test_zero_rate(self):
        assert decayed_tie_strength(0.8, 1e6, 0.0) == 0.8

    def test_half_life(self):
        assert decayed_tie_strength(0.8, 1.0, math.log(2.0)) == pytest.approx(
            0.4, abs=1e-12)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            decayed_tie_strength(0.5, -1.0, 1.0)

    @given(st.floats(min_value=0, max_value=1e3),
           st.floats(min_value=0, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_and_nonnegative(self, t1, dt):
        base = 0.7
        a = decayed_tie_strength(base, t1, 0.01)
        b = decayed_tie_strength(base, t1 + dt, 0.01)
        assert 0.0 <= b <= a <= base

    def test_per_sign_decay_before_aggregation(self):
        weights = TieSignWeights({"wall_posts_on_friends_wall": 0.7,
                                  "comments_on_friends_objects": 0.3})
        ledger = TieSignLedger()
        ledger.record(0, 1, "wall_posts_on_friends_wall", 10, last_update_s=0.0)
        ledger.record(0, 1, "comments_on_friends_objects", 10,
                      last_update_s=100.0)
        stats = NormalizationStats(
            mean={"wall_posts_on_friends_wall": 2.0,
                  "comments_on_friends_objects": 2.0},
            maximum={"wall_posts_on_friends_wall": 10.0,
                     "comments_on_friends_objects": 10.0})
        rate = math.log(2.0) / 100.0  # half-life of 100 s
        got = tie_strength(0, 1, ledger, weights, stats,
                           now_s=100.0, decay_rate=rate)
        assert got == pytest.approx(0.7 * 1.0 * 0.5 + 0.3 * 1.0, abs=1e-12)


class TestQuantize:
    def test_endpoints(self):
        assert quantize_tie_strength(1.0) == 4
        assert quantize_tie_strength(0.0) == 0

    def test_hand_rounding(self):
        assert quantize_tie_strength(0.49) == 2  # 4 * 0.49 = 1.96

    def test_half_rounds_up(self):
        assert quantize_tie_strength(0.125) == 1  # 4 * 0.125 = 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_tie_strength(1.2)
        with pytest.raises(ValueError):
            quantize_tie_strength(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize_tie_strength(lo) <= quantize_tie_strength(hi)


class TestTsMatrix:
    def test_degenerate_sigma_pins_the_mean(self):
        m = np.array(generate_ts_matrix(5, 4.0, 1e-12, random.Random(1)))
        off = m[~np.eye(5, dtype=bool)]
        assert (off == 4).all()

    def test_diagonal_zero(self):
        m = generate_ts_matrix(27, 3.0, 1.0, random.Random(2))
        assert (np.diag(m) == 0).all()

    def test_entries_in_range(self):
        m = np.array(generate_ts_matrix(27, 1.0, 1.0, random.Random(3)))
        assert m.min() >= 0 and m.max() <= 4

    def test_sample_mean_matches_quadrature_oracle(self):
        oracle = oracle_utils.norm_quantized_mean(1.0, 1.0)
        m = np.array(generate_ts_matrix(27, 1.0, 1.0, random.Random(4)))
        off = m[~np.eye(27, dtype=bool)]
        assert abs(off.mean() - oracle) < 0.15
        assert abs(off.mean() - 1.0) < 0.2

    def test_nonzero_fraction_matches_normal_tail(self):
        # An entry is nonzero when its N(1, 1) draw rounds to at least 1,
        # i.e. the draw is >= 0.5: probability 1 - Phi(-0.5) ~= 0.691.
        n = 100
        m = np.array(generate_ts_matrix(n, 1.0, 1.0, random.Random(8)))
        off = m[~np.eye(n, dtype=bool)]
        p = 1.0 - norm.cdf(-0.5)
        se = math.sqrt(p * (1.0 - p) / off.size)
        assert abs((off > 0).mean() - p) < 4.0 * se

    def test_asymmetry_possible(self):
        m = np.array(generate_ts_matrix(27, 2.0, 1.0, random.Random(5)))
        assert (m != m.T).any()

    def test_file_round_trip(self):
        m = generate_ts_matrix(9, 2.0, 1.0, random.Random(6))
        assert load_ts_matrix(dump_ts_matrix(m)) == m

    def test_load_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            load_ts_matrix("2\n0 1\n")
        with pytest.raises(ValueError):  # a 0 x 0 matrix holds no run
            load_ts_matrix("0\n")
        # each rejection names its file line, comments and blanks counted
        with pytest.raises(ValueError, match="line 3: expected 3 integers, "
                                             "got 1 0 1.5"):
            load_ts_matrix("3\n0 1 1\n1 0 1.5\n1 1 0\n")
        with pytest.raises(ValueError, match="line 5: expected 3 integers"):
            load_ts_matrix("3\n0 1 1\n# row 2\n\n1 0\n1 1 0\n")
        for text, line in (("2.0\n0 1\n1 0\n", 1), ("2\n0 1\n1 0\n1 1\n", 1),
                           ("# two nodes\n\n2\n0 1\n", 3)):
            with pytest.raises(ValueError, match=f"line {line}: the first "
                                                 f"line must be the node"):
                load_ts_matrix(text)
        with pytest.raises(ValueError, match="line 4: diagonal"):
            load_ts_matrix("# two nodes\n2\n0 1\n1 1\n")


class TestQuantizedNormalMean:
    @pytest.mark.parametrize("mu,level", [
        (-2.0, 0), (0.0, 0), (0.49, 0), (0.5, 1), (1.0, 1), (2.5, 3),
        (3.49, 3), (3.5, 4), (4.0, 4), (9.0, 4)])
    def test_zero_sigma_is_the_quantised_point_mass(self, mu, level):
        mean = oracle_utils.norm_quantized_mean(mu, 0.0)
        assert mean == level
        assert isinstance(mean, float)

    @pytest.mark.parametrize("mu", [-1.0, 0.5, 1.0, 2.5, 3.2, 7.0])
    def test_zero_sigma_matrix_mean_equals_the_oracle(self, mu):
        m = np.array(generate_ts_matrix(6, mu, 0.0, random.Random(9)))
        off = m[~np.eye(6, dtype=bool)]
        assert off.mean() == oracle_utils.norm_quantized_mean(mu, 0.0)


class TestPathMeanTs:
    def matrix_for(self, values):
        """Chain matrix 0 -> 1 -> 2 ... with the given directed TS values."""
        n = len(values) + 1
        m = np.zeros((n, n), dtype=np.int64)
        for i, v in enumerate(values):
            m[i, i + 1] = v
        return m, tuple(range(n))

    def test_constant_sequence(self):
        m, path = self.matrix_for([4, 4, 4])
        assert path_mean_ts(path, m) == pytest.approx(4.0, abs=1e-12)

    def test_zero_annihilates(self):
        m, path = self.matrix_for([2, 0, 3])
        assert path_mean_ts(path, m) == 0.0

    def test_two_link_geometric_mean(self):
        m, path = self.matrix_for([1, 4])
        assert path_mean_ts(path, m) == pytest.approx(2.0, abs=1e-12)

    def test_uses_travel_direction_only(self):
        m, path = self.matrix_for([3, 3])
        m[1, 0] = 0  # reverse-direction tie ignored
        assert path_mean_ts(path, m) == pytest.approx(3.0, abs=1e-12)

    def test_repeated_consecutive_node_rejected(self):
        m, _ = self.matrix_for([1, 1])
        with pytest.raises(ValueError):
            path_mean_ts((0, 0, 1), m)

    def test_short_path_rejected(self):
        m, _ = self.matrix_for([1])
        with pytest.raises(ValueError):
            path_mean_ts((0,), m)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_bounds_permutation_and_am_gm(self, values, rnd):
        m, path = self.matrix_for(values)
        gm = path_mean_ts(path, m)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9
        am = sum(values) / len(values)
        assert gm <= am + 1e-9
        shuffled = list(values)
        rnd.shuffle(shuffled)
        m2, path2 = self.matrix_for(shuffled)
        assert path_mean_ts(path2, m2) == pytest.approx(gm, rel=1e-12)
