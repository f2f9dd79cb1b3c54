"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The trend criteria run full-scale scenarios (54 or 27
nodes, 200 s) over repeated seeds; a session fixture computes them once
with the sweep harness, which publishes the figure data the same way."""

import math
import random
import statistics
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import oracle_utils
from manetsim.config import CbrConfig, RunConfig, SocialConfig, VideoConfig
from manetsim.harness import (SweepSpec, point_config, run_once_to_dir,
                              run_sweep, scenario_seed)
from manetsim.mobility import MobilityTrace
from manetsim.routing import update_t_routing
from manetsim.simulation import SimulationRun, run_simulation
from manetsim.social import (ALL_SIGNS, NormalizationStats, TieSignLedger,
                             default_sign_weights, generate_ts_matrix,
                             normalize, path_mean_ts, tie_strength)

W_GRID_FULL = (0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0)
W_GRID_TREND = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
REPS = 5
EXACT = 1e-12


def report(criterion: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {marker} {criterion}: {detail}")


@pytest.fixture(scope="session")
def trend_data(tmp_path_factory):
    """{(mu, density, w): {rep: run}} from one sweep per series, each run
    the row the sweep returns for it; the sweep shares each repetition's
    seed across w (common random numbers), so weight settings are compared
    on identical networks."""
    data = {}
    for w_grid, mu, density in ((W_GRID_TREND, 3.0, 200),
                                (W_GRID_FULL, 1.0, 100),
                                (W_GRID_FULL, 4.0, 200),
                                ((0.0,), 3.0, 100)):
        out = str(tmp_path_factory.mktemp("trend"))
        for run in run_sweep(RunConfig(), SweepSpec(
                w_ts=w_grid, mu_ts=(mu,), density=(density,),
                repetitions=REPS), out, workers=2):
            data.setdefault((run["mu_ts"], run["density"], run["w_ts"]),
                            {})[run["rep"]] = run
    return data


def mean_se(values):
    m = statistics.mean(values)
    se = statistics.stdev(values) / math.sqrt(len(values)) \
        if len(values) > 1 else 0.0
    return m, se


class TestCriterion01FormulaSuite:
    def test_normalization_midpoint_and_bounds(self):
        rng = random.Random(101)
        for _ in range(10_000):
            mean = rng.uniform(0.01, 100.0)
            maximum = mean * rng.uniform(1.0 + 1e-9, 50.0)
            x = rng.uniform(0.0, maximum)
            value = normalize(x, mean, maximum)
            assert 0.0 <= value <= 1.0
            assert abs(normalize(mean, mean, maximum) - 0.5) <= EXACT
            assert abs(normalize(maximum, mean, maximum) - 1.0) <= EXACT
        report("formula normalization", True,
               "f(mean)=0.5 and 0<=f<=1 on 10^4 random triples")

    def test_tie_index_bounded_with_unit_weights(self):
        weights = default_sign_weights()
        assert abs(sum(weights.weights.values()) - 1.0) <= 1e-9
        rng = random.Random(77)
        for _ in range(200):
            ledger = TieSignLedger()
            for u, v in ((0, 1), (1, 0), (0, 2)):
                for sign in ALL_SIGNS:
                    if rng.random() < 0.6:
                        ledger.record(u, v, sign.name, rng.randrange(0, 50))
            stats = NormalizationStats.from_ledger(ledger)
            for u, v in ((0, 1), (1, 0), (0, 2), (2, 0)):
                assert 0.0 <= tie_strength(u, v, ledger, weights, stats) <= 1.0
        report("formula tie index", True, "bounded on random ledgers")

    def test_monitoring_period_band(self):
        assert abs(update_t_routing(0.0) - 3.0) <= EXACT * 3.0
        assert abs(update_t_routing(1.0) - 13.0) <= EXACT * 13.0
        rng = random.Random(5)
        for _ in range(10_000):
            assert 3.0 <= update_t_routing(rng.random()) <= 13.0
        report("formula monitoring period", True,
               "3 s and 13 s endpoints exact, band holds on 10^4 draws")

    def test_geometric_mean_annihilation_and_am_gm(self):
        rng = random.Random(9)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            values = [rng.randint(1, 4) for _ in range(n)]
            m = np.zeros((n + 1, n + 1), dtype=np.int64)
            for i, v in enumerate(values):
                m[i, i + 1] = v
            gm = path_mean_ts(range(n + 1), m)
            am = sum(values) / n
            assert gm <= am * (1.0 + EXACT)
            assert min(values) * (1.0 - EXACT) <= gm <= max(values) * (1.0 + EXACT)
            kill = rng.randrange(n)
            m[kill, kill + 1] = 0
            assert path_mean_ts(range(n + 1), m) == 0.0
        report("formula path mean", True,
               "zero-annihilation and AM>=GM on 10^4 vectors")


class TestCriterion02OracleEquivalence:
    def test_brute_force_argmax_agreement(self):
        trials = [oracle_utils.run_oracle_trial(seed) for seed in range(200)]
        failures = [seed for seed, (agree, _) in enumerate(trials)
                    if not agree]
        met = sum(any_met for _, any_met in trials)
        report("oracle equivalence", not failures,
               f"200 random graphs ({met} with a path meeting the request, "
               f"{200 - met} with none), {len(failures)} mismatches")
        assert not failures
        assert 0 < met < 200  # both sides of the request rule are checked


class TestCriterion03RankingInvariance:
    def _selected_sequence(self, tmp_path, config, ts_matrix):
        run = SimulationRun(oracle_utils.with_inputs(tmp_path, config,
                                                     ts=ts_matrix))
        run.run()
        return [(flow, it.index, it.selected)
                for flow, p in sorted(run.protocols.items())
                for it in p.iterations]

    def test_ts_matrix_is_inert_at_zero_weight(self, tmp_path):
        mismatches = 0
        for trial in range(50):
            config = RunConfig().replace(
                duration_s=12.0, nodes=14, area_width_m=400.0,
                area_height_m=400.0, master_seed=trial, w_ts=0.0)
            rng = random.Random(trial * 7919 + 13)
            m1 = generate_ts_matrix(14, rng.uniform(0.5, 3.5), 1.0, rng)
            m2 = generate_ts_matrix(14, rng.uniform(0.5, 3.5), 1.0, rng)
            if self._selected_sequence(tmp_path, config, m1) != \
                    self._selected_sequence(tmp_path, config, m2):
                mismatches += 1
        report("ranking invariance at w_ts=0", mismatches == 0,
               f"50 scenarios, {mismatches} selection sequences changed")
        assert mismatches == 0


class TestCriterion04TieStrengthTrend:
    def test_selected_ts_nondecreasing_in_weight(self, trend_data):
        series = []
        for w in W_GRID_TREND:
            values = [trend_data[(3.0, 200, w)][r]["ts_time_mean"]
                      for r in range(REPS)]
            series.append(mean_se(values))
        ok = True
        details = []
        for (m1, s1), (m2, s2) in zip(series, series[1:]):
            pooled = math.sqrt(s1 * s1 + s2 * s2)
            if m2 - m1 < -pooled:
                ok = False
            details.append(f"{m2 - m1:+.3f}(se {pooled:.3f})")
        report("tie-strength trend", ok,
               "steps " + ", ".join(details))
        assert ok, f"tie strength dropped beyond one pooled SE: {details}"


class TestCriterion05LossTradeoff:
    def test_pure_ts_selection_costs_loss(self, trend_data):
        diffs = [trend_data[(3.0, 200, 1.0)][r]["loss_fraction"]
                 - trend_data[(3.0, 200, 0.0)][r]["loss_fraction"]
                 for r in range(REPS)]
        mean_diff = statistics.mean(diffs)
        sd = statistics.stdev(diffs)
        t_stat = mean_diff / (sd / math.sqrt(len(diffs)))
        t_crit = scipy_stats.t.ppf(0.90, len(diffs) - 1)
        ok = mean_diff > 0 and t_stat > t_crit
        report("loss trade-off", ok,
               f"paired loss(w=1)-loss(w=0): mean {mean_diff:+.3f}, "
               f"t={t_stat:.2f} vs t_crit={t_crit:.2f}")
        assert ok, (f"loss increase not significant: diffs={diffs}, "
                    f"t={t_stat:.2f} <= {t_crit:.2f}")


class TestCriterion06LowInteractionFloor:
    def test_selected_ts_stays_at_floor(self, trend_data):
        # The bound is the scenario's expected per-link tie strength, from the
        # generator's own distribution.  A TS-blind selector stays under it in
        # expectation (a path's geometric mean is at most the mean of its
        # links); weighting TS must not lift the selected path above it,
        # since it cannot create trust the population lacks.
        sigma = RunConfig().social.sigma_ts
        bound = oracle_utils.norm_quantized_mean(1.0, sigma)
        values = {w: statistics.mean(
            trend_data[(1.0, 100, w)][r]["ts_time_mean"]
            for r in range(REPS))
            for w in W_GRID_FULL}
        ok = all(v <= bound for v in values.values())
        detail = ", ".join(f"w={w}: {v:.3f}" for w, v in values.items())
        report("low-interaction floor", ok, f"{detail} (bound {bound:.3f})")
        assert ok, (
            "selected-path tie strength exceeds the low-interaction floor "
            f"{bound:.3f}, the expected per-link tie strength of the "
            f"scenario's matrix (N(1, {sigma}) rounded and clamped to 0..4, "
            f"oracle_utils.norm_quantized_mean): {detail}")


class TestCriterion07HighInteractionCeiling:
    def test_selected_ts_stays_high(self, trend_data):
        values = {w: statistics.mean(
            trend_data[(4.0, 200, w)][r]["ts_time_mean"]
            for r in range(REPS))
            for w in W_GRID_FULL}
        ok = all(v >= 3.5 for v in values.values())
        detail = ", ".join(f"w={w}: {v:.3f}" for w, v in values.items())
        report("high-interaction ceiling", ok, detail)
        assert ok, f"tie strength fell below 3.5: {detail}"


class TestCriterion08MacDifferentiation:
    def test_drop_rate_ordering_under_saturation(self, tmp_path):
        rates = {"video-i": [0, 0], "video-p": [0, 0], "video-b": [0, 0]}
        for seed in range(5):
            config = RunConfig().replace(
                duration_s=12.0, nodes=2, master_seed=seed,
                video=VideoConfig(flows=1, target_rate_bps=2.5e6),
                cbr=CbrConfig(flows=0),
                social=SocialConfig(mu_ts=4.0, sigma_ts=1.0))
            trace = MobilityTrace(duration=12.0)
            trace.waypoints[0] = ([0.0], [100.0], [100.0])
            trace.waypoints[1] = ([0.0], [120.0], [100.0])
            m = np.zeros((2, 2), dtype=np.int64)
            m[0, 1] = m[1, 0] = 4
            run = SimulationRun(oracle_utils.with_inputs(tmp_path, config,
                                                         trace, m))
            result = run.run()
            for klass in rates:
                counters = result.class_counters[klass]
                # in-run drops only: packets still queued when the clock
                # stops are an end-of-run artifact, not MAC differentiation
                dropped = (sum(counters["drops"].values())
                           - counters["drops"]["end-of-run"])
                rates[klass][0] += dropped
                rates[klass][1] += counters["generated"]
        rate = {k: d / g for k, (d, g) in rates.items()}
        ok = rate["video-i"] <= rate["video-p"] <= rate["video-b"]
        report("mac differentiation", ok,
               f"drop rates I={rate['video-i']:.3f} P={rate['video-p']:.3f} "
               f"B={rate['video-b']:.3f}")
        assert ok
        assert rate["video-b"] > 0.1, "load did not saturate the queues"


class TestCriterion09Determinism:
    def test_sweep_point_byte_identical(self, tmp_path):
        base = RunConfig()
        seed = scenario_seed(base.master_seed, 3.0, 100, 0)
        config = point_config(base, 0.2, 3.0, 100, seed)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_once_to_dir(config, str(out_a))
        run_once_to_dir(config, str(out_b))
        same = all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("result.csv", "protocol_log.csv"))
        report("determinism", same, "result.csv and protocol_log.csv "
               "byte-identical across replays")
        assert same


class TestCriterion10SanityEnvelope:
    def test_default_scenarios_inside_reported_ranges(self, trend_data):
        ok = True
        details = []
        for density in (100, 200):
            losses = [trend_data[(3.0, density, 0.0)][r]["loss_fraction"]
                      for r in range(REPS)]
            delays = [trend_data[(3.0, density, 0.0)][r]["mean_delay_s"]
                      for r in range(REPS)]
            loss, delay = statistics.mean(losses), statistics.mean(delays)
            if not (0.05 <= loss <= 0.45 and 0.1 <= delay <= 3.0):
                ok = False
            details.append(f"density {density}: loss {loss:.3f}, "
                           f"delay {delay:.3f} s")
        report("sanity envelope", ok, "; ".join(details))
        assert ok, "; ".join(details)


class TestPerformanceBudget:
    def test_reduced_grid_within_proportional_budget(self, tmp_path):
        # full study: 7 x 4 x 2 points x 5 reps = 280 runs in 30 minutes;
        # CI enforces the same per-run budget on a reduced grid
        spec = SweepSpec(w_ts=(0.2,), mu_ts=(3.0,), density=(200,),
                         repetitions=2)
        budget = 1800.0 * (2 / 280.0)
        start = time.monotonic()
        runs = run_sweep(RunConfig(), spec, str(tmp_path), workers=2)
        elapsed = time.monotonic() - start
        ok = elapsed < budget
        report("performance budget", ok,
               f"2 full-scale runs in {elapsed:.1f} s "
               f"(budget {budget:.1f} s)")
        assert [run["rep"] for run in runs] == [0, 1]
        assert ok
