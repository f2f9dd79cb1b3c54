"""The scales of the score's two halves within a forwarding decision.

Runs master seed 1, mu_ts 3, repetitions 0-4, 200 s at w_ts 0, at
densities 200 and 100, and records every decision's candidates.  A
decision counts when its pool holds at least 2 paths; the pool is the
paths that meet the request, or every usable path when none does.  Per
density it prints the number of such decisions, the median spread of the
QoS half (the mean of the seven qualifications) within a decision, the
median gap between its best and second-best path, the median spread of
ts / 4, and the share of decisions whose ranking head changes when the
same candidates are ranked at w_ts 0.03, 0.125 and 1.

    PYTHONPATH=src python3 tools/decision_scales.py > tools/decision_scales.txt

It takes a few seconds and is not part of the test suite.
"""

from __future__ import annotations

import statistics

from manetsim import routing
from manetsim.config import RunConfig
from manetsim.engine import add_up
from manetsim.harness import point_config, scenario_seed
from manetsim.simulation import SimulationRun
from manetsim.social import TS_SCALE_MAX

MASTER_SEED = 1
MU_TS = 3.0
REPETITIONS = range(5)
DURATION_S = 200.0
DENSITIES = (200, 100)
WEIGHTS = (0.03, 0.125, 1.0)


def record_decisions(density: int) -> list[tuple[list, object]]:
    """Every decision's (candidates, request) over the repetitions at
    w_ts 0: each iteration's ranked (qualification, mean tie strength)
    pairs."""
    decisions = []
    for rep in REPETITIONS:
        config = point_config(
            RunConfig(), 0.0, MU_TS, density,
            scenario_seed(MASTER_SEED, MU_TS, density, rep)).replace(
                duration_s=DURATION_S)
        run = SimulationRun(config)
        run.run()
        decisions += [([(r.qual, r.mean_ts) for r in it.ranked],
                       config.customer_request)
                      for protocol in run.protocols.values()
                      for it in protocol.iterations]
    return decisions


def head(candidates, request, w_ts: float) -> tuple[int, ...]:
    return routing.rank(candidates, request, w_ts)[0].qual.path


def spread(values: list[float]) -> float:
    return max(values) - min(values)


def summarize(decisions) -> dict:
    qos_spreads, qos_gaps, ts_spreads = [], [], []
    changed = dict.fromkeys(WEIGHTS, 0)
    counted = 0
    for candidates, request in decisions:
        pool = [c for c in candidates if routing.meets(c[0], request)]
        pool = pool or candidates
        if len(pool) < 2:
            continue
        counted += 1
        qos = sorted((add_up(q.qualifications) / routing.QOS_METRIC_COUNT
                      for q, _ in pool), reverse=True)
        qos_spreads.append(qos[0] - qos[-1])
        qos_gaps.append(qos[0] - qos[1])
        ts_spreads.append(spread([ts / TS_SCALE_MAX for _, ts in pool]))
        choice = head(candidates, request, 0.0)
        for w_ts in WEIGHTS:
            changed[w_ts] += head(candidates, request, w_ts) != choice
    return {"decisions": counted,
            "qos_spread": statistics.median(qos_spreads),
            "qos_gap": statistics.median(qos_gaps),
            "ts_spread": statistics.median(ts_spreads),
            "changed": {w: n / counted for w, n in changed.items()}}


def main() -> None:
    print(f"master seed {MASTER_SEED}, mu_ts {MU_TS:g}, repetitions "
          f"{REPETITIONS.start}-{REPETITIONS.stop - 1}, {DURATION_S:g} s, "
          "w_ts 0; decisions whose pool holds at least 2 paths")
    header = ("density", "decisions", "qos_spread_median", "qos_gap_median",
              "ts4_spread_median",
              *(f"head_changed_w{w:g}" for w in WEIGHTS))
    print(",".join(header))
    for density in DENSITIES:
        s = summarize(record_decisions(density))
        print(",".join([str(density), str(s["decisions"]),
                        f"{s['qos_spread']:.3f}", f"{s['qos_gap']:.3f}",
                        f"{s['ts_spread']:.3f}",
                        *(f"{s['changed'][w]:.0%}" for w in WEIGHTS)]))


if __name__ == "__main__":
    main()
