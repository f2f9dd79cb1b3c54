"""Smoke test of the benchmark itself, on short simulated durations.

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, traced and untraced; that a result whose counts do not
balance, or whose bytes differ between repetitions, counts as a failure;
and that without the simulator's sources the benchmark exits non-zero and
prints no result.  Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import run

SMOKE_DURATION_S = 10.0


def benchmark_spec() -> dict:
    with open(os.path.join(run.CHECKOUT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metric_tables(spec: dict) -> None:
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, unit, _ in run.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_emitted(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(workload, 0, 0, trace,
                                      duration_s=SMOKE_DURATION_S)
            assert record["failed"] == 0, (workload, trace, record["failed"])
            assert record["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[group]}
            emitted = {name: record["units"][name]
                       for name in record["metrics"]}
            assert emitted == expected, (workload, trace,
                                         set(expected) ^ set(emitted))
            for name, value in record["metrics"].items():
                assert isinstance(value, (int, float)), (name, value)
            assert set(record["host_time"]) == {n for n, _ in run.HOST_TIME}
            print(f"ok: {workload} trace {int(trace)}: "
                  f"{len(emitted)} metrics, {record['attempted']} runs")


def balanced_run() -> dict:
    drops = dict.fromkeys(("queue-overflow", "link-break", "corruption",
                           "no-route", "end-of-run"), 0)
    return {
        "out_dir": ".", "events": 10,
        "class_counters": {
            "video-i": {"generated": 6, "delivered": 3,
                        "drops": {**drops, "no-route": 2, "end-of-run": 1}},
            "video-p": {"generated": 0, "delivered": 0, "drops": drops},
            "video-b": {"generated": 0, "delivered": 0, "drops": drops}},
        "drops_by_cause": {**drops, "no-route": 2, "end-of-run": 1},
        "queued_end": {"video-i": 1}, "in_service_end": 0,
        "flows": [{"flow_id": 0, "generated": 6, "delivered": 3}],
    }


def fake_command(record: dict, files: dict, scenario: int = 0) -> dict:
    record = copy.deepcopy(record)
    record["problems"] = run.check_run(record)
    return {"exit_code": 0, "scenario": scenario, "runs": [record],
            "files": files}


def check_failures_counted() -> None:
    good = balanced_run()
    assert run.check_run(good) == []
    files = {"result.csv": "a", "protocol_log.csv": "b"}
    assert run.check_repetitions([fake_command(good, files)], 1) == 0

    unbalanced = copy.deepcopy(good)
    unbalanced["class_counters"]["video-i"]["delivered"] = 4
    assert run.check_run(unbalanced)
    assert run.check_repetitions([fake_command(unbalanced, files)], 1) == 1

    overdelivered = copy.deepcopy(good)
    overdelivered["flows"][0]["delivered"] = 7
    assert run.check_repetitions([fake_command(overdelivered, files)], 1) == 1

    # a packet that left the run without an outcome is booked as an
    # end-of-run drop, so conservation still holds, but nothing held it
    lost = copy.deepcopy(good)
    lost["class_counters"]["video-i"]["delivered"] = 2
    lost["class_counters"]["video-i"]["drops"]["end-of-run"] = 2
    lost["drops_by_cause"]["end-of-run"] = 2
    lost["flows"][0]["delivered"] = 2
    assert run.check_repetitions([fake_command(lost, files)], 1) == 1
    lost["in_service_end"] = 1  # unless a node was sending it
    assert run.check_repetitions([fake_command(lost, files)], 1) == 0

    still_queued = copy.deepcopy(good)
    still_queued["queued_end"]["video-i"] = 2
    assert run.check_repetitions([fake_command(still_queued, files)], 1) == 1

    uncounted_flow = copy.deepcopy(good)
    uncounted_flow["flows"][0]["generated"] = 7
    assert run.check_repetitions([fake_command(uncounted_flow, files)],
                                 1) == 1

    cause_mismatch = copy.deepcopy(good)
    cause_mismatch["drops_by_cause"]["corruption"] = 1
    assert run.check_repetitions([fake_command(cause_mismatch, files)],
                                 1) == 1

    changed = {**files, "protocol_log.csv": "c"}
    assert run.check_repetitions(
        [fake_command(good, files), fake_command(good, changed)], 1) == 1
    # other scenarios are compared with themselves only
    assert run.check_repetitions(
        [fake_command(good, files), fake_command(good, changed, 1)], 1) == 0
    crashed = {"exit_code": 1, "scenario": 0, "runs": []}
    assert run.check_repetitions([crashed], 4) == 4
    print("ok: unbalanced, over-delivered, lost, miscounted, changed and "
          "crashed runs fail")


def check_without_sources() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.CHECKOUT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense54", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok: without sources the benchmark fails and prints no result")


def main() -> int:
    spec = benchmark_spec()
    check_metric_tables(spec)
    check_failures_counted()
    check_without_sources()
    check_emitted(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
