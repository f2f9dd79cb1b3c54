"""The benchmark's traced command against the plain CLI.

``bench/child.py`` with tracing on patches manetsim's functions and
methods by name and reads some of its private state after every run, so a
rename in ``src/`` that breaks the tracer fails this test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from manetsim.cli import main as cli_main
from manetsim.config import RunConfig, dump_config
from manetsim.harness import point_config, scenario_seed
from manetsim.simulation import SimulationRun

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")


def run_traced(trace_dir, command: list[str]) -> None:
    """``manetsim <command>`` through the benchmark's child, traced."""
    trace_dir.mkdir()
    traced = subprocess.run(
        [sys.executable, CHILD, "1", str(trace_dir), *command],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                           PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600)
    assert traced.returncode == 0, traced.stderr


def test_traced_child_writes_the_untraced_bytes(tmp_path):
    # the benchmark's dense54 scenario, 5 s of it
    config = point_config(RunConfig(), 0.2, 3.0, 200,
                          scenario_seed(1, 3.0, 200, 0)).replace(
                              duration_s=5.0)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(dump_config(config))
    trace_dir = tmp_path / "trace"
    run_traced(trace_dir, ["simulate", "--config", str(scenario),
                           "--out", str(tmp_path / "traced")])
    assert cli_main(["simulate", "--config", str(scenario),
                     "--out", str(tmp_path / "plain")]) == 0
    for name in ("result.csv", "protocol_log.csv"):
        assert ((tmp_path / "traced" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name

    chunks = list(trace_dir.glob("trace-*.npz"))
    assert len(chunks) == 1
    with np.load(chunks[0]) as data:
        meta = json.loads(str(data["meta"]))
        calls = np.bincount(data["name"], minlength=len(meta["names"]))
    run = SimulationRun(config)
    run.run()
    [record] = meta["runs"]
    assert record["events"] == run.sim.queue.processed > 0
    # the per-hop and per-frame calls that the layer wrappers time were made
    for name in ("radio.link_state", "radio.transmit", "mac.enqueue",
                 "mac.neighborhood_load", "video.packetize"):
        assert calls[meta["names"].index(name)] > 0, name


def test_traced_sweep_writes_the_untraced_bytes(tmp_path):
    # the benchmark's sweep_grid workload, 5 s of its 27-node scenario;
    # the traced command wraps harness._run_point and run_once_to_dir in
    # forked workers
    config = point_config(RunConfig(), 0.0, 2.0, 100, 0).replace(
        duration_s=5.0)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(dump_config(config))
    grid = tmp_path / "grid.yaml"
    grid.write_text("w_ts: [0, 1]\nmu_ts: [2]\ndensity: [100]\n")
    args = ["sweep", "--config", str(scenario), "--grid", str(grid),
            "--reps", "2", "--workers", "2", "--out"]
    trace_dir = tmp_path / "trace"
    run_traced(trace_dir, [*args, str(tmp_path / "traced")])
    assert cli_main([*args, str(tmp_path / "plain")]) == 0

    def files(root):
        return {path.relative_to(root): path.read_bytes()
                for path in root.rglob("*") if path.is_file()}
    plain = files(tmp_path / "plain")
    assert {"manifest", "sweep_table.csv"} <= {str(p) for p in plain}
    assert sum(p.parts[0] == "runs" for p in plain) == 4 * 2
    assert files(tmp_path / "traced") == plain

    # each worker writes a chunk per task, and the parent one of its own
    runs = []
    for chunk in trace_dir.glob("trace-*.npz"):
        with np.load(chunk) as data:
            runs += json.loads(str(data["meta"]))["runs"]
    assert len(runs) == 4
    assert ({Path(run["out_dir"]).relative_to(tmp_path / "traced")
             for run in runs}
            == {p.parent for p in plain if p.parts[0] == "runs"})
