"""The benchmark's traced command against the plain CLI.

``bench/child.py`` with tracing on patches manetsim's functions and
methods by name and reads some of its private state after every run, so a
rename in ``src/`` that breaks the tracer fails this test.
"""

import json
import os
import subprocess
import sys

import numpy as np

from manetsim.cli import main as cli_main
from manetsim.config import RunConfig, dump_config
from manetsim.harness import point_config, scenario_seed
from manetsim.simulation import SimulationRun

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")


def test_traced_child_writes_the_untraced_bytes(tmp_path):
    # the benchmark's dense54 scenario, 5 s of it
    config = point_config(RunConfig(), 0.2, 3.0, 200,
                          scenario_seed(1, 3.0, 200, 0)).replace(
                              duration_s=5.0)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(dump_config(config))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    traced = subprocess.run(
        [sys.executable, CHILD, "1", str(trace_dir), "simulate",
         "--config", str(scenario), "--out", str(tmp_path / "traced")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                           PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600)
    assert traced.returncode == 0, traced.stderr
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
    # the per-hop calls that the layer wrappers time were made
    for name in ("radio.link_state", "radio.transmit", "mac.enqueue",
                 "mac.neighborhood_load"):
        assert calls[meta["names"].index(name)] > 0, name
