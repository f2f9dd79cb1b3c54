"""manetsim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload dense54 --seed 0 --seconds 30 --trace 0

Each repetition is one ``manetsim`` command (``simulate`` or ``sweep``) in a
fresh process started by ``bench/child.py``.  With ``--trace 0`` the
benchmark runs each scenario the seed selects and the first one again, one
command at a time, then goes on repeating them while another command fits
in ``--seconds``, and reports the end-to-end metrics (medians).  Times are
reported on a nominal host, from the host speed that ``bench/speed.py``
samples inside each process while it works; the host times themselves are
printed and recorded next to them.  With
``--trace 1`` it runs the first scenario once untraced and twice traced,
reports the per-layer metrics and the tracing overhead, and fails the runs
if the two traced runs disagree on any exact count or if tracing changed
the simulated program.

Every simulation run is checked: per-class packet conservation, end-of-run
drops against the packets the MAC still held, flow totals against class
totals, drops by cause against drops by class, delivered <= generated per
flow, and byte-identical ``result.csv`` and ``protocol_log.csv`` across
repetitions.  A run that raised or failed a
check counts in ``failed``.  The last line of standard output is one JSON
object; the full record (environment, every raw sample, digests and exact
model counts) goes to ``bench/out/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

import speed
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")

DEADLINE_S = 165.0        # no command may still run this long after start
SWEEP_REPS = 2
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    kind: str             # "simulate" or "sweep"
    density: int
    mu_ts: float
    w_ts: tuple[float, ...]
    duration_s: float     # simulated seconds per run
    runs: int             # simulation runs per command
    scenarios: int        # scenarios per seed: run time differs by up to
                          # 30% between scenarios, a block averages it out


WORKLOADS = {
    # 54 nodes, mean degree ~11: per-neighbour work (load scans, beacon
    # fan-out, O(n^2) snapshots) dominates; the paper's dense case
    "dense54": Workload("simulate", 200, 3.0, (0.2,), 200.0, 1, 3),
    # 27 nodes, mean degree ~6, 3x the simulated time: state that grows
    # with time dominates memory; queue-overflow and no-route drop paths
    "sparse27_long": Workload("simulate", 100, 1.0, (0.8,), 600.0, 1, 3),
    # the only path through cli -> config -> harness (pool, CSV writes,
    # manifest, t-interval aggregation) that makes the figure data
    "sweep_grid": Workload("sweep", 100, 2.0, (0.0, 1.0), 200.0,
                           2 * SWEEP_REPS, 1),
}

# times on the nominal host of bench/speed.py, and memory
END_TO_END = (("run_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("rss_growth_mb", "MB"), ("runs_per_norm_min", "runs/min"))
# the same times as the host gave them: recorded and printed, not bounded
HOST_TIME = (("run_wall_s", "s"), ("setup_wall_s", "s"),
             ("runs_per_min", "runs/min"))

# (name, unit, exact): exact metrics must repeat bit for bit between the two
# traced runs; the others are host times, averaged over the two.
PER_LAYER = (
    ("engine.events", "count", True),
    ("engine.us_per_event", "us", False),
    ("engine.push_pop_self_s", "s", False),
    ("engine.loop_self_s", "s", False),
    ("simulation.handlers_self_s", "s", False),
    ("mobility.position_at.calls", "count", True),
    ("mobility.position_at.self_s", "s", False),
    ("mobility.trace_build_s", "s", False),
    ("radio.connectivity.calls", "count", True),
    ("radio.connectivity.builds", "count", True),
    ("radio.connectivity.hit_ratio", "ratio", True),
    ("radio.connectivity.build_self_s", "s", False),
    ("radio.cache_entries_end", "count", True),
    ("radio.link_state.calls", "count", True),
    ("radio.link_state.self_s", "s", False),
    ("radio.transmit.calls", "count", True),
    ("radio.transmit.self_s", "s", False),
    ("mac.neighborhood_load.calls", "count", True),
    ("mac.neighborhood_load.self_s", "s", False),
    ("mac.neighbors_scanned", "count", True),
    ("mac.enqueue.calls", "count", True),
    ("mac.enqueue.rejected", "count", True),
    ("mac.queue_hwm.ac0", "count", True),
    ("mac.queue_hwm.ac1", "count", True),
    ("mac.queue_hwm.ac2", "count", True),
    ("mac.queue_hwm.ac3", "count", True),
    ("routing.discover_paths.calls", "count", True),
    ("routing.discover_paths.self_s", "s", False),
    ("routing.iterations", "count", True),
    ("routing.probes_sent", "count", True),
    ("routing.replies_accepted", "count", True),
    ("routing.replies_late", "count", True),
    ("routing.usable_path_ratio", "ratio", True),
    ("routing.collectors_end", "count", True),
    ("social.path_mean_ts.calls", "count", True),
    ("social.path_mean_ts.self_s", "s", False),
    ("social.ts_matrix_build_s", "s", False),
    ("video.packetize.calls", "count", True),
    ("video.packetize.self_s", "s", False),
    ("simulation.import_s", "s", False),
    ("simulation.build_s", "s", False),
    ("harness.run_wall_s", "s", False),
    ("harness.output_write_s", "s", False),
    ("harness.aggregate_s", "s", False),
    ("harness.pool_busy_frac", "ratio", False),
    ("config.load_s", "s", False),
    ("trace.overhead_s", "s", False),
)



class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- inputs ---------------------------------------------------------------------

def prepare(workload: Workload, seed: int, work_dir: str,
            duration_s: float | None = None) -> list[list[str]]:
    """Write the workload's inputs for ``seed``; return the manetsim args
    of each of its scenarios."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from manetsim import cli, config, harness

    duration = workload.duration_s if duration_s is None else duration_s
    if workload.kind == "simulate":
        # seed s selects the block of repetition indices s*k .. s*k+k-1 of
        # the acceptance suite's common-random-number scenarios
        commands = []
        for rep in range(seed * workload.scenarios,
                         (seed + 1) * workload.scenarios):
            run_seed = harness.scenario_seed(1, workload.mu_ts,
                                             workload.density, rep)
            cfg = harness.point_config(
                config.RunConfig(), workload.w_ts[0], workload.mu_ts,
                workload.density, run_seed).replace(duration_s=duration)
            path = os.path.join(work_dir, f"scenario-rep{rep}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config.dump_config(cfg))
            commands.append(["simulate", "--config", path])
        return commands

    # the seed is the sweep's master seed, set through gen-scenario
    mu = str(int(workload.mu_ts))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen-scenario", "--density", str(workload.density),
                         "--mu", mu, "--seed", str(seed), "--out", work_dir])
    if code != 0:
        raise BenchError("gen-scenario failed")
    path = os.path.join(work_dir, f"scenario_den{workload.density}_mu{mu}.yaml")
    if duration != workload.duration_s:
        cfg = config.load_config_file(path).replace(duration_s=duration)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config.dump_config(cfg))
    grid = os.path.join(work_dir, "grid.yaml")
    with open(grid, "w", encoding="utf-8") as fh:
        fh.write(f"w_ts: {list(workload.w_ts)}\nmu_ts: [{workload.mu_ts}]\n"
                 f"density: [{workload.density}]\n")
    return [["sweep", "--config", path, "--grid", grid,
             "--reps", str(SWEEP_REPS), "--workers", str(SWEEP_WORKERS)]]


# -- one command in a fresh process -------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


VIDEO_CLASSES = ("video-i", "video-p", "video-b")


def check_run(record: dict) -> list[str]:
    """Accounting problems in one run's counts; empty when it balances.

    The simulator books every packet without an outcome as an end-of-run
    drop, so per-class conservation holds by construction; the checks that
    can fail compare counters kept apart from each other: the end-of-run
    drops against the packets the MAC still held, the flows' totals against
    the video classes', and the drops by cause against the classes' drops.
    """
    problems = []
    counters = record["class_counters"]
    queued, in_service = record["queued_end"], record["in_service_end"]
    for klass, c in sorted(counters.items()):
        outcomes = c["delivered"] + sum(c["drops"].values())
        if c["generated"] != outcomes:
            problems.append(f"{klass}: generated {c['generated']} != "
                            f"delivered + drops {outcomes}")
        # a queued packet has no outcome; besides those, at most one packet
        # per node was between its queue and the next hop
        left, held = c["drops"]["end-of-run"], queued.get(klass, 0)
        if not held <= left <= held + in_service:
            problems.append(f"{klass}: {left} end-of-run drops, but {held} "
                            f"queued and {in_service} nodes sending")
    unknown = set(queued) - set(counters)
    if unknown:
        problems.append(f"queued packets of unknown classes {sorted(unknown)}")
    total_left = sum(c["drops"]["end-of-run"] for c in counters.values())
    if total_left > sum(queued.values()) + in_service:
        problems.append(f"{total_left} end-of-run drops, but "
                        f"{sum(queued.values())} queued and {in_service} "
                        f"nodes sending")
    for key in ("generated", "delivered"):
        flows = sum(f[key] for f in record["flows"])
        video = sum(counters[k][key] for k in VIDEO_CLASSES)
        if flows != video:
            problems.append(f"flows {key} {flows} != video classes {video}")
    for cause, n in sorted(record["drops_by_cause"].items()):
        by_class = sum(c["drops"].get(cause, 0) for c in counters.values())
        if n != by_class:
            problems.append(f"{cause}: {n} drops by cause != {by_class} "
                            f"by class")
    for flow in record["flows"]:
        if flow["delivered"] > flow["generated"]:
            problems.append(f"flow {flow['flow_id']}: delivered "
                            f"{flow['delivered']} > generated "
                            f"{flow['generated']}")
    return problems


class Commands:
    """Fresh ``bench/child.py`` processes, one at a time, each measured
    from spawn to exit and killed with its process group at the deadline."""

    def __init__(self, work_dir: str, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.done: list[dict] = []

    def run(self, args: list[str], traced: bool, scenario: int) -> dict:
        cmd_dir = os.path.join(self.work_dir, f"cmd{len(self.done)}")
        trace_dir = os.path.join(cmd_dir, "trace")
        os.makedirs(trace_dir)
        argv = [sys.executable, CHILD, "1" if traced else "0", trace_dir,
                *args, "--out", os.path.join(cmd_dir, "out")]
        with open(os.path.join(cmd_dir, "stdout.txt"), "w") as so, \
                open(os.path.join(cmd_dir, "stderr.txt"), "w") as se:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se,
                                    cwd=CHECKOUT, start_new_session=True,
                                    env=dict(os.environ, PYTHONPATH=SRC))
        timer = threading.Timer(max(1.0, self.deadline - spawn),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 gives the peak RSS of this command's process tree
            _pid, status, usage = os.wait4(proc.pid, 0)
            exited = time.perf_counter()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        _kill_group(proc.pid)  # sweep workers, if the command died first
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = {"exit_code": proc.returncode, "traced": traced,
               "scenario": scenario, "wall_s": exited - spawn,
               "peak_rss_kb": usage.ru_maxrss}
        measure_command(cmd_dir, spawn, cmd)
        self.done.append(cmd)
        return cmd


def measure_command(cmd_dir: str, spawn: float, cmd: dict) -> None:
    """Add spans, run records, digests and checks of a finished command."""
    trace_dir = os.path.join(cmd_dir, "trace")
    out = os.path.join(cmd_dir, "out")
    cmd.update(runs=[], stats={}, counts={}, spans={})
    if cmd["exit_code"] != 0:
        with open(os.path.join(cmd_dir, "stderr.txt")) as fh:
            cmd["error"] = fh.read()[-2000:]
        return
    worker_growth_kb = []
    working = []  # speed samples of the processes that ran simulations
    for chunk in tracer.load_chunks(trace_dir):
        at, took = chunk.pop("samples")
        if chunk["runs"]:
            working.append((at, took))
        for record in chunk["runs"]:
            record["host_scale"] = host_scale(at, took, record["start"],
                                              record["end"])
        if chunk.get("root"):
            root_samples = at, took
            cmd["import_s"] = chunk["import_s"]
            cmd["rss_after_import_kb"] = chunk["rss_after_import_kb"]
        if "rss_growth_kb" in chunk:
            worker_growth_kb.append(chunk["rss_growth_kb"])
        cmd["runs"].extend(chunk["runs"])
        for name, s in chunk["stats"].items():
            acc = cmd["stats"].setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                acc[key] += value
        for key, value in chunk["counts"].items():
            merge = max if key.startswith("mac.queue_hwm.") else int.__add__
            cmd["counts"][key] = merge(cmd["counts"].get(key, 0), value)
        for name, spans in chunk["spans"].items():
            cmd["spans"].setdefault(name, []).extend(spans)
    # memory that grows with simulated time: in the process that ran the
    # simulations, from the end of the imports (or the fork) to its peak
    cmd["rss_growth_kb"] = (max(worker_growth_kb) if worker_growth_kb
                            else cmd["peak_rss_kb"]
                            - cmd["rss_after_import_kb"])
    cmd["runs"].sort(key=lambda r: r["start"])
    if cmd["runs"]:
        # set-up is sampled in the command's own process; the rest in the
        # processes that ran simulations, since a sweep's parent mostly
        # waits and its samples then compete with both workers
        first, exited = cmd["runs"][0]["start"], spawn + cmd["wall_s"]
        cmd["setup_wall_s"] = first - spawn
        cmd["setup_host_scale"] = host_scale(*root_samples, spawn, first)
        at, took = (np.concatenate(a) for a in zip(*working))
        cmd["norm_wall_s"] = (
            cmd["setup_wall_s"] * cmd["setup_host_scale"]
            + (exited - first) * host_scale(at, took, first, exited))
    cmd["files"] = {}
    for root, _dirs, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            cmd["files"][os.path.relpath(path, out)] = sha256_file(path)
    for record in cmd["runs"]:
        record["out_dir"] = os.path.relpath(record["out_dir"], out)
        record["problems"] = check_run(record)
        log = os.path.join(out, record["out_dir"], "protocol_log.csv")
        try:
            with open(log, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            record["problems"].append(f"protocol log unreadable: {exc}")
            rows = []
        record["discovered"] = sum(int(r["discovered"]) for r in rows)
        record["usable"] = sum(int(r["usable"]) for r in rows)
    return cmd


def host_scale(at: np.ndarray, took: np.ndarray, start: float,
               end: float) -> float:
    """Factor from host time in [start, end] to time on the nominal host
    (see ``bench/speed.py``), from the speed samples taken in that window."""
    inside = took[(at >= start) & (at < end)]
    if not len(inside):
        raise BenchError(f"no host-speed sample in a {end - start:.3f} s "
                         f"window")
    return speed.NOMINAL_S / float(np.mean(inside))


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


# -- metrics --------------------------------------------------------------------

def end_to_end(cmds: list[dict]) -> dict:
    """Medians over the invocation's runs and commands, of the END_TO_END
    and HOST_TIME metrics."""
    ok = [c for c in cmds if c["exit_code"] == 0 and c["runs"]]
    if not ok:
        raise BenchError("no command completed")
    runs = [r for c in ok for r in c["runs"]]
    per_command = len(ok[0]["runs"])
    return {
        "run_norm_s": statistics.median(
            (r["end"] - r["start"]) * r["host_scale"] for r in runs),
        "setup_s": statistics.median(
            c["setup_wall_s"] * c["setup_host_scale"] for c in ok),
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] / 1024 for c in ok),
        "rss_growth_mb": statistics.median(c["rss_growth_kb"] / 1024
                                           for c in ok),
        "runs_per_norm_min": 60.0 * per_command / statistics.median(
            c["norm_wall_s"] for c in ok),
        "run_wall_s": statistics.median(r["end"] - r["start"] for r in runs),
        "setup_wall_s": statistics.median(c["setup_wall_s"] for c in ok),
        "runs_per_min": 60.0 * per_command / statistics.median(
            c["wall_s"] for c in ok),
    }


def model_counts(runs: list[dict]) -> dict:
    """Exact counts every run records, traced or not."""
    return {
        "engine.events": sum(r["events"] for r in runs),
        "radio.cache_entries_end": sum(r["cache_entries_end"] for r in runs),
        "routing.iterations": sum(r["iterations"] for r in runs),
        "routing.probes_sent": sum(r["class_counters"]["probe"]["generated"]
                                   for r in runs),
        "routing.collectors_end": sum(r["collectors_end"] for r in runs),
    }


def layer_metrics(cmd: dict, workers: int) -> dict:
    """Per-layer numbers of one traced command (summed over its runs)."""
    stats, counts, runs = cmd["stats"], cmd["counts"], cmd["runs"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def own(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def durations(name):
        return [end - start for start, end in cmd["spans"][name]]

    def per_run(name):
        return statistics.median(durations(name))

    def total(key):
        return sum(r[key] for r in runs)

    conn_calls = calls("radio.connectivity.build") + calls(
        "radio.connectivity.hit")
    out_spans = durations("harness.run_once_to_dir")
    (command_start, command_end), = cmd["spans"]["cli.main"]
    m = model_counts(runs)
    m.update({
        "engine.push_pop_self_s": own("engine.push", "engine.pop",
                                      "engine.peek_time"),
        "engine.loop_self_s": own("engine.run_until", "simulation.run"),
        "simulation.handlers_self_s": own("simulation.handler"),
        "mobility.position_at.calls": calls("mobility.position_at"),
        "mobility.position_at.self_s": own("mobility.position_at"),
        "mobility.trace_build_s": per_run("mobility.trace_build"),
        "radio.connectivity.calls": conn_calls,
        "radio.connectivity.builds": calls("radio.connectivity.build"),
        "radio.connectivity.hit_ratio":
            calls("radio.connectivity.hit") / conn_calls,
        "radio.connectivity.build_self_s": own("radio.connectivity.build"),
        "mac.neighbors_scanned": counts.get("mac.neighbors_scanned", 0),
        "mac.enqueue.rejected": counts.get("mac.enqueue.rejected", 0),
        "routing.replies_accepted": counts.get("routing.replies_accepted", 0),
        "routing.replies_late": counts.get("routing.replies_late", 0),
        "routing.usable_path_ratio":
            total("usable") / max(1, total("discovered")),
        "social.ts_matrix_build_s": per_run("social.ts_matrix_build"),
        "simulation.import_s": cmd["import_s"],
        "simulation.build_s": per_run("simulation.build"),
        "harness.run_wall_s": statistics.median(out_spans),
        "harness.output_write_s": own("harness.run_once_to_dir"),
        # after the last run returned: manifest, t-interval aggregation and
        # sweep table on a sweep, the summary line on a single run
        "harness.aggregate_s": command_end - max(
            end for _, end in cmd["spans"]["harness.run_once_to_dir"]),
        "harness.pool_busy_frac": sum(out_spans) / (
            workers * (command_end - command_start)),
        "config.load_s": per_run("config.load"),
    })
    for ac in range(4):
        m[f"mac.queue_hwm.ac{ac}"] = counts.get(f"mac.queue_hwm.ac{ac}", 0)
    for name in ("radio.link_state", "radio.transmit",
                 "mac.neighborhood_load", "routing.discover_paths",
                 "social.path_mean_ts", "video.packetize"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    m["mac.enqueue.calls"] = calls("mac.enqueue")
    return m


# -- one invocation -------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "manetsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(CHECKOUT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "loadavg_start": os.getloadavg()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 duration_s: float | None = None) -> dict:
    """Run one invocation; return the full record (see module docstring)."""
    if not os.path.isfile(os.path.join(SRC, "manetsim", "__init__.py")):
        raise BenchError(f"no manetsim sources under {SRC}")
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[name]
    work = os.path.join(OUT_DIR, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    scenarios = prepare(workload, seed, work, duration_s)
    commands = Commands(work, deadline)
    if trace:
        for traced in (False, True, True):
            commands.run(scenarios[0], traced, 0)
    else:
        # every scenario once and the first again, so that its bytes are
        # compared; then round again while another command fits in the time
        longest = 0.0
        while ((len(commands.done) <= len(scenarios)
                or time.perf_counter() + longest - started <= seconds)
               and time.perf_counter() + longest <= deadline):
            scenario = len(commands.done) % len(scenarios)
            longest = max(longest, commands.run(scenarios[scenario], False,
                                                scenario)["wall_s"])
    cmds = commands.done

    failed = check_repetitions(cmds, workload.runs)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "duration_s": duration_s,
              "environment": env, "commands": cmds}
    untraced = end_to_end([c for c in cmds if not c["traced"]])
    record["end_to_end"] = {n: untraced[n] for n, _ in END_TO_END}
    record["host_time"] = {n: untraced[n] for n, _ in HOST_TIME}
    if trace:
        failed += check_traced(cmds, workload.runs)
        record["per_layer"] = traced_metrics(cmds, untraced, workload)
        record["metrics"] = record["per_layer"]
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        record["metrics"] = record["end_to_end"]
        units = dict(END_TO_END)
    record["attempted"] = workload.runs * len(cmds)
    record["failed"] = min(failed, record["attempted"])
    record["fail_frac"] = record["failed"] / record["attempted"]
    record["units"] = units
    env["loadavg_end"] = os.getloadavg()
    return record


def check_repetitions(cmds: list[dict], runs_per_command: int) -> int:
    """Failed runs: crashes, conservation problems, bytes unlike the first
    complete repetition's."""
    failed = 0
    references: dict[int, dict] = {}
    for cmd in cmds:
        if cmd["exit_code"] != 0:
            failed += runs_per_command
            continue
        bad = {r["out_dir"] for r in cmd["runs"] if r["problems"]}
        failed += runs_per_command - len(cmd["runs"])
        reference = references.setdefault(cmd["scenario"], cmd["files"])
        if reference is not cmd["files"]:
            differing = {path for path in set(reference) | set(cmd["files"])
                         if reference.get(path) != cmd["files"].get(path)}
            cmd["differing_files"] = sorted(differing)
            run_dirs = {r["out_dir"] for r in cmd["runs"]}
            dirs = {os.path.dirname(p) or "." for p in differing}
            # a differing sweep table or manifest fails every run in it
            bad |= run_dirs if dirs - run_dirs else dirs
        failed += len(bad)
    return failed


def check_traced(cmds: list[dict], runs_per_command: int) -> int:
    """Failed runs when the traced runs disagree on an exact count, or
    tracing changed the simulated program."""
    untraced, first, second = cmds
    if any(c["exit_code"] != 0 for c in cmds):
        return 0  # already counted by check_repetitions
    exact = [n for n, _, is_exact in PER_LAYER if is_exact]
    a, b = layer_metrics(first, 1), layer_metrics(second, 1)
    mismatch = [n for n in exact if a[n] != b[n]]
    for name, value in model_counts(untraced["runs"]).items():
        if value != a[name]:
            mismatch.append(f"untraced {name}")
    first["count_mismatch"] = mismatch
    return 2 * runs_per_command if mismatch else 0


# per-layer times taken before the first run starts
SETUP_PHASE = {"mobility.trace_build_s", "social.ts_matrix_build_s",
               "simulation.import_s", "simulation.build_s", "config.load_s"}


def normalize_times(cmd: dict, metrics: dict) -> dict:
    """Per-layer times of one command on the nominal host, like the
    end-to-end ones: set-up times at the set-up's host speed, the others
    at the median speed of the command's runs."""
    run_scale = statistics.median(r["host_scale"] for r in cmd["runs"])
    for name, unit, exact in PER_LAYER:
        if unit == "s" and not exact and name in metrics:
            metrics[name] *= (cmd["setup_host_scale"] if name in SETUP_PHASE
                              else run_scale)
    return metrics


def traced_metrics(cmds: list[dict], e2e: dict, workload: Workload) -> dict:
    untraced, *traced = cmds
    workers = SWEEP_WORKERS if workload.kind == "sweep" else 1
    per_cmd = [normalize_times(c, layer_metrics(c, workers)) for c in traced
               if c["exit_code"] == 0]
    if not per_cmd:
        raise BenchError("no traced command completed")
    metrics = {}
    for name, _unit, exact in PER_LAYER:
        if name in per_cmd[0]:
            values = [m[name] for m in per_cmd]
            metrics[name] = values[0] if exact else statistics.mean(values)
    metrics["engine.us_per_event"] = 1e6 * sum(
        (r["end"] - r["start"]) * r["host_scale"]
        for r in untraced["runs"]) / sum(r["events"] for r in untraced["runs"])
    traced_run = statistics.mean(end_to_end([c])["run_norm_s"]
                                 for c in traced if c["exit_code"] == 0)
    metrics["trace.overhead_s"] = traced_run - e2e["run_norm_s"]
    return {name: metrics[name] for name, _, _ in PER_LAYER}


# -- command line ---------------------------------------------------------------

def write_record(record: dict) -> str:
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # terminated, stop the running command too (see Commands.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(record['commands'])} commands; nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, commit {env['git_commit']}, load "
          f"{env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for cmd in record["commands"]:
        for run in cmd["runs"]:
            print(f"  run {run['out_dir']}: events {run['events']} generated "
                  f"{run['total_generated']} delivered "
                  f"{run['total_delivered']} iterations {run['iterations']}"
                  f"{' PROBLEMS ' + '; '.join(run['problems']) if run['problems'] else ''}")
        if cmd.get("differing_files"):
            print(f"  differing from first repetition: {cmd['differing_files']}")
        if cmd.get("count_mismatch"):
            print(f"  traced counts differ: {cmd['count_mismatch']}")
        if cmd["exit_code"] != 0:
            print(f"  command failed ({cmd['exit_code']}): {cmd.get('error')}")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {record['units'][name]}")
    for name, unit in HOST_TIME:
        print(f"{name} = {record['host_time'][name]:.6g} {unit} (host time, "
              f"not normalized)")
    print(f"fail_frac = {record['fail_frac']:.6g} "
          f"({record['failed']}/{record['attempted']} runs)")
    print(f"full record: {os.path.relpath(path, CHECKOUT)}")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
