"""Experiment harness: single runs with persisted results, parameter sweeps
over (w_ts, mu_ts, density) with seed repetitions, confidence-interval
aggregation, and figure-data export.

Every run's seed derives from (master_seed, mu_ts, density, repetition)
through a hash and not from w_ts: each repetition runs every weight on the
same network (common random numbers), and adding grid points or
repetitions never changes the scenarios of existing ones.
"""

from __future__ import annotations

import csv
import hashlib
import io
import multiprocessing
import os
from dataclasses import dataclass

from scipy.special import stdtrit

from .config import RunConfig, SocialConfig
from .mobility import AreaSpec, import_trace
from .packets import DROP_CAUSES
from .simulation import run_simulation
from .social import load_ts_matrix
from .video import load_frame_trace

DEFAULT_W_TS_GRID = (0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_MU_GRID = (1.0, 2.0, 3.0, 4.0)
DEFAULT_DENSITY_GRID = (100, 200)
DEFAULT_REPETITIONS = 5
DEFAULT_CONFIDENCE = 0.90

RESULT_FIELDS = ("flow_id", "src", "dst", "generated", "delivered",
                 "loss_fraction", "mean_delay_s", "mean_jitter_s",
                 "decodable_gop_fraction", "ts_time_mean", "iterations",
                 "mean_t_routing", "drops_queue_overflow", "drops_link_break",
                 "drops_corruption", "drops_no_route", "drops_end_of_run")

PROTOCOL_LOG_FIELDS = ("flow", "iteration", "t", "discovered", "usable",
                       "survivors", "nstate", "t_routing", "selected",
                       "mscore", "mean_ts")

SWEEP_FIELDS = ("w_ts", "mu_ts", "density", "repetitions",
                "loss_mean", "loss_ci", "delay_mean", "delay_ci",
                "jitter_mean", "jitter_ci", "ts_mean", "ts_ci",
                "decodable_mean", "decodable_ci")


def scenario_seed(master_seed: int, mu_ts: float, density: int,
                  repetition: int) -> int:
    """Seed shared across w_ts values (common random numbers), so comparing
    weight settings on one repetition compares the same network."""
    key = f"{master_seed}/scenario/mu={mu_ts!r}/den={density}/rep={repetition}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it positive


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # builtin repr round-trips exactly
    return str(value)


def result_csv_text(result) -> str:
    """One row per video flow with its drops by cause, plus an 'all' row
    with the drops of every packet class."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for f in result.flows:
        writer.writerow([
            f["flow_id"], f["src"], f["dst"], f["generated"], f["delivered"],
            _fmt(f["loss_fraction"]), _fmt(f["mean_delay_s"]),
            _fmt(f["mean_jitter_s"]), _fmt(f["decodable_gop_fraction"]),
            _fmt(f["ts_time_mean"]), f["iterations"],
            _fmt(f["mean_t_routing"])] + [f["drops"][c] for c in DROP_CAUSES])
    writer.writerow([
        "all", "", "", result.total_generated, result.total_delivered,
        _fmt(result.pooled_loss), _fmt(result.pooled_delay), "", "",
        _fmt(result.ts_time_mean), result.iterations,
        _fmt(result.mean_t_routing)]
        + [result.drops_by_cause[c] for c in DROP_CAUSES])
    return buf.getvalue()


def protocol_log_csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROTOCOL_LOG_FIELDS)
    for row in rows:
        writer.writerow([_fmt(row[k]) if isinstance(row[k], float)
                         else row[k] for k in PROTOCOL_LOG_FIELDS])
    return buf.getvalue()


def load_run_inputs(config: RunConfig):
    """Resolve optional external files named in the configuration."""
    mobility_trace = None
    if config.mobility.trace:
        with open(config.mobility.trace, encoding="utf-8") as fh:
            mobility_trace = import_trace(
                fh.read(),
                AreaSpec(config.area_width_m, config.area_height_m, 1),
                duration=config.duration_s)
    ts_matrix = None
    if config.social.matrix:
        with open(config.social.matrix, encoding="utf-8") as fh:
            ts_matrix = load_ts_matrix(fh.read())
    frame_trace = None
    if config.video.trace:
        with open(config.video.trace, encoding="utf-8") as fh:
            frame_trace = load_frame_trace(fh.read())
    return mobility_trace, ts_matrix, frame_trace


def run_once_to_dir(config: RunConfig, out_dir: str):
    """Run one simulation and persist result.csv plus protocol_log.csv."""
    os.makedirs(out_dir, exist_ok=True)  # a bad --out fails before the run
    mobility_trace, ts_matrix, frame_trace = load_run_inputs(config)
    result, log_rows = run_simulation(config, mobility_trace=mobility_trace,
                                      ts_matrix=ts_matrix,
                                      frame_trace=frame_trace)
    with open(os.path.join(out_dir, "result.csv"), "w", encoding="utf-8") as fh:
        fh.write(result_csv_text(result))
    with open(os.path.join(out_dir, "protocol_log.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(protocol_log_csv_text(log_rows))
    return result


@dataclass(frozen=True)
class SweepSpec:
    w_ts_grid: tuple = DEFAULT_W_TS_GRID
    mu_grid: tuple = DEFAULT_MU_GRID
    density_grid: tuple = DEFAULT_DENSITY_GRID
    repetitions: int = DEFAULT_REPETITIONS
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.repetitions < 2:
            raise ValueError("need at least 2 repetitions for intervals")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        # a repeated value would run and count the same runs twice
        for name in ("w_ts_grid", "mu_grid", "density_grid"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values!r}")

    def points(self):
        for density in self.density_grid:
            for mu in self.mu_grid:
                for w_ts in self.w_ts_grid:
                    yield w_ts, mu, density


def point_config(base: RunConfig, w_ts: float, mu_ts: float,
                 density: int, seed: int) -> RunConfig:
    area = AreaSpec.from_density(base.area_width_m, base.area_height_m,
                                 density)
    return base.replace(
        node_count=area.node_count, master_seed=seed, w_ts=w_ts,
        social=SocialConfig(mu_ts=mu_ts, sigma_ts=base.social.sigma_ts,
                            matrix=base.social.matrix))


def _run_point(task):
    """Worker entry: one (point, repetition) simulation, files on disk."""
    config, w_ts, mu, density, rep, out_dir = task
    seed = config.master_seed
    point_dir = os.path.join(
        out_dir, "runs", f"w{w_ts}_mu{mu}_den{density}", f"seed{seed}")
    result = run_once_to_dir(config, point_dir)
    return {
        "w_ts": w_ts, "mu_ts": mu, "density": density, "rep": rep,
        "seed": seed, "config_hash": config.config_hash(),
        "loss": result.pooled_loss, "delay": result.pooled_delay,
        "jitter": (sum(f["mean_jitter_s"] for f in result.flows)
                   / max(1, len(result.flows))),
        "ts": result.ts_time_mean,
        "decodable": (sum(f["decodable_gop_fraction"] for f in result.flows)
                      / max(1, len(result.flows))),
    }


def mean_ci(values, confidence: float = DEFAULT_CONFIDENCE):
    """Sample mean and half-width of the two-sided Student-t interval."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = (variance / n) ** 0.5
    # the Student-t quantile function that scipy.stats.t.ppf evaluates
    t_crit = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return mean, t_crit * sem


def run_sweep(base: RunConfig, spec: SweepSpec, out_dir: str,
              workers: int | None = None) -> list[dict]:
    """All grid points x repetitions; returns the aggregated sweep table.

    Every run's configuration is built, and so checked, before any runs."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = [(point_config(base, w, mu, den,
                           scenario_seed(base.master_seed, mu, den, rep)),
              w, mu, den, rep, out_dir)
             for w, mu, den in spec.points()
             for rep in range(spec.repetitions)]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks))  # no more processes than runs
    os.makedirs(out_dir, exist_ok=True)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_run_point, tasks)
    else:
        rows = [_run_point(t) for t in tasks]

    manifest_rows = sorted(
        (r["w_ts"], r["mu_ts"], r["density"], r["rep"], r["seed"],
         r["config_hash"]) for r in rows)
    with open(os.path.join(out_dir, "manifest"), "w", encoding="utf-8") as fh:
        fh.write("w_ts,mu_ts,density,rep,seed,config_hash\n")
        for row in manifest_rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    table = aggregate_sweep(rows, spec.confidence)
    with open(os.path.join(out_dir, "sweep_table.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(sweep_table_csv_text(table))
    return table


def aggregate_sweep(rows: list[dict], confidence: float) -> list[dict]:
    by_point: dict[tuple, list[dict]] = {}
    for row in rows:
        by_point.setdefault((row["w_ts"], row["mu_ts"], row["density"]),
                            []).append(row)
    table = []
    for (w_ts, mu, density) in sorted(by_point):
        group = by_point[(w_ts, mu, density)]
        entry = {"w_ts": w_ts, "mu_ts": mu, "density": density,
                 "repetitions": len(group)}
        for metric, out in (("loss", "loss"), ("delay", "delay"),
                            ("jitter", "jitter"), ("ts", "ts"),
                            ("decodable", "decodable")):
            mean, ci = mean_ci([g[metric] for g in group], confidence)
            entry[f"{out}_mean"] = mean
            entry[f"{out}_ci"] = ci
        table.append(entry)
    return table


def sweep_table_csv_text(table: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_FIELDS)
    for row in table:
        writer.writerow([_fmt(row[k]) for k in SWEEP_FIELDS])
    return buf.getvalue()


def parse_sweep_table(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    table = []
    for raw in reader:
        row: dict = {}
        for key in SWEEP_FIELDS:
            value = raw[key]
            if key in ("density", "repetitions"):
                row[key] = int(value)
            else:
                row[key] = float(value)
        table.append(row)
    return table


def write_report(table: list[dict], out_dir: str) -> list[str]:
    """Figure-data CSVs: loss+ts and delay series per (mu, density)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    pairs = sorted({(row["mu_ts"], row["density"]) for row in table})
    for mu, density in pairs:
        series = sorted((row for row in table
                         if row["mu_ts"] == mu and row["density"] == density),
                        key=lambda r: r["w_ts"])
        loss_path = os.path.join(
            out_dir, f"loss_ts_mu{mu:g}_den{density}.csv")
        with open(loss_path, "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("w_ts", "loss_mean", "loss_ci",
                             "ts_mean", "ts_ci"))
            for row in series:
                writer.writerow([_fmt(row[k]) for k in
                                 ("w_ts", "loss_mean", "loss_ci",
                                  "ts_mean", "ts_ci")])
        delay_path = os.path.join(
            out_dir, f"delay_mu{mu:g}_den{density}.csv")
        with open(delay_path, "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("w_ts", "delay_mean", "delay_ci"))
            for row in series:
                writer.writerow([_fmt(row[k]) for k in
                                 ("w_ts", "delay_mean", "delay_ci")])
        written.extend([loss_path, delay_path])
    return written
