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
import io
import itertools
import multiprocessing
import os
from dataclasses import dataclass

from scipy.special import stdtrit

from .config import (ConfigError, RunConfig, as_type, load_yaml,
                     parse_config, type_hints)
from .engine import add_up, derive_stream_seed
from .simulation import (PROTOCOL_LOG_FIELDS, RESULT_FIELDS, run_inputs,
                         run_simulation)

DEFAULT_CONFIDENCE = 0.90

# the sweep's axes, each a SweepSpec field, a column of the manifest and the
# sweep table, and the config key its values set at a point
AXES = {"w_ts": "scoring.w_ts", "mu_ts": "social.mu_ts", "density": "density"}

# each sweep metric and the result.csv column it reads: the 'all' row's
# cell, or the mean of the flows' cells where the 'all' row leaves it empty
SWEEP_METRICS = (("loss", "loss_fraction"), ("delay", "mean_delay_s"),
                 ("jitter", "mean_jitter_s"), ("ts", "ts_time_mean"),
                 ("decodable", "decodable_gop_fraction"))

# the figure-data files of each (mu_ts, density) and the metrics they plot
FIGURES = (("loss_ts", ("loss", "ts")), ("delay", ("delay",)))


def _stat_fields(metrics) -> tuple:
    """The mean and interval half-width columns of ``metrics``."""
    return tuple(f"{m}_{stat}" for m in metrics for stat in ("mean", "ci"))


def scenario_seed(master_seed: int, mu_ts: float, density: int,
                  repetition: int) -> int:
    """Seed shared across w_ts values (common random numbers), so comparing
    weight settings on one repetition compares the same network."""
    key = f"scenario/mu={mu_ts!r}/den={density}/rep={repetition}"
    return derive_stream_seed(master_seed, key) >> 1  # keep it positive


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # builtin repr round-trips exactly
    return str(value)


def _csv_text(fields, rows) -> str:
    """CSV text of ``rows``: one line per row, its cells named by
    ``fields``, under a header of those names."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in fields])
    return buf.getvalue()


def result_csv_text(result) -> str:
    """One row per video flow with its drops by cause, plus an 'all' row
    with the drops of every packet class."""
    return _csv_text(RESULT_FIELDS, [*result.flows, result.total])


def protocol_log_csv_text(rows) -> str:
    return _csv_text(PROTOCOL_LOG_FIELDS, rows)


def run_once_to_dir(config: RunConfig, out_dir: str):
    """Run one simulation and persist result.csv plus protocol_log.csv."""
    os.makedirs(out_dir, exist_ok=True)  # a bad --out fails before the run
    result, log_rows = run_simulation(config)
    with open(os.path.join(out_dir, "result.csv"), "w", encoding="utf-8") as fh:
        fh.write(result_csv_text(result))
    with open(os.path.join(out_dir, "protocol_log.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(protocol_log_csv_text(log_rows))
    return result


@dataclass(frozen=True)
class SweepSpec:
    """The sweep grid; its fields are the keys of a ``--grid`` file."""

    w_ts: tuple[float, ...] = (0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0)
    mu_ts: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    density: tuple[int, ...] = (100, 200)
    repetitions: int = 5

    def __post_init__(self):
        if self.repetitions < 2:
            raise ValueError("need at least 2 repetitions for intervals")
        # a repeated value would run and count the same runs twice
        for name in AXES:
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values!r}")

    def points(self):
        """Every point: one value of each axis, in AXES order."""
        return itertools.product(*(getattr(self, name) for name in AXES))


# the sweep table's columns and their types: the point, then the metrics
SWEEP_TYPES = {**{a: type_hints(SweepSpec)[a].__args__[0] for a in AXES},
               "repetitions": int,
               **dict.fromkeys(_stat_fields(m for m, _ in SWEEP_METRICS),
                               float)}
SWEEP_FIELDS = tuple(SWEEP_TYPES)


def load_grid(text: str) -> SweepSpec:
    """The sweep grid a ``--grid`` file sets, each key typed as its
    SweepSpec field; a key it leaves out keeps the field's default."""
    data = load_yaml(text, "grid file") or {}
    if not isinstance(data, dict):
        raise ConfigError("grid file must be a mapping")
    kinds = type_hints(SweepSpec)
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    grid = {}
    for key, value in data.items():
        kind, where = kinds[key], f"grid {key}"
        if getattr(kind, "__origin__", None) is tuple:
            if not isinstance(value, list) or not value:
                raise ConfigError(
                    f"{where}: expected a non-empty list, got {value!r}")
            # ints become floats for float keys, so equal grid points get
            # equal seeds and run directories
            value = tuple(as_type(where, v, kind.__args__[0]) for v in value)
        else:
            value = as_type(where, value, kind)
        grid[key] = value
    return SweepSpec(**grid)


def point_config(base: RunConfig, w_ts: float, mu_ts: float,
                 density: int, seed: int) -> RunConfig:
    """``base`` with ``master_seed`` and each axis's key set as a config
    file sets them, so a bad point fails naming its key."""
    data: dict = {"master_seed": seed}
    for key, value in zip(AXES.values(), (w_ts, mu_ts, density)):
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
    return parse_config(data, base)


def _run_point(task):
    """Worker entry: one (point, repetition) simulation, files on disk."""
    config, *point, rep, out_dir = task
    seed = config.master_seed
    point_dir = os.path.join(out_dir, "runs", "w{}_mu{}_den{}".format(*point),
                             f"seed{seed}")
    result = run_once_to_dir(config, point_dir)
    summary = {**dict(zip(AXES, point)), "rep": rep, "seed": seed,
               "config_hash": config.config_hash()}
    for metric, column in SWEEP_METRICS:
        summary[metric] = result.total[column]
        if summary[metric] == "":
            summary[metric] = (add_up(f[column] for f in result.flows)
                               / max(1, len(result.flows)))
    return summary


def mean_ci(values, confidence: float = DEFAULT_CONFIDENCE):
    """Sample mean and half-width of the two-sided Student-t interval."""
    n = len(values)
    mean = add_up(values) / n
    if n < 2:
        return mean, 0.0
    variance = add_up((v - mean) ** 2 for v in values) / (n - 1)
    sem = (variance / n) ** 0.5
    # the Student-t quantile function that scipy.stats.t.ppf evaluates
    t_crit = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return mean, t_crit * sem


def run_sweep(base: RunConfig, spec: SweepSpec, out_dir: str,
              workers: int | None = None) -> list[dict]:
    """All grid points x repetitions; returns the aggregated sweep table.

    Every run's configuration is built and its input files are read, and
    so checked, before any runs."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = [(point_config(base, w, mu, den,
                           scenario_seed(base.master_seed, mu, den, rep)),
              w, mu, den, rep, out_dir)
             for w, mu, den in spec.points()
             for rep in range(spec.repetitions)]
    for config in {task[0].nodes: task[0] for task in tasks}.values():
        run_inputs(config)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks))  # no more processes than runs
    os.makedirs(out_dir, exist_ok=True)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_run_point, tasks, chunksize=1)
    else:
        rows = [_run_point(t) for t in tasks]

    fields = (*AXES, "rep", "seed", "config_hash")
    with open(os.path.join(out_dir, "manifest"), "w", encoding="utf-8") as fh:
        fh.write(_csv_text(fields, sorted(
            rows, key=lambda r: tuple(r[k] for k in fields))))

    table = aggregate_sweep(rows)
    with open(os.path.join(out_dir, "sweep_table.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(_csv_text(SWEEP_FIELDS, table))
    return table


def aggregate_sweep(rows: list[dict]) -> list[dict]:
    by_point: dict[tuple, list[dict]] = {}
    for row in rows:
        by_point.setdefault(tuple(row[a] for a in AXES), []).append(row)
    table = []
    for point in sorted(by_point):
        group = by_point[point]
        entry = {**dict(zip(AXES, point)), "repetitions": len(group)}
        for metric, _ in SWEEP_METRICS:
            entry[f"{metric}_mean"], entry[f"{metric}_ci"] = mean_ci(
                [g[metric] for g in group])
        table.append(entry)
    return table


def parse_sweep_table(text: str) -> list[dict]:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if (len(rows) < 2 or tuple(rows[0]) != SWEEP_FIELDS
            or any(len(row) != len(SWEEP_FIELDS) for row in rows)):
        raise ValueError("not a sweep table: it needs the header "
                         f"{','.join(SWEEP_FIELDS)} and rows of as many cells")
    return [{key: kind(cell) for (key, kind), cell
             in zip(SWEEP_TYPES.items(), row)} for row in rows[1:]]


def write_report(table: list[dict], out_dir: str) -> list[str]:
    """Figure-data CSVs: the FIGURES series over w_ts per (mu, density)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    pairs = sorted({(row["mu_ts"], row["density"]) for row in table})
    for mu, density in pairs:
        series = sorted((row for row in table
                         if row["mu_ts"] == mu and row["density"] == density),
                        key=lambda r: r["w_ts"])
        mu_name = f"{mu:g}" if float(f"{mu:g}") == mu else repr(mu)
        for name, metrics in FIGURES:
            path = os.path.join(out_dir, f"{name}_mu{mu_name}_den{density}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_csv_text(("w_ts", *_stat_fields(metrics)), series))
            written.append(path)
    return written
