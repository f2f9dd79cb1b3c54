"""Command-line interface: simulate, sweep, gen-scenario and report."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys

from .config import (ConfigError, RunConfig, as_type, dump_config,
                     load_config_file, load_yaml)
from .harness import (SweepSpec, point_config, run_once_to_dir, run_sweep,
                      parse_sweep_table, write_report, DEFAULT_W_TS_GRID,
                      DEFAULT_MU_GRID, DEFAULT_DENSITY_GRID,
                      DEFAULT_REPETITIONS, DEFAULT_CONFIDENCE)


def _cmd_simulate(args) -> int:
    config = load_config_file(args.config)
    if args.seed is not None:
        config = config.replace(master_seed=args.seed)
    if args.mobility_trace:
        config = config.replace(mobility=dataclasses.replace(
            config.mobility, trace=args.mobility_trace))
    if args.ts_matrix:
        config = config.replace(social=dataclasses.replace(
            config.social, matrix=args.ts_matrix))
    if args.video_trace:
        config = config.replace(video=dataclasses.replace(
            config.video, trace=args.video_trace))
    result = run_once_to_dir(config, args.out)
    print(f"run complete: {result.total_delivered}/{result.total_generated} "
          f"video packets delivered "
          f"(loss {result.pooled_loss:.3f}, "
          f"mean delay {result.pooled_delay:.3f} s, "
          f"mean path tie strength {result.ts_time_mean:.2f})")
    print(f"results in {args.out}/result.csv and {args.out}/protocol_log.csv")
    return 0


def _grid_list(data: dict, key: str, kind, default: tuple) -> tuple:
    if key not in data:
        return default
    values = data[key]
    if not isinstance(values, list) or not values:
        raise ConfigError(
            f"grid {key}: expected a non-empty list, got {values!r}")
    # ints become floats for float keys, so equal grid points get equal
    # seeds and run directories
    return tuple(as_type(f"grid {key}", value, kind) for value in values)


def _load_grid(path: str | None) -> SweepSpec:
    if path is None:
        return SweepSpec()
    with open(path, encoding="utf-8") as fh:
        data = load_yaml(fh.read(), "grid file") or {}
    if not isinstance(data, dict):
        raise ConfigError("grid file must be a mapping")
    unknown = set(data) - {"w_ts", "mu_ts", "density", "repetitions",
                           "confidence"}
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    return SweepSpec(
        w_ts_grid=_grid_list(data, "w_ts", float, DEFAULT_W_TS_GRID),
        mu_grid=_grid_list(data, "mu_ts", float, DEFAULT_MU_GRID),
        density_grid=_grid_list(data, "density", int, DEFAULT_DENSITY_GRID),
        repetitions=as_type("grid repetitions",
                            data.get("repetitions", DEFAULT_REPETITIONS), int),
        confidence=as_type("grid confidence",
                           data.get("confidence", DEFAULT_CONFIDENCE), float))


def _cmd_sweep(args) -> int:
    base = load_config_file(args.config)
    spec = _load_grid(args.grid)
    if args.reps is not None:
        spec = dataclasses.replace(spec, repetitions=args.reps)
    table = run_sweep(base, spec, args.out, workers=args.workers)
    print(f"{len(table)} sweep rows -> {args.out}/sweep_table.csv")
    return 0


def _cmd_gen_scenario(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    config = point_config(RunConfig(), 0.0, float(args.mu), args.density,
                          args.seed)
    path = os.path.join(args.out, f"scenario_den{args.density}_mu{args.mu}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(config))
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    table_path = os.path.join(args.indir, "sweep_table.csv")
    with open(table_path, encoding="utf-8") as fh:
        table = parse_sweep_table(fh.read())
    written = write_report(table, args.out)
    print(f"wrote {len(written)} figure-data files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetsim",
        description="Packet-level MANET simulator with QoS plus tie-strength "
                    "source routing: single-path forwarding over multipath "
                    "probing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--mobility-trace", default=None)
    p.add_argument("--ts-matrix", default=None)
    p.add_argument("--video-trace", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the full experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", default=None,
                   help="YAML with w_ts / mu_ts / density lists")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen-scenario", help="write a standard scenario config")
    p.add_argument("--density", type=int, choices=(100, 200), required=True)
    p.add_argument("--mu", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="scenarios")
    p.set_defaults(func=_cmd_gen_scenario)

    p = sub.add_parser("report", help="figure-data CSVs from a sweep table")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", default="figures")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    # the import-time objects live as long as the process: keep them out
    # of every collection a run triggers
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
