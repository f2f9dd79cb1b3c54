import csv
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

import oracle_utils
from manetsim import harness
from manetsim.cli import main as cli_main
from manetsim.config import ConfigError, RunConfig, load_config_file
from manetsim.harness import (RESULT_FIELDS, SWEEP_FIELDS, SweepSpec,
                              aggregate_sweep, mean_ci, parse_sweep_table,
                              point_config, protocol_log_csv_text,
                              result_csv_text, run_once_to_dir, run_sweep,
                              scenario_seed, write_report)
from manetsim.packets import DROP_CAUSES
from manetsim.simulation import SimulationRun, run_simulation


def tiny_config():
    """Cheap but complete scenario for harness-level tests."""
    return RunConfig().replace(duration_s=15.0, node_count=14,
                               area_width_m=400.0, area_height_m=400.0,
                               master_seed=5)


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(w_ts=(0.0, 1.0), mu_ts=(3.0,),
                     density=(100,), repetitions=2)
    base = tiny_config().replace(duration_s=10.0)
    table = run_sweep(base, spec, str(out), workers=1)
    return out, spec, base, table


class TestSeeds:
    def test_scenario_seed_sensitive_to_every_coordinate(self):
        base = scenario_seed(1, 3.0, 200, 2)
        assert base != scenario_seed(2, 3.0, 200, 2)
        assert base != scenario_seed(1, 2.0, 200, 2)
        assert base != scenario_seed(1, 3.0, 100, 2)
        assert base != scenario_seed(1, 3.0, 200, 3)

    def test_scenario_seed_shared_across_weights(self):
        assert scenario_seed(1, 3.0, 200, 0) == scenario_seed(1, 3.0, 200, 0)
        assert scenario_seed(1, 3.0, 200, 0) != scenario_seed(1, 3.0, 200, 1)

    def test_adding_grid_points_never_changes_existing_seeds(self):
        # seeds depend only on the scenario coordinates, not the grid shape
        full = [scenario_seed(1, mu, 200, 0) for mu in (1.0, 2.0, 3.0)]
        subset = [scenario_seed(1, mu, 200, 0) for mu in (1.0, 3.0)]
        assert [full[0], full[2]] == subset


class TestMeanCi:
    def test_hand_computed_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = mean_ci(values, confidence=0.90)
        assert mean == pytest.approx(3.0)
        sem = (2.5 / 5) ** 0.5
        t_crit = scipy_stats.t.ppf(0.95, 4)
        assert half == pytest.approx(t_crit * sem)
        assert half == pytest.approx(1.5076, abs=1e-3)

    def test_halfwidth_equals_the_scipy_stats_quantile(self):
        import random
        rng = random.Random(11)
        for n in range(2, 61):
            values = [rng.gauss(0.3, 0.1) for _ in range(n)]
            mean = sum(values) / n
            sem = (sum((v - mean) ** 2 for v in values) / (n - 1) / n) ** 0.5
            for c in (0.5, 0.8, 0.9, 0.95, 0.99):
                _, half = mean_ci(values, confidence=c)
                assert type(half) is float
                assert half == scipy_stats.t.ppf(0.5 + c / 2, n - 1) * sem, \
                    (n, c)

    def test_single_value_has_zero_width(self):
        assert mean_ci([2.5]) == (2.5, 0.0)

    def test_halfwidth_shrinks_with_more_repetitions(self):
        import random
        rng = random.Random(8)
        population = [rng.gauss(0.2, 0.05) for _ in range(20)]
        _, half5 = mean_ci(population[:5])
        _, half20 = mean_ci(population)
        assert half20 < half5


class TestResultCsv:
    def test_round_trip_of_flow_rows(self):
        result, _ = run_simulation(tiny_config())
        text = result_csv_text(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        flow_rows = [r for r in rows if r["flow_id"] != "all"]
        assert len(flow_rows) == len(result.flows)
        for parsed, flow in zip(flow_rows, result.flows):
            assert int(parsed["generated"]) == flow["generated"]
            assert float(parsed["loss_fraction"]) == flow["loss_fraction"]
            assert float(parsed["ts_time_mean"]) == flow["ts_time_mean"]
            drops = ["drops_" + cause.replace("-", "_")
                     for cause in DROP_CAUSES]
            assert [int(parsed[name]) for name in drops] == [
                flow[name] for name in drops]
        all_row = rows[-1]
        drops = result.drops_by_cause
        assert int(all_row["drops_queue_overflow"]) == drops["queue-overflow"]
        assert int(all_row["drops_link_break"]) == drops["link-break"]

    def test_rows_are_the_result_fields(self, tmp_path):
        # the file's header and every row of the result are RESULT_FIELDS
        # in order, and a sweep run's jitter and decodable fraction are
        # the means of the flows' cells in its file
        config = tiny_config()
        summary = harness._run_point((config, 0.2, 3.0, 100, 0,
                                      str(tmp_path)))
        path = (tmp_path / "runs" / "w0.2_mu3.0_den100"
                / f"seed{config.master_seed}" / "result.csv")
        with path.open(encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            *flows, all_row = reader
        assert tuple(reader.fieldnames) == RESULT_FIELDS
        assert flows
        for metric, column in (("jitter", "mean_jitter_s"),
                               ("decodable", "decodable_gop_fraction")):
            assert all_row[column] == ""
            assert summary[metric] == (sum(float(f[column]) for f in flows)
                                       / len(flows))
        result, _ = run_simulation(config)
        assert len(result.flows) == len(flows)
        for row in (*result.flows, result.total):
            assert tuple(row) == RESULT_FIELDS

    def test_run_once_writes_files(self, tmp_path):
        out = tmp_path / "run"
        run_once_to_dir(tiny_config(), str(out))
        assert (out / "result.csv").exists()
        assert (out / "protocol_log.csv").exists()
        header = (out / "protocol_log.csv").read_text().splitlines()[0]
        assert header.split(",") == ["flow", "iteration", "t", "discovered",
                                     "usable", "survivors", "nstate",
                                     "t_routing", "selected", "mscore",
                                     "mean_ts"]


class TestGoldenDigest:
    def test_short_dense_run_bytes(self):
        # 54 nodes for 30 s; a change that claims to keep behaviour keeps
        # these digests
        config = point_config(RunConfig(), 0.2, 3.0, 200,
                              scenario_seed(1, 3.0, 200, 0)).replace(
                                  duration_s=30.0)
        result, rows = run_simulation(config)
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in
                   (result_csv_text(result), protocol_log_csv_text(rows))]
        assert digests == [
            "ea4edb928ad4b63f2918b277e64aa185c7440da5bfa6388c47f10b6e8e685fb0",
            "61fd46d218b8af254cf0639bc1f72f6f50d769a425b6110f1724b461ce853d82",
        ]

    def test_small_sweep_and_report_bytes(self, tmp_path):
        # 2 weights x 2 repetitions of a 20 s, 27-node scenario, then the
        # figure data: the sweep path's bytes, pinned like the runs'
        spec = SweepSpec(w_ts=(0.0, 0.6), mu_ts=(2.0,),
                         density=(100,), repetitions=2)
        table = run_sweep(RunConfig().replace(duration_s=20.0), spec,
                          str(tmp_path), workers=1)
        report = write_report(table, str(tmp_path / "report"))
        files = [tmp_path / "manifest", tmp_path / "sweep_table.csv",
                 *map(Path, report)]
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in files}
        assert digests == {
            "manifest":
            "71d702821d809cebb957db6f8d5a8429dbfcd7b19e8fc7082cfe1eba9e298134",
            "sweep_table.csv":
            "0c89081b8e49c1c54a7890fc7f03df98385035aea336e383994929c04369fcb6",
            "loss_ts_mu2_den100.csv":
            "897dbd940b44d7ab3bf9336583a240234dd7940ffb1d361a448e3bc40a09b47a",
            "delay_mu2_den100.csv":
            "5b8ce14382193d06a9a11e5c9c21cf01a225ce0f80d24f972ab84d3649c4d2c9",
        }


class TestSweep:
    def test_default_grid_shape(self):
        spec = SweepSpec()
        points = list(spec.points())
        assert len(points) == 7 * 4 * 2 == 56
        assert len(points) * spec.repetitions == 280

    def test_repetitions_floor(self):
        with pytest.raises(ValueError):
            SweepSpec(repetitions=1)

    def test_pool_no_larger_than_the_runs(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
        spec = SweepSpec(w_ts=(0.0,), mu_ts=(3.0,),
                         density=(100,), repetitions=2)
        run_sweep(tiny_config().replace(duration_s=2.0), spec,
                  str(tmp_path), workers=64)
        assert sizes == [2]

    def test_pool_writes_the_serial_bytes(self, tmp_path):
        spec = SweepSpec(w_ts=(0.0, 1.0), mu_ts=(3.0,),
                         density=(100,), repetitions=2)
        base = tiny_config().replace(duration_s=3.0)
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            run_sweep(base, spec, str(out), workers=workers)
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in out.rglob("*") if path.is_file()})
        assert "sweep_table.csv" in outputs[0] and "manifest" in outputs[0]
        assert len(outputs[0]) == 2 + 4 * 2  # table, manifest, 4 runs
        assert outputs[0] == outputs[1]

    def test_sweep_outputs(self, tiny_sweep):
        out, spec, base, table = tiny_sweep
        assert len(table) == 2  # 2 w_ts x 1 mu x 1 density
        assert (out / "sweep_table.csv").exists()
        assert (out / "manifest").exists()
        run_dirs = sorted((out / "runs").glob("*/*"))
        assert len(run_dirs) == 4  # 2 points x 2 repetitions
        for d in run_dirs:
            assert (d / "result.csv").exists()

    def test_table_round_trip(self, tiny_sweep):
        out, _, _, table = tiny_sweep
        text = (out / "sweep_table.csv").read_text()
        assert parse_sweep_table(text) == table

    def test_manifest_records_seeds_and_hashes(self, tiny_sweep):
        out, spec, base, _ = tiny_sweep
        lines = (out / "manifest").read_text().splitlines()
        assert lines[0] == "w_ts,mu_ts,density,rep,seed,config_hash"
        assert len(lines) == 5
        seeds: dict[tuple, set] = {}
        for line in lines[1:]:
            w, mu, den, rep, seed, chash = line.split(",")
            expected_seed = scenario_seed(base.master_seed, float(mu),
                                          int(den), int(rep))
            assert int(seed) == expected_seed
            cfg = point_config(base, float(w), float(mu), int(den),
                               expected_seed)
            assert chash == cfg.config_hash()
            seeds.setdefault((mu, den, rep), set()).add(int(seed))
        # one seed per scenario, shared by its w_ts values ...
        assert all(len(s) == 1 for s in seeds.values())
        # ... and a different one for every (mu, density, rep)
        assert len(set.union(*seeds.values())) == len(seeds) == 2

    def test_runs_equal_direct_simulations(self, tiny_sweep):
        # the acceptance suite reads its trend data from sweep runs: each
        # must be the run of point_config at the scenario seed, exactly
        out, spec, base, _ = tiny_sweep
        runs = oracle_utils.sweep_runs(str(out))
        assert len(runs) == 4
        for (w, mu, den, rep), metrics in runs.items():
            result, _ = run_simulation(point_config(
                base, w, mu, den,
                scenario_seed(base.master_seed, mu, den, rep)))
            assert metrics == {"loss": result.pooled_loss,
                               "delay": result.pooled_delay,
                               "ts": result.ts_time_mean}

    def test_aggregation_matches_recomputation(self, tiny_sweep):
        out, _, _, table = tiny_sweep
        # independent recomputation of one cell from the raw run files
        row = table[0]
        point_dir = out / "runs" / f"w{row['w_ts']}_mu{row['mu_ts']}_den{row['density']}"
        losses = []
        for run_dir in sorted(point_dir.iterdir()):
            rows = list(csv.DictReader(
                (run_dir / "result.csv").read_text().splitlines()))
            all_row = rows[-1]
            losses.append(float(all_row["loss_fraction"]))
        assert row["loss_mean"] == pytest.approx(
            sum(losses) / len(losses), abs=1e-12)


class TestReport:
    def synth_table(self):
        table = []
        for w in (0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0):
            table.append({
                "w_ts": w, "mu_ts": 1.0, "density": 100, "repetitions": 5,
                "loss_mean": 0.2 + 0.05 * w, "loss_ci": 0.02,
                "delay_mean": 0.7, "delay_ci": 0.05,
                "jitter_mean": 0.1, "jitter_ci": 0.01,
                "ts_mean": 0.1 * w, "ts_ci": 0.02,
                "decodable_mean": 0.8, "decodable_ci": 0.02})
        return table

    def test_report_files_and_rows(self, tmp_path):
        files = write_report(self.synth_table(), str(tmp_path))
        assert len(files) == 2
        loss_rows = list(csv.DictReader(
            (tmp_path / "loss_ts_mu1_den100.csv").read_text().splitlines()))
        assert len(loss_rows) == 7
        for row in loss_rows:
            assert 0.0 <= float(row["loss_mean"]) <= 1.0
            assert 0.0 <= float(row["ts_mean"]) <= 4.0
        delay_rows = list(csv.DictReader(
            (tmp_path / "delay_mu1_den100.csv").read_text().splitlines()))
        assert [float(r["w_ts"]) for r in delay_rows] == [
            0.0, 0.125, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_aggregate_sweep_groups_points(self):
        rows = [{"w_ts": 0.0, "mu_ts": 1.0, "density": 100, "rep": r,
                 "seed": r, "config_hash": "x", "loss": 0.1 * r, "delay": 0.5,
                 "jitter": 0.1, "ts": 1.0, "decodable": 0.9}
                for r in range(4)]
        table = aggregate_sweep(rows, confidence=0.90)
        assert len(table) == 1
        assert table[0]["repetitions"] == 4
        assert table[0]["loss_mean"] == pytest.approx(0.15)


class TestCli:
    def test_gen_scenario_then_simulate(self, tmp_path):
        scen_dir = tmp_path / "scenarios"
        assert cli_main(["gen-scenario", "--density", "100", "--mu", "2",
                         "--out", str(scen_dir)]) == 0
        config_path = scen_dir / "scenario_den100_mu2.yaml"
        assert config_path.exists()
        config = load_config_file(config_path)
        assert config.node_count == 27
        assert config.social.mu_ts == 2.0

    def test_simulate_runs_and_writes(self, tmp_path):
        config_path = tmp_path / "tiny.yaml"
        config_path.write_text(
            "nodes: 12\nduration_s: 8\nmaster_seed: 3\n"
            "area_width_m: 350\narea_height_m: 350\n")
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "result.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "3"), ("--mobility-trace", "trace.txt"),
        ("--ts-matrix", "ts.txt"), ("--video-trace", "frames.txt")])
    def test_simulate_takes_nothing_but_its_config(self, tmp_path, capsys,
                                                   flag, value):
        # the seed and input files are keys of the config file, so the
        # file describes the run that wrote the outputs
        config_path = tmp_path / "tiny.yaml"
        config_path.write_text("nodes: 12\nduration_s: 8\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli_main(["simulate", "--config", str(config_path),
                      "--out", str(out), flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_help_lists_config_and_out(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["simulate", "--help"])
        assert info.value.code == 0
        options = set(re.findall(r"(?<![\w-])--[a-z-]+",
                                 capsys.readouterr().out))
        assert options == {"--help", "--config", "--out"}

    def test_report_command(self, tiny_sweep, tmp_path):
        sweep_out, _, _, _ = tiny_sweep
        fig_dir = tmp_path / "figures"
        code = cli_main(["report", "--in", str(sweep_out),
                         "--out", str(fig_dir)])
        assert code == 0
        assert list(fig_dir.glob("*.csv"))

    @pytest.mark.parametrize("case", ["short-row", "missing-column",
                                      "header-only", "empty"])
    def test_report_rejects_what_is_not_a_sweep_table(self, tmp_path, capsys,
                                                      case):
        row = ["0.2", "3.0", "100", "2"] + ["0.5"] * (len(SWEEP_FIELDS) - 4)
        lines = {"short-row": [SWEEP_FIELDS, row, row[:-1]],
                 "missing-column": [SWEEP_FIELDS[:-1], row[:-1]],
                 "header-only": [SWEEP_FIELDS],
                 "empty": []}[case]
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        (sweep_dir / "sweep_table.csv").write_text(
            "".join(",".join(line) + "\n" for line in lines))
        fig_dir = tmp_path / "figures"
        code = cli_main(["report", "--in", str(sweep_dir),
                         "--out", str(fig_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not fig_dir.exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text("scoring: {w_ts: 2.0}\n")
        code = cli_main(["simulate", "--config", str(config_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


IMPORT_GUARD = """
import sys
from manetsim.cli import main
config, grid, out = sys.argv[1:]
assert main(["simulate", "--config", config, "--out", out + "/sim"]) == 0
assert main(["sweep", "--config", config, "--grid", grid, "--workers", "1",
             "--out", out + "/sweep"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]))
"""


class TestImportPath:
    def test_commands_do_not_load_scipy_stats(self, tmp_path):
        # scipy.stats takes most of a second to import; the CLI needs
        # only scipy.special
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("nodes: 10\nduration_s: 5\n"
                               "area_width_m: 350\narea_height_m: 350\n")
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text("w_ts: [0.2]\nmu_ts: [3.0]\ndensity: [100]\n"
                             "repetitions: 2\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, str(config_path),
             str(grid_path), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sim" / "result.csv").exists()
        assert (tmp_path / "sweep" / "sweep_table.csv").exists()
        assert proc.stdout.splitlines()[-1] == "[]"


MODEL_GUARD = """
import sys
from manetsim.config import RunConfig
from manetsim.simulation import run_simulation
run_simulation(RunConfig(duration_s=5.0))
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


class TestModelImports:
    def test_a_run_loads_neither_numpy_nor_scipy(self):
        # the model is plain Python: only the harness's Student-t interval
        # needs scipy, which brings numpy with it
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", MODEL_GUARD],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


FREEZE_CHECK = """
import gc
from manetsim import cli
seen = []
cli._cmd_report = lambda args: seen.append(gc.get_freeze_count()) or 0
before = gc.get_freeze_count()
assert cli.main(["report", "--in", "unused"]) == 0
print(before, seen[0])
"""


class TestGcFreeze:
    def test_command_runs_with_the_imports_frozen(self):
        # the import-time objects stay out of the collections a run starts
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", FREEZE_CHECK],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, during = map(int, proc.stdout.split())
        assert before == 0
        assert during > 10_000


SIMULATE = """
import sys
from manetsim.cli import main
sys.exit(main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_process(self, tmp_path):
        # packet classes hash by identity, and strings by PYTHONHASHSEED:
        # both differ between processes, and no output may follow them
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("nodes: 14\nduration_s: 15\nmaster_seed: 5\n"
                               "area_width_m: 400\narea_height_m: 400\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hashseed{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-c", SIMULATE, str(config_path), str(out)],
                env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                         PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_text() for name in
                            ("result.csv", "protocol_log.csv")])
        assert outputs[0] == outputs[1]
        result, log = outputs[0]
        assert len(result.splitlines()) > 2 and len(log.splitlines()) > 2


class TestCliFileInterfaces:
    @staticmethod
    def write_config(tmp_path, nodes=4, mobility=None, social=None,
                     video=None):
        """One 6 s video flow, and each input file given as the path its
        section's file key names."""
        sections = {"mobility": f"trace: {mobility}" if mobility else "",
                    "social": f"matrix: {social}" if social else "",
                    "video": "flows: 1" + (f", trace: {video}"
                                           if video else ""),
                    "cbr": "flows: 0"}
        path = tmp_path / "cfg.yaml"
        path.write_text(f"nodes: {nodes}\nduration_s: 6\n" + "".join(
            f"{name}: {{{keys}}}\n" for name, keys in sections.items()
            if keys))
        return path

    @staticmethod
    def command_args(command, tmp_path):
        if command == "simulate":
            return []
        grid = tmp_path / "grid.yaml"
        grid.write_text("w_ts: [0.2]\nmu_ts: [3.0]\ndensity: [100]\n")
        return ["--grid", str(grid), "--reps", "2", "--workers", "1"]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_directory_as_config_fails_cleanly(self, tmp_path, capsys,
                                               command):
        code = cli_main([command, "--config", str(tmp_path),
                         "--out", str(tmp_path / "out")]
                        + self.command_args(command, tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_regular_file_as_out_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, command):
        ran = []
        monkeypatch.setattr(harness, "run_simulation",
                            lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "out"
        out.write_text("kept\n")
        code = cli_main([command, "--config",
                         str(self.write_config(tmp_path)), "--out", str(out)]
                        + self.command_args(command, tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept\n"
        assert not ran

    def test_simulate_reads_the_mobility_trace_key(self, tmp_path):
        trace_path = tmp_path / "trace.txt"
        trace_path.write_text(
            "0.0 100.0 100.0 6.0 106.0 100.0\n"
            "0.0 150.0 100.0\n"
            "0.0 150.0 150.0\n"
            "0.0 100.0 150.0\n")
        config_path = self.write_config(tmp_path, mobility=trace_path)
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "result.csv").exists()

    def test_simulate_reads_the_ts_matrix_key(self, tmp_path):
        matrix_path = tmp_path / "ts.txt"
        matrix_path.write_text(
            "4\n0 4 4 4\n4 0 4 4\n4 4 0 4\n4 4 4 0\n")
        config_path = self.write_config(tmp_path, social=matrix_path)
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        log = (out / "protocol_log.csv").read_text()
        # with an all-4 matrix every selected path reports tie strength 4
        ts_cells = [line.rsplit(",", 1)[1] for line in log.splitlines()[1:]
                    if line.rsplit(",", 1)[1]]
        assert ts_cells and all(float(c) == 4.0 for c in ts_cells)

    @pytest.mark.parametrize("size", [5, 30], ids=["smaller", "larger"])
    def test_ts_matrix_of_another_size_fails_before_the_run(
            self, tmp_path, capsys, size):
        matrix_path = tmp_path / "ts.txt"
        matrix_path.write_text(f"{size}\n" + "".join(
            " ".join("0" if i == j else "4" for j in range(size)) + "\n"
            for i in range(size)))
        config_path = self.write_config(tmp_path, nodes=12,
                                        social=matrix_path)
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"is {size} x {size}" in err
        assert not (out / "result.csv").exists()

    @staticmethod
    def write_trace(tmp_path, nodes):
        path = tmp_path / "trace.txt"
        path.write_text("".join(f"0.0 {50.0 + 60.0 * i} 100.0\n"
                                for i in range(nodes)))
        return path

    @pytest.mark.parametrize("entry", ["simulate", "SimulationRun(config)"])
    def test_mobility_trace_of_another_size_fails_before_the_run(
            self, tmp_path, capsys, entry):
        trace_path = self.write_trace(tmp_path, 6)
        config_path = self.write_config(tmp_path, nodes=8, mobility=trace_path)
        out = tmp_path / "out"
        if entry == "simulate":
            code = cli_main(["simulate", "--config", str(config_path),
                             "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: mobility.trace ")
            assert not (out / "result.csv").exists()
        else:
            with pytest.raises(ConfigError) as info:
                SimulationRun(load_config_file(config_path))
            err = str(info.value)
        assert "has 6 nodes" in err and "the run has 8" in err

    @pytest.mark.parametrize("key", ["mobility", "social"])
    def test_sweep_input_of_one_density_fails_before_any_run(
            self, tmp_path, capsys, key):
        # density 100 gives 27 nodes and 200 gives 54: a file of 6 or 27
        # nodes fits at most the first, so the sweep must not start
        if key == "mobility":
            entry = f"trace: {self.write_trace(tmp_path, 6)}"
        else:
            matrix = tmp_path / "ts.txt"
            matrix.write_text("27\n" + "".join(
                " ".join("0" if i == j else "3" for j in range(27)) + "\n"
                for i in range(27)))
            entry = f"matrix: {matrix}"
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text(f"duration_s: 2\n{key}: {{{entry}}}\n")
        grid = tmp_path / "grid.yaml"
        grid.write_text("w_ts: [0.0]\nmu_ts: [3.0]\ndensity: [100, 200]\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path),
                         "--grid", str(grid), "--reps", "2", "--workers",
                         "1", "--out", str(out)])
        assert code == 2
        assert not (out / "runs").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}." in err

    def test_simulate_reads_the_video_trace_key(self, tmp_path):
        frames = tmp_path / "frames.txt"
        frames.write_text("0, I, 3000\n1, B, 500\n2, B, 400\n3, P, 1200\n")
        config_path = self.write_config(tmp_path, video=frames)
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "result.csv").exists()

    @pytest.mark.parametrize("entry", ["simulate", "SimulationRun(config)"])
    @pytest.mark.parametrize("section,text,message", [
        ("mobility", "0.0 100.0\n", "line 1"),
        ("social", "4\n0 4 4 4\n4 0 4 4\n4 4 0 9\n4 4 4 0\n",
         "lie in [0, 4]"),
    ], ids=["trace", "matrix-entry-9"])
    def test_malformed_input_fails_cleanly(self, tmp_path, capsys, entry,
                                           section, text, message):
        input_path = tmp_path / "input.txt"
        input_path.write_text(text)
        config_path = self.write_config(tmp_path, **{section: input_path})
        if entry == "simulate":
            code = cli_main(["simulate", "--config", str(config_path),
                             "--out", str(tmp_path / "out")])
            assert code == 2
            assert message in capsys.readouterr().err
            return
        with pytest.raises(ValueError, match=re.escape(message)):
            SimulationRun(load_config_file(config_path))

    @pytest.mark.parametrize("entry", ["simulate", "sweep",
                                       "SimulationRun(config)"])
    @pytest.mark.parametrize("section,text,why", [
        ("mobility", "0.0 100.0\n",
         "line 1: expected repeating 'time x y' triples, got 2 fields"),
        ("social", "2\n0 1\n1 x\n", "line 3: expected 2 integers, got 1 x"),
        ("video", "0 I 2000\n1 P 1.5\n",
         "line 2: expected 'index type size', index and size integers"),
        ("mobility", None, "No such file or directory"),
    ], ids=["trace-pair", "matrix-row", "frame-size", "missing-trace"])
    def test_bad_input_file_is_named_by_its_key_and_path(
            self, tmp_path, capsys, entry, section, text, why):
        key = {"mobility": "mobility.trace", "social": "social.matrix",
               "video": "video.trace"}[section]
        input_path = tmp_path / "input.txt"
        if text is not None:
            input_path.write_text(text)
        config_path = self.write_config(tmp_path, **{section: input_path})
        message = f"{key} {input_path}: {why}"
        if entry == "SimulationRun(config)":
            with pytest.raises(ConfigError) as info:
                SimulationRun(load_config_file(config_path))
            assert str(info.value) == message
            return
        out = tmp_path / "out"
        code = cli_main([entry, "--config", str(config_path),
                         "--out", str(out)]
                        + self.command_args(entry, tmp_path))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.glob("*"))  # no run directory, no result

    def test_run_simulation_reads_the_files_the_config_names(self,
                                                             tmp_path):
        # the same bytes as `manetsim simulate` of the same config file
        trace_path = tmp_path / "trace.txt"
        trace_path.write_text("0.0 100.0 100.0 6.0 106.0 100.0\n"
                              "0.0 150.0 100.0\n0.0 150.0 150.0\n"
                              "0.0 100.0 150.0\n")
        matrix_path = tmp_path / "ts.txt"
        matrix_path.write_text("4\n0 4 1 4\n2 0 4 0\n4 3 0 4\n4 1 4 0\n")
        frames_path = tmp_path / "frames.txt"
        frames_path.write_text("0, I, 9000\n1, B, 500\n2, B, 400\n"
                               "3, P, 1200\n")
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text(
            "nodes: 4\nduration_s: 6\nvideo: {flows: 1, "
            f"trace: {frames_path}}}\ncbr: {{flows: 0}}\n"
            f"mobility: {{trace: {trace_path}}}\n"
            f"social: {{matrix: {matrix_path}}}\n")
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(config_path),
                         "--out", str(out)]) == 0
        result, log_rows = run_simulation(load_config_file(config_path))
        assert result_csv_text(result) == (out / "result.csv").read_text()
        assert protocol_log_csv_text(log_rows) == (
            out / "protocol_log.csv").read_text()

    @pytest.mark.parametrize("mobility", ["max_speed_mps: 0.0",
                                          "warmup_s: -1.0"],
                             ids=["zero-max-speed", "negative-warmup"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_mobility_value_that_breaks_the_run_fails_before_it(
            self, tmp_path, capsys, command, mobility):
        # with a trace no walk is generated, so only the config boundary
        # can catch the value before path qualification divides by the
        # speed or the warm-up is silently ignored
        trace_path = tmp_path / "trace.txt"
        trace_path.write_text("0.0 100.0 100.0\n0.0 150.0 100.0\n"
                              "0.0 150.0 150.0\n0.0 100.0 150.0\n")
        trace = f", trace: {trace_path}" if command == "simulate" else ""
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text(
            f"nodes: 4\nduration_s: 6\nmobility: {{{mobility}{trace}}}\n"
            "video: {flows: 1}\ncbr: {flows: 0}\n")
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(config_path),
                         "--out", str(out)]
                        + self.command_args(command, tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and mobility.split(":")[0] in err
        assert not (out / "result.csv").exists()
        assert not (out / "runs").exists()


class TestGridFile:
    def write_grid(self, tmp_path, text):
        path = tmp_path / "grid.yaml"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("text", [
        "w_ts: 0.5\n",
        "w_ts: [0.0]\nw_ts: [1.0]\n",
        "w_ts: [0.0\n",
        "mu_ts: [high]\n",
        "w_ts: [true]\n",
        "density: [100.0]\n",
        "density: []\n",
        "repetitions: 2.5\n",
        # a repeated value would run each of its runs twice, into one
        # directory, and count it twice in the sweep table
        "w_ts: [0, 0.0]\nmu_ts: [3]\ndensity: [100]\n",
        "w_ts: [0]\nmu_ts: [3, 3.0]\ndensity: [100]\n",
        "w_ts: [0]\nmu_ts: [3]\ndensity: [100, 100]\n",
    ], ids=["scalar", "duplicate-key", "yaml-syntax", "string", "bool",
            "float-density", "empty-list", "float-repetitions",
            "repeated-w_ts", "repeated-mu_ts", "repeated-density"])
    def test_bad_grid_fails_cleanly(self, tmp_path, capsys, text):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("nodes: 6\nduration_s: 2\n")
        code = cli_main(["sweep", "--config", str(config_path),
                         "--grid", self.write_grid(tmp_path, text),
                         "--reps", "2", "--workers", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_range_point_fails_before_any_run(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("duration_s: 2\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path),
                         "--grid", self.write_grid(
                             tmp_path, "w_ts: [0.0, 1.5]\nmu_ts: [2.0]\n"
                             "density: [100]\n"),
                         "--reps", "2", "--workers", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "runs").exists()

    def test_too_few_nodes_for_the_flows_fail_before_any_run(self, tmp_path,
                                                             capsys):
        # density 5 puts one node in the default area, which cannot hold
        # the default flows' six endpoints
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("duration_s: 2\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path),
                         "--grid", self.write_grid(
                             tmp_path, "w_ts: [0.0]\nmu_ts: [2.0]\n"
                             "density: [100, 5]\n"),
                         "--reps", "2", "--workers", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "node_count = 1 is below 6" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_fail_before_any_run(self, tmp_path, capsys,
                                                   workers):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("nodes: 6\nduration_s: 2\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path),
                         "--reps", "2", "--workers", workers,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "workers" in err
        assert not out.exists()

    def test_non_finite_point_fails_before_any_run(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.yaml"
        config_path.write_text("duration_s: 2\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path),
                         "--grid", self.write_grid(
                             tmp_path, "w_ts: [0.0]\nmu_ts: [.nan]\n"
                             "density: [100]\n"),
                         "--reps", "2", "--workers", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "social.mu_ts" in err
        assert not (out / "runs").exists()

    def test_int_and_float_values_name_the_same_runs(self):
        ints = harness.load_grid("w_ts: [0, 1]\nmu_ts: [2]\ndensity: [100]\n")
        floats = harness.load_grid(
            "w_ts: [0.0, 1.0]\nmu_ts: [2.0]\ndensity: [100]\n")
        assert ([scenario_seed(1, mu, den, 0) for _, mu, den in ints.points()]
                == [scenario_seed(1, mu, den, 0)
                    for _, mu, den in floats.points()])
        assert list(map(repr, ints.points())) == [
            "(0.0, 2.0, 100)", "(1.0, 2.0, 100)"]

    def test_every_grid_key_sets_its_field(self):
        assert harness.load_grid(
            "w_ts: [0, 1]\nmu_ts: [2]\ndensity: [100]\nrepetitions: 3\n"
            "confidence: 0.95\n") == SweepSpec(
                w_ts=(0.0, 1.0), mu_ts=(2.0,), density=(100,), repetitions=3,
                confidence=0.95)

    def test_readme_lists_the_sweep_spec_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = re.search(r"The `--grid` file .*?\n\n", readme,
                              re.S).group(0)
        assert (set(re.findall(r"`([a-z_]+)`", paragraph))
                == {f.name for f in dataclasses.fields(SweepSpec)})
