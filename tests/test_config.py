import re
from pathlib import Path

import pytest

from manetsim.config import (CbrConfig, ConfigError, MacConfig, RunConfig,
                             VideoConfig, dump_config, load_config)
from manetsim.harness import point_config
from manetsim.radio import RadioSpec
from manetsim.simulation import run_simulation


class TestDefaults:
    def test_minimal_density_file(self):
        config = load_config("density: 100\n")
        assert config.node_count == 27
        assert config.area_width_m == 520.0
        assert config.area_height_m == 520.0
        assert config.duration_s == 200.0
        assert config.mobility.max_speed_mps == 2.0
        assert config.radio.tx_range_m == 120.0
        assert config.radio.nominal_bitrate_bps == 11e6
        assert config.radio.noise_floor_dbm == -92.0
        assert config.mac.queue_capacity == 50
        assert config.video.target_rate_bps == 150_000.0
        assert config.video.max_packet_bytes == 1500
        assert config.cbr.rate_bps == 300_000.0
        assert config.w_ts == 0.0
        assert config.social.sigma_ts == 1.0
        assert config.beacon_period_s == 1.0

    def test_density_200(self):
        assert load_config("density: 200\n").node_count == 54

    def test_empty_config_is_all_defaults(self):
        assert load_config("") == RunConfig()

    def test_nodes_key(self):
        assert load_config("nodes: 40\n").node_count == 40

    def test_readme_defaults_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        assert load_config(block) == RunConfig()


class TestValidation:
    def test_w_ts_range(self):
        with pytest.raises(ConfigError, match="w_ts"):
            load_config("scoring: {w_ts: 1.3}\n")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="duration_s"):
            load_config("duration_s: 10\nduration_s: 20\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="radio.frequency"):
            load_config("radio: {frequency: 2.4e9}\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="turbo"):
            load_config("turbo: true\n")

    def test_density_and_nodes_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            load_config("density: 100\nnodes: 27\n")

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="duration_s"):
            load_config("duration_s: fast\n")

    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            load_config("duration_s: -5\n")

    def test_zero_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            load_config("social: {sigma_ts: 0.0}\n")

    def test_bad_gop_pattern(self):
        with pytest.raises(ConfigError, match="video"):
            load_config("video: {pattern: BIP}\n")

    @pytest.mark.parametrize("text", [
        "duration_s: null\n",
        "scoring: {w_ts: null}\n",
        "radio: {tx_range_m: null}\n",
        "routing: {ttl: null}\n",
        "mobility: {max_speed_mps: null}\n",
        "mobility: 5\n",
        "cbr: {refresh_s: 0.0}\n",
        "routing: {beacon_period_s: 0.0}\n",
        "routing: {beta_tune: 1.0}\n",
        "routing: {pm_train: 0}\n",
        "routing: {max_paths: 0}\n",
        "routing: {ttl: 0}\n",
        "mac: {queue_capacity: 0}\n",
        "video: {max_packet_bytes: 0}\n",
        "mac: {access_delay_s: -0.01}\n",
        "video: {start_s: -1.0}\n",
        "routing: {pm_spacing_s: -0.01}\n",
        "routing: {decision_delay_s: -1.0}\n",
        "routing: {decision_delay_s: 0.0}\n",
        "routing: {probe_window_s: 0.0}\n",
        "routing: {beacon_bytes: -32}\n",
        "routing: {pm_bytes: -64}\n",
        "routing: {pmr_bytes: -128}\n",
        "video: {flows: -1}\n",
        "cbr: {flows: -1}\n",
        "flow_min_hops: 0\n",
        "mobility: {min_speed_fraction: 2.0}\n",
        "mobility: {pause_s: -1.0}\n",
    ], ids=["null-duration", "null-w_ts", "null-tx_range", "null-ttl",
            "null-max_speed", "scalar-section", "zero-cbr-refresh",
            "zero-beacon-period", "t_routing-below-decision-delay",
            "zero-probe-train", "zero-max-paths", "zero-ttl",
            "zero-queue-capacity", "zero-packet-bytes",
            "negative-access-delay", "negative-video-start",
            "negative-pm-spacing", "negative-decision-delay",
            "zero-decision-delay", "zero-probe-window",
            "negative-beacon-bytes", "negative-pm-bytes",
            "negative-pmr-bytes", "negative-video-flows",
            "negative-cbr-flows", "zero-flow-min-hops",
            "min-speed-above-max", "negative-pause"])
    def test_value_that_would_crash_or_hang_the_run(self, text):
        with pytest.raises(ConfigError):
            load_config(text)

    def test_zero_sizes_and_delays_stay_legal(self):
        # zero air time for signalling, no access delay and no spacing are
        # idealisations the model can run; only negative values break it
        config = load_config(
            "nodes: 10\nduration_s: 5\nmac: {access_delay_s: 0.0}\n"
            "video: {start_s: 0.0}\nrouting: {beacon_bytes: 0, pm_bytes: 0, "
            "pmr_bytes: 0, pm_spacing_s: 0.0}\n")
        result, _ = run_simulation(config)
        assert result.total_generated > 0

    @pytest.mark.parametrize("cls, kwargs, match", [
        (MacConfig, {"queue_capacity": 0}, "queue_capacity"),
        (VideoConfig, {"pattern": "BIP"}, "I frame"),
        (CbrConfig, {"rate_bps": 0.0}, "rate"),
        (CbrConfig, {"refresh_s": 0.0}, "refresh_s"),
        (RunConfig, {"beacon_period_s": 0.0}, "beacon_period_s"),
        (RunConfig, {"beta_tune": 1.0}, "decision_delay_s"),
    ])
    def test_python_built_config_is_checked_too(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    def test_derived_tx_power_is_not_an_argument(self):
        with pytest.raises(TypeError):
            RadioSpec(tx_power_dbm=5.0)


class TestRoundTrip:
    def test_dump_then_load(self):
        config = point_config(RunConfig(), 0.4, 3.0, 200, 9)
        assert load_config(dump_config(config)) == config

    def test_scenario_config_values(self):
        config = point_config(RunConfig(), 0.0, 2.0, 100, 1)
        assert config.node_count == 27
        assert config.social.mu_ts == 2.0
        assert config.social.sigma_ts == 1.0

    def test_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != a.replace(master_seed=2).config_hash()

    def test_replace_keeps_other_fields(self):
        c = RunConfig().replace(w_ts=0.6)
        assert c.w_ts == 0.6
        assert c.node_count == RunConfig().node_count
