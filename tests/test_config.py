import csv
import hashlib
import io
import math
import re
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from manetsim.config import (_KEYS, CbrConfig, ConfigError, MacConfig,
                             RunConfig, VideoConfig, _field_type, dump_config,
                             load_config, nodes_at_density, parse_config)
from manetsim.harness import (point_config, protocol_log_csv_text,
                              result_csv_text)
from manetsim.radio import RadioSpec
from manetsim.simulation import SimulationRun, run_simulation


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
        assert config.radio.path_loss_exponent == 3.0
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


class TestNodesAtDensity:
    def test_rounds_to_node_count(self):
        assert nodes_at_density(520.0, 520.0, 100) == 27
        assert nodes_at_density(520.0, 520.0, 200) == 54
        assert nodes_at_density(520.0, 520.0, 0.1) == 1  # never empty

    def test_zero_nodes_rejected_by_key(self):
        with pytest.raises(ConfigError, match="node_count = 0"):
            RunConfig(node_count=0)


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

    @pytest.mark.parametrize("key", ["noise_floor_dbm", "snr_threshold_db",
                                     "ref_loss_db"])
    def test_removed_radio_key_is_unknown(self, key):
        # these cancelled out of every margin, so no run could show them
        with pytest.raises(ConfigError,
                           match=re.escape(f"unknown key 'radio.{key}'")):
            load_config(f"radio: {{{key}: 1.0}}\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="turbo"):
            load_config("turbo: true\n")

    def test_density_and_nodes_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            load_config("density: 100\nnodes: 27\n")

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="duration_s"):
            load_config("duration_s: fast\n")

    @pytest.mark.parametrize("text, path, value", [
        ("video: {target_rate_bps: 2.5e6}\n", "video.target_rate_bps", 2.5e6),
        ("duration_s: 1e2\n", "duration_s", 100.0),
        ("mac: {access_delay_s: 6e-3}\n", "mac.access_delay_s", 0.006),
        ("duration_s: .5e2\n", "duration_s", 50.0),
        ("scoring: {w_ts: 2E-1}\n", "w_ts", 0.2),
        ("duration_s: +1.5e+1\n", "duration_s", 15.0),
    ])
    def test_float_notations(self, text, path, value):
        # YAML 1.2's floats; YAML 1.1 reads all but the last as strings
        config = load_config(text)
        assert attrgetter(path)(config) == value
        assert type(attrgetter(path)(config)) is float

    def test_float_notation_is_no_int(self):
        with pytest.raises(ConfigError, match="nodes: expected int, got 100"):
            load_config("nodes: 1e2\n")
        assert load_config("nodes: 100\n").node_count == 100
        # the loader's rule only: PyYAML's own SafeLoader is left as it was
        assert yaml.safe_load("v: 1e2") == {"v": "1e2"}

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
        "radio: {corruption_span_db: 0.0}\n",
        "video: {fps: 1.0e-9}\n",
        # YAML 1.1 reads an exponent without its sign, 1.0e15, as a string
        "video: {target_rate_bps: 1.0e+15}\n",
        # one event per CBR packet: at 200 s this would take about a day
        "cbr: {rate_bps: 1.0e+12}\n",
        # nan passes the range checks, and an infinite duration walks the
        # waypoint generator forever
        "duration_s: .inf\n",
        "duration_s: .nan\n",
        "area_width_m: .nan\n",
        "radio: {tx_range_m: .nan}\n",
        "mac: {access_delay_s: .nan}\n",
        "social: {mu_ts: .nan}\n",
        "video: {sigma_log: .nan}\n",
        "density: .nan\n",
        "density: .inf\n",
        # a periodic process faster than its frames can be served: at 6
        # nodes and 0.4 s these made 24,287, 80,163 and 4,182 events
        "routing: {beacon_period_s: 1.0e-4}\n",
        "video: {fps: 1.0e+3}\n",
        "cbr: {refresh_s: 1.0e-4}\n",
        "cbr: {packet_bytes: 1}\n",
        "routing: {pm_train: 1000}\n",
        # beacons of 12 nodes on a channel that serves 12,000 frames/s, and
        # an iteration every 0.3 ms: found in 10 s runs of 12 nodes
        "nodes: 12\nmac: {access_delay_s: 6.0e-5}\n"
        "routing: {beacon_period_s: 1.0e-4}\n",
        "routing: {beta_tune: 3.0e-4, decision_delay_s: 2.0e-4}\n",
        # frames of under a byte: the size draw took the log of 0
        "video: {fps: 1.0e+5}\n",
        "video: {target_rate_bps: 5.0e-324}\n",
        # the waypoint walk never moved its clock
        "area_width_m: 5.0e-324\narea_height_m: 5.0e-324\n",
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
            "min-speed-above-max", "negative-pause", "zero-corruption-span",
            "tiny-fps", "huge-target-rate", "huge-cbr-rate",
            "infinite-duration",
            "nan-duration", "nan-area-width", "nan-tx-range",
            "nan-access-delay", "nan-mu_ts", "nan-sigma_log", "nan-density",
            "infinite-density", "beacon-period-below-service",
            "fps-above-frame-service", "cbr-refresh-below-packet-interval",
            "cbr-burst-above-queue", "probes-outlast-window",
            "beacons-above-shared-channel", "decision-before-window",
            "frames-below-one-byte", "denormal-target-rate",
            "denormal-area"])
    def test_value_that_would_crash_or_hang_the_run(self, text):
        with pytest.raises(ConfigError):
            load_config(text)

    def test_every_float_key_must_be_finite(self):
        texts = [f"{section}: {{{key}: {value}}}\n" if section
                 else f"{key}: {value}\n"
                 for section, key, path in _KEYS
                 if _field_type(path)[0] is float
                 for value in (".nan", ".inf", "-.inf")]
        assert texts

        def loads(text):
            try:
                load_config(text)
            except ConfigError:
                return False
            return True

        assert [text for text in texts if loads(text)] == []

    def test_mean_i_frame_up_to_the_queue_capacity(self):
        # 12-frame GoP of 19 size units, I = 5 units: at 25 fps a target of
        # 4.75 Mb/s makes the mean I frame exactly 50 packets of 1500 bytes
        edge = 4.75e6
        assert VideoConfig(target_rate_bps=edge).mean_sizes()["I"] == 75000.0
        RunConfig(video=VideoConfig(target_rate_bps=edge))
        above = VideoConfig(target_rate_bps=math.nextafter(edge, math.inf))
        with pytest.raises(ConfigError, match="mean I frame"):
            RunConfig(video=above)
        # the rule counts against the configured queue and packet size
        RunConfig(video=above, mac=MacConfig(queue_capacity=51))
        with pytest.raises(ConfigError, match="mean I frame"):
            RunConfig(video=VideoConfig(target_rate_bps=edge,
                                        max_packet_bytes=1499))
        # without flows, or with a frame trace, nothing is drawn from it
        RunConfig(video=replace(above, flows=0))
        RunConfig(video=replace(above, trace="frames.csv"))

    def test_cbr_rate_up_to_the_radio_bitrate(self):
        edge = RadioSpec().nominal_bitrate_bps
        RunConfig(cbr=CbrConfig(rate_bps=edge))
        above = CbrConfig(rate_bps=math.nextafter(edge, math.inf))
        with pytest.raises(ConfigError, match="cbr.rate_bps .* above "
                                              "radio.nominal_bitrate_bps"):
            RunConfig(cbr=above)
        # the rule counts against the configured radio, and only with flows
        RunConfig(cbr=above, radio=RadioSpec(nominal_bitrate_bps=2 * edge))
        RunConfig(cbr=replace(above, flows=0))

    def test_periodic_processes_up_to_their_service_time(self):
        # each rule admits its edge and rejects the next float past it
        # 27 nodes' beacons per period on one shared channel
        beacons = 27 * (0.006 + 32 * 8 / 11e6)
        RunConfig(beacon_period_s=beacons)
        with pytest.raises(ConfigError, match="beacon_period_s .* below nodes "
                                              "= 27 times one beacon's"):
            RunConfig(beacon_period_s=math.nextafter(beacons, 0.0))
        RunConfig(beacon_period_s=beacons / 2, node_count=13)
        # a reply held to the window's end must precede the decision
        RunConfig(probe_window_s=2.0)
        with pytest.raises(ConfigError, match="decision_delay_s = 2.0 is "
                                              "below probe_window_s"):
            RunConfig(probe_window_s=math.nextafter(2.0, math.inf))
        # the mean frame is 150 kb/s / fps / 8 bytes: at load 1 it takes
        # 6 ms + 150e3 / (fps * 11e6), so 1 / fps may fall to that
        fps = (1.0 - 150e3 / 11e6) / 0.006
        with pytest.raises(ConfigError, match="video.fps .* above one frame "
                                              "per service time"):
            RunConfig(video=VideoConfig(fps=fps * (1.0 + 1e-9)))
        RunConfig(video=VideoConfig(fps=fps * (1.0 - 1e-9)))
        RunConfig(video=VideoConfig(fps=fps * 2, flows=0))
        interval = CbrConfig().interval
        RunConfig(cbr=CbrConfig(refresh_s=interval))
        with pytest.raises(ConfigError, match="cbr.refresh_s .* below the "
                                              "packet interval"):
            RunConfig(cbr=CbrConfig(refresh_s=math.nextafter(interval, 0.0)))
        RunConfig(cbr=CbrConfig(refresh_s=1e-4, flows=0))
        # 1-byte CBR packets: 50 slots per 6.0007 ms of service
        burst = 8 / ((0.006 + 8 / 11e6) / 50)
        RunConfig(cbr=CbrConfig(packet_bytes=1, rate_bps=burst * 0.999))
        with pytest.raises(ConfigError, match="times mac.queue_capacity"):
            RunConfig(cbr=CbrConfig(packet_bytes=1, rate_bps=burst * 1.001))
        # 10 x 16 probes of 6.0465 ms fit a 1 s window, 10 x 17 do not
        RunConfig(pm_train=16)
        with pytest.raises(ConfigError, match="probes do not leave the "
                                              "source within probe_window_s"):
            RunConfig(pm_train=17)
        RunConfig(area_width_m=1.0, area_height_m=1.0)
        with pytest.raises(ConfigError, match="area_width_m and area_height_m"):
            RunConfig(area_width_m=math.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("text, key", [
        ("area_width_m: 0.0\n", "area_width_m"),
        ("video: {max_packet_bytes: 1}\n", "max_packet_bytes"),
        # a second I frame would open a GoP only in a frame trace
        ("video: {pattern: IBBIBB}\n", "pattern"),
        # a margin that rises with distance puts every hop at
        # max_corruption_prob
        ("radio: {path_loss_exponent: -3.0}\n", "path_loss_exponent"),
        ("radio: {path_loss_exponent: 0.0}\n", "path_loss_exponent"),
        # the count the file set, or the one its density gives; the prose
        # of the message says "nodes" too, so the key must lead it
        ("nodes: 0\n", "^nodes = 0 is below 6"),
        ("density: 1\n", "^density = 1 gives nodes = 1 is below 6"),
    ])
    def test_rejection_names_the_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
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

    def test_default_config_contract_is_pinned(self):
        # the hash names every run in a sweep manifest, and the dump is the
        # text gen-scenario writes: neither may move without a reason
        assert RunConfig().config_hash() == (
            "88e3e5d8666c69c4642b8c21e9fd8a748f3f3f4cbc58f335f489b3fcc4ae400c")
        dumped = dump_config(RunConfig()).encode()
        assert hashlib.sha256(dumped).hexdigest() == (
            "46a7d33444c9f49e6819dbb25345b76b1586d79b9cc4a9a6aae8cbe11bd7ea8b")
        assert len(_KEYS) == 50

    def test_replace_keeps_other_fields(self):
        c = RunConfig().replace(w_ts=0.6)
        assert c.w_ts == 0.6
        assert c.node_count == RunConfig().node_count


# The legal range of each key, in interval notation; a key left out takes
# any finite value.  ``nodes`` and ``duration_s`` are held to a small run,
# so nothing past their upper ends is drawn.
RANGES = {
    "area_width_m": "(0, inf)", "area_height_m": "(0, inf)",
    "nodes": "[2, 12]", "duration_s": "(0, 10]", "flow_min_hops": "[1, inf)",
    "mobility.max_speed_mps": "(0, inf)", "mobility.pause_s": "[0, inf)",
    "mobility.min_speed_fraction": "[0, 1]", "mobility.warmup_s": "[0, inf)",
    "radio.tx_range_m": "(0, inf)", "radio.path_loss_exponent": "(0, inf)",
    "radio.nominal_bitrate_bps": "(0, inf)",
    "radio.max_corruption_prob": "[0, 1]",
    "radio.corruption_span_db": "(0, inf)",
    "mac.queue_capacity": "[1, inf)", "mac.access_delay_s": "[0, inf)",
    "video.flows": "[0, inf)", "video.fps": "(0, inf)",
    "video.target_rate_bps": "(0, inf)", "video.max_packet_bytes": "[1, inf)",
    "video.start_s": "[0, inf)",
    "cbr.flows": "[0, inf)", "cbr.rate_bps": "(0, inf)",
    "cbr.packet_bytes": "[1, inf)", "cbr.refresh_s": "(0, inf)",
    "customer_request.bw_min_bps": "(0, inf)",
    "customer_request.loss_max": "(0, 1]",
    "customer_request.delay_max_s": "(0, inf)",
    "customer_request.jitter_max_s": "(0, inf)",
    "scoring.w_ts": "[0, 1]", "social.sigma_ts": "(0, inf)",
    "routing.ttl": "[1, inf)", "routing.max_paths": "[1, inf)",
    "routing.beacon_period_s": "(0, inf)", "routing.beacon_bytes": "[0, inf)",
    "routing.pm_train": "[1, inf)", "routing.pm_spacing_s": "[0, inf)",
    "routing.pm_bytes": "[0, inf)", "routing.pmr_bytes": "[0, inf)",
    "routing.probe_window_s": "(0, inf)",
    "routing.decision_delay_s": "(0, inf)",
}
# a run of at most 12 nodes and 10 s that schedules more events than this,
# about a second's work, counts as a hang; the defaults at that size
# schedule about 3,700
EVENT_CAP = 200_000
FILE_KEYS = ("mobility.trace", "social.matrix", "video.trace")
PATTERNS = ("IBBPBBPBBPBB", "I", "IP", "IPBB", "BIP", "", "IXB", "IBBIBB")


def key_candidates(name: str, kind: type, default) -> list:
    """Values of one key in or just outside its range: the default, the
    default scaled by 1e-4 to 1e4, each finite end of the range, and the
    nearest value past each finite end; the default first, which is where
    a failing example shrinks to."""
    if name in FILE_KEYS:
        return [None, "no-such-input.txt"]
    if kind is str:
        return list(PATTERNS)
    low, high = RANGES.get(name, "(-inf, inf)")[1:-1].split(", ")
    low, high = float(low), float(high)
    low_open = RANGES.get(name, "(").startswith("(")
    high_open = RANGES.get(name, ")").endswith(")")
    if kind is int:
        inside = [default, default * 10, default * 100, 1, 10, -1]
        edges = [low + low_open, high - high_open]
        outside = [low - 1 + low_open, high + 1 - high_open]
        if name == "master_seed":
            inside += [0, 2**31, 2**64]
    else:
        scale = abs(default) or 1.0
        inside = [default, -default] + [scale * f
                                        for f in (1e-4, 1e-2, 1e2, 1e4)]
        edges = [math.nextafter(low, math.inf) if low_open else low,
                 math.nextafter(high, -math.inf) if high_open else high]
        outside = [low if low_open else math.nextafter(low, -math.inf),
                   high if high_open else math.nextafter(high, math.inf)]
    values = [v for v in inside + edges if low <= v <= high
              and not (v == low and low_open or v == high and high_open)]
    values += outside[:1] if name in ("nodes", "duration_s") else outside
    return sorted({kind(v) for v in values
                   if math.isfinite(v) and abs(v) < 1e300},
                  key=lambda v: (v != default, v))


def _key_strategies():
    default = RunConfig()
    strategies = {}
    for section, key, path in _KEYS:
        name = f"{section}.{key}" if section else key
        # the largest run in scope stands in for a default outside it
        value = {"nodes": 12, "duration_s": 10.0}.get(
            key, attrgetter(path)(default))
        kind = _field_type(path)[0]
        strategies[name] = st.sampled_from(
            key_candidates(name, kind, value))
    return strategies


KEY_STRATEGIES = _key_strategies()


@st.composite
def config_texts(draw):
    """A small configuration as YAML text, and the keys it sets."""
    names = draw(st.lists(st.sampled_from(sorted(KEY_STRATEGIES)),
                          max_size=3, unique=True))
    names = ["nodes", "duration_s", *(n for n in names
                                      if n not in ("nodes", "duration_s"))]
    data: dict = {}
    for name in names:
        section, _, key = name.rpartition(".")
        values = data.setdefault(section, {}) if section else data
        values[key] = draw(KEY_STRATEGIES[name])
    return yaml.safe_dump(data, sort_keys=False), names


def capped_run(config: RunConfig) -> SimulationRun:
    """A SimulationRun that fails the test once it schedules more than
    EVENT_CAP events."""
    run = SimulationRun(config)
    schedule, pushed = run.sim.schedule, [0]

    def counted(*args):
        pushed[0] += 1
        if pushed[0] > EVENT_CAP:
            pytest.fail(f"more than {EVENT_CAP} events by t = "
                        f"{run.sim.clock}: a hang")
        schedule(*args)
    run.sim.schedule = counted
    return run


class TestBoundaryProperty:
    @given(config_texts())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_config_is_rejected_by_name_or_runs_clean(self, drawn):
        text, names = drawn
        try:
            config = load_config(text)
            run = capped_run(config)
        except ConfigError as exc:
            words = {part for name in names for part in name.split(".")}
            assert any(word in str(exc) for word in words), (text, exc)
            return
        assert load_config(dump_config(config)).config_hash() == \
            config.config_hash()
        outputs = []
        for run in (run, capped_run(config)):
            result = run.run()  # asserts conservation per class and flow
            for counts in (*result.class_counters.values(), *result.flows,
                           result.total):
                assert counts["delivered"] <= counts["generated"]
            outputs.append((result_csv_text(result),
                            protocol_log_csv_text(run.protocol_log_rows())))
        assert outputs[0] == outputs[1]


# One legal value of each key but the file keys that changes the output of
# the default 27-node, 20 s run: a key no run can show is no input.
ALTERNATIVES = {
    "area_width_m": 400.0, "area_height_m": 400.0, "nodes": 30,
    "duration_s": 15.0, "master_seed": 2, "flow_min_hops": 3,
    "mobility.max_speed_mps": 5.0, "mobility.pause_s": 2.0,
    "mobility.min_speed_fraction": 0.5, "mobility.warmup_s": 0.0,
    "radio.tx_range_m": 100.0, "radio.path_loss_exponent": 2.0,
    "radio.nominal_bitrate_bps": 2.0e6, "radio.max_corruption_prob": 0.2,
    "radio.corruption_span_db": 5.0,
    "mac.queue_capacity": 5, "mac.access_delay_s": 0.008,
    "video.flows": 1, "video.fps": 30.0, "video.target_rate_bps": 300000.0,
    "video.pattern": "IBBP", "video.sigma_log": 0.6,
    "video.max_packet_bytes": 500, "video.start_s": 1.0,
    "cbr.flows": 2, "cbr.rate_bps": 1.0e6, "cbr.packet_bytes": 500,
    "cbr.refresh_s": 2.0,
    # every path this short run measures lost 0.4-0.8 of its probes and
    # carried 2.6-4.8 Mb/s, so only a looser loss bound or a bandwidth
    # bound above 2.6 Mb/s changes which paths pass
    "customer_request.bw_min_bps": 1.0e7, "customer_request.loss_max": 0.5,
    "customer_request.delay_max_s": 0.05,
    "customer_request.jitter_max_s": 0.01,
    "scoring.w_ts": 0.5, "social.mu_ts": 1.0, "social.sigma_ts": 2.0,
    "routing.ttl": 3, "routing.max_paths": 3,
    "routing.beacon_period_s": 0.5, "routing.beacon_bytes": 200,
    "routing.pm_train": 5, "routing.pm_spacing_s": 0.02,
    "routing.pm_bytes": 200, "routing.pmr_bytes": 500,
    "routing.probe_window_s": 0.8, "routing.decision_delay_s": 2.5,
    "routing.alpha_tune": 5.0, "routing.beta_tune": 4.0,
}


def nine_digits(cell: str) -> str:
    try:
        return f"{float(cell):.9g}"
    except ValueError:
        return cell


def key_run_cells(name: str | None = None, value=None) -> list:
    """The cells of result.csv and protocol_log.csv of the default run at
    20 s, with ``name`` set to ``value``; numbers at 9 significant digits,
    so a change of rounding alone does not count."""
    data: dict = {"duration_s": 20.0}
    if name is not None:
        section, _, key = name.rpartition(".")
        (data.setdefault(section, {}) if section else data)[key] = value
    result, rows = run_simulation(parse_config(data))
    return [[[nine_digits(cell) for cell in row]
             for row in csv.reader(io.StringIO(text))]
            for text in (result_csv_text(result), protocol_log_csv_text(rows))]


@pytest.fixture(scope="module")
def default_run_cells():
    return key_run_cells()


class TestEveryKeyActs:
    def test_table_covers_every_key_but_the_files(self):
        names = {f"{section}.{key}" if section else key
                 for section, key, _ in _KEYS}
        assert set(ALTERNATIVES) == names - set(FILE_KEYS)

    @pytest.mark.parametrize("name", sorted(ALTERNATIVES))
    def test_key_moves_the_run(self, name, default_run_cells):
        assert key_run_cells(name, ALTERNATIVES[name]) != default_run_cells
