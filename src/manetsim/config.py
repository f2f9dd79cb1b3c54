"""Run configuration: schema, defaults, YAML loading with strict validation.

The key names and units are the published contract; unknown keys, duplicate
keys and out-of-range values are rejected with the offending key path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import yaml

from .mobility import AreaSpec
from .radio import RadioSpec
from .routing import CustomerRequest, DiscoveryLimits, ProtocolParams, ScoringWeights
from .video import CbrSpec, GopModel


class ConfigError(ValueError):
    """A configuration file violated the schema."""


@dataclass(frozen=True)
class MobilityConfig:
    max_speed_mps: float = 2.0
    pause_s: float = 0.0
    min_speed_fraction: float = 0.1
    warmup_s: float = 300.0
    trace_path: str | None = None


@dataclass(frozen=True)
class MacConfig:
    queue_capacity: int = 50
    access_delay_s: float = 0.006  # per-hop channel-access latency at load 1
    service: str = "strict"


@dataclass(frozen=True)
class VideoConfig:
    flows: int = 2
    fps: float = 25.0
    target_rate_bps: float = 150_000.0
    pattern: str = "IBBPBBPBBPBB"
    sigma_log: float = 0.3
    max_packet_bytes: int = 1500
    start_s: float = 0.0
    trace_path: str | None = None


@dataclass(frozen=True)
class CbrConfig:
    flows: int = 1
    rate_bps: float = 300_000.0
    packet_bytes: int = 1500
    refresh_s: float = 5.0


@dataclass(frozen=True)
class SocialConfig:
    mu_ts: float = 3.0
    sigma_ts: float = 1.0
    matrix_path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    area_width_m: float = 520.0
    area_height_m: float = 520.0
    node_count: int = 27
    duration_s: float = 200.0
    master_seed: int = 1
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    radio: RadioSpec = field(default_factory=RadioSpec)
    mac: MacConfig = field(default_factory=MacConfig)
    video: VideoConfig = field(default_factory=VideoConfig)
    cbr: CbrConfig = field(default_factory=CbrConfig)
    request: CustomerRequest = field(default_factory=CustomerRequest)
    w_ts: float = 0.0
    raw_sum_score: bool = False
    flow_min_hops: int = 2
    social: SocialConfig = field(default_factory=SocialConfig)
    limits: DiscoveryLimits = field(default_factory=DiscoveryLimits)
    beacon_period_s: float = 1.0
    beacon_bytes: int = 32
    pm_train: int = 10
    pm_spacing_s: float = 0.008
    pm_bytes: int = 64
    pmr_bytes: int = 128
    probe_window_s: float = 1.0
    decision_delay_s: float = 2.0
    alpha_tune: float = 10.0
    beta_tune: float = 3.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        ScoringWeights(self.w_ts)  # range check
        if self.social.sigma_ts <= 0:
            raise ConfigError("social.sigma_ts must be positive")
        self.area  # validates dimensions and node count

    @property
    def area(self) -> AreaSpec:
        return AreaSpec(self.area_width_m, self.area_height_m, self.node_count)

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(
            request=self.request, weights=ScoringWeights(self.w_ts),
            limits=self.limits, pm_train=self.pm_train,
            pm_spacing_s=self.pm_spacing_s, pm_bytes=self.pm_bytes,
            pmr_bytes=self.pmr_bytes, probe_window_s=self.probe_window_s,
            decision_delay_s=self.decision_delay_s,
            alpha_tune=self.alpha_tune, beta_tune=self.beta_tune,
            raw_sum_score=self.raw_sum_score,
            max_speed_mps=self.mobility.max_speed_mps)

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects duplicate mapping keys."""


def _strict_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise ConfigError(f"duplicate key {key!r} at line "
                              f"{key_node.start_mark.line + 1}")
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_mapping)


def _take(section: dict, path: str, key: str, kind, default):
    if key not in section:
        return default
    value = section.pop(key)
    where = f"{path}.{key}" if path else key
    if value is None:
        return None
    if kind is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        key = sorted(section)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown key {where!r}")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    data = dict(data)

    width = _take(data, "", "area_width_m", float, 520.0)
    height = _take(data, "", "area_height_m", float, 520.0)
    density = _take(data, "", "density", float, None)
    nodes = _take(data, "", "nodes", int, None)
    if density is not None and nodes is not None:
        raise ConfigError("give either 'density' or 'nodes', not both")
    if nodes is None:
        nodes = (AreaSpec.from_density(width, height, density).node_count
                 if density is not None else 27)

    sec = data.pop("mobility", {}) or {}
    mobility = MobilityConfig(
        max_speed_mps=_take(sec, "mobility", "max_speed_mps", float, 2.0),
        pause_s=_take(sec, "mobility", "pause_s", float, 0.0),
        min_speed_fraction=_take(sec, "mobility", "min_speed_fraction",
                                 float, 0.1),
        warmup_s=_take(sec, "mobility", "warmup_s", float, 300.0),
        trace_path=_take(sec, "mobility", "trace", str, None))
    _reject_unknown(sec, "mobility")

    sec = data.pop("radio", {}) or {}
    try:
        radio = RadioSpec(
            tx_range_m=_take(sec, "radio", "tx_range_m", float, 120.0),
            noise_floor_dbm=_take(sec, "radio", "noise_floor_dbm",
                                  float, -92.0),
            path_loss_exponent=_take(sec, "radio", "path_loss_exponent",
                                     float, 3.0),
            nominal_bitrate_bps=_take(sec, "radio", "nominal_bitrate_bps",
                                      float, 11e6),
            snr_threshold_db=_take(sec, "radio", "snr_threshold_db",
                                   float, 10.0),
            ref_loss_db=_take(sec, "radio", "ref_loss_db", float, 40.0),
            max_corruption_prob=_take(sec, "radio", "max_corruption_prob",
                                      float, 0.05),
            corruption_span_db=_take(sec, "radio", "corruption_span_db",
                                     float, 20.0))
    except ValueError as exc:
        raise ConfigError(f"radio: {exc}") from None
    _reject_unknown(sec, "radio")

    sec = data.pop("mac", {}) or {}
    mac = MacConfig(
        queue_capacity=_take(sec, "mac", "queue_capacity", int, 50),
        access_delay_s=_take(sec, "mac", "access_delay_s", float, 0.006),
        service=_take(sec, "mac", "service", str, "strict"))
    if mac.service not in ("strict",):
        raise ConfigError(f"mac.service: unsupported discipline {mac.service!r}")
    _reject_unknown(sec, "mac")

    sec = data.pop("video", {}) or {}
    video = VideoConfig(
        flows=_take(sec, "video", "flows", int, 2),
        fps=_take(sec, "video", "fps", float, 25.0),
        target_rate_bps=_take(sec, "video", "target_rate_bps", float, 150e3),
        pattern=_take(sec, "video", "pattern", str, "IBBPBBPBBPBB"),
        sigma_log=_take(sec, "video", "sigma_log", float, 0.3),
        max_packet_bytes=_take(sec, "video", "max_packet_bytes", int, 1500),
        start_s=_take(sec, "video", "start_s", float, 0.0),
        trace_path=_take(sec, "video", "trace", str, None))
    _reject_unknown(sec, "video")
    try:
        GopModel(pattern=video.pattern, fps=video.fps,
                 target_rate_bps=video.target_rate_bps,
                 sigma_log=video.sigma_log,
                 max_packet_bytes=video.max_packet_bytes)
    except ValueError as exc:
        raise ConfigError(f"video: {exc}") from None

    sec = data.pop("cbr", {}) or {}
    cbr = CbrConfig(
        flows=_take(sec, "cbr", "flows", int, 1),
        rate_bps=_take(sec, "cbr", "rate_bps", float, 300e3),
        packet_bytes=_take(sec, "cbr", "packet_bytes", int, 1500),
        refresh_s=_take(sec, "cbr", "refresh_s", float, 5.0))
    _reject_unknown(sec, "cbr")
    if cbr.flows > 0:
        try:
            CbrSpec(cbr.rate_bps, cbr.packet_bytes)
        except ValueError as exc:
            raise ConfigError(f"cbr: {exc}") from None

    sec = data.pop("customer_request", {}) or {}
    try:
        request = CustomerRequest(
            bw_min_bps=_take(sec, "customer_request", "bw_min_bps",
                             float, 150e3),
            loss_max=_take(sec, "customer_request", "loss_max", float, 0.25),
            delay_max_s=_take(sec, "customer_request", "delay_max_s",
                              float, 2.0),
            jitter_max_s=_take(sec, "customer_request", "jitter_max_s",
                               float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"customer_request: {exc}") from None
    _reject_unknown(sec, "customer_request")

    sec = data.pop("scoring", {}) or {}
    w_ts = _take(sec, "scoring", "w_ts", float, 0.0)
    raw_sum = _take(sec, "scoring", "raw_sum_score", bool, False)
    _reject_unknown(sec, "scoring")
    try:
        ScoringWeights(w_ts)
    except ValueError as exc:
        raise ConfigError(f"scoring.w_ts: {exc}") from None

    sec = data.pop("social", {}) or {}
    social = SocialConfig(
        mu_ts=_take(sec, "social", "mu_ts", float, 3.0),
        sigma_ts=_take(sec, "social", "sigma_ts", float, 1.0),
        matrix_path=_take(sec, "social", "matrix", str, None))
    _reject_unknown(sec, "social")

    sec = data.pop("routing", {}) or {}
    limits = DiscoveryLimits(
        ttl=_take(sec, "routing", "ttl", int, 10),
        max_paths=_take(sec, "routing", "max_paths", int, 10))
    beacon_period = _take(sec, "routing", "beacon_period_s", float, 1.0)
    beacon_bytes = _take(sec, "routing", "beacon_bytes", int, 32)
    pm_train = _take(sec, "routing", "pm_train", int, 10)
    pm_spacing = _take(sec, "routing", "pm_spacing_s", float, 0.008)
    pm_bytes = _take(sec, "routing", "pm_bytes", int, 64)
    pmr_bytes = _take(sec, "routing", "pmr_bytes", int, 128)
    probe_window = _take(sec, "routing", "probe_window_s", float, 1.0)
    decision_delay = _take(sec, "routing", "decision_delay_s", float, 2.0)
    alpha_tune = _take(sec, "routing", "alpha_tune", float, 10.0)
    beta_tune = _take(sec, "routing", "beta_tune", float, 3.0)
    _reject_unknown(sec, "routing")

    duration = _take(data, "", "duration_s", float, 200.0)
    master_seed = _take(data, "", "master_seed", int, 1)
    flow_min_hops = _take(data, "", "flow_min_hops", int, 2)
    _reject_unknown(data, "")

    try:
        return RunConfig(
            area_width_m=width, area_height_m=height, node_count=nodes,
            duration_s=duration, master_seed=master_seed, mobility=mobility,
            radio=radio, mac=mac, video=video, cbr=cbr, request=request,
            w_ts=w_ts, raw_sum_score=raw_sum, flow_min_hops=flow_min_hops,
            social=social, limits=limits,
            beacon_period_s=beacon_period, beacon_bytes=beacon_bytes,
            pm_train=pm_train, pm_spacing_s=pm_spacing, pm_bytes=pm_bytes,
            pmr_bytes=pmr_bytes, probe_window_s=probe_window,
            decision_delay_s=decision_delay, alpha_tune=alpha_tune,
            beta_tune=beta_tune)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_yaml(text: str, what: str = "configuration"):
    """Parse YAML that may not repeat a key; ConfigError on any fault."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable {what}: {exc}") from None


def load_config(text: str) -> RunConfig:
    return parse_config(load_yaml(text) or {})


def load_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def scenario_config(density: int, mu_ts: float, w_ts: float = 0.0,
                    master_seed: int = 1) -> RunConfig:
    """Standard scenario: 520 m x 520 m, density-derived node count."""
    area = AreaSpec.from_density(520.0, 520.0, density)
    return RunConfig().replace(
        node_count=area.node_count, master_seed=master_seed, w_ts=w_ts,
        social=SocialConfig(mu_ts=float(mu_ts), sigma_ts=1.0))


def dump_config(config: RunConfig) -> str:
    """YAML text that round-trips through load_config."""
    d = config.to_dict()
    data = {
        "area_width_m": d["area_width_m"],
        "area_height_m": d["area_height_m"],
        "nodes": d["node_count"],
        "duration_s": d["duration_s"],
        "master_seed": d["master_seed"],
        "flow_min_hops": d["flow_min_hops"],
        "mobility": {
            "max_speed_mps": d["mobility"]["max_speed_mps"],
            "pause_s": d["mobility"]["pause_s"],
            "min_speed_fraction": d["mobility"]["min_speed_fraction"],
            "warmup_s": d["mobility"]["warmup_s"],
            "trace": d["mobility"]["trace_path"],
        },
        "radio": {k: d["radio"][k] for k in (
            "tx_range_m", "noise_floor_dbm", "path_loss_exponent",
            "nominal_bitrate_bps", "snr_threshold_db", "ref_loss_db",
            "max_corruption_prob", "corruption_span_db")},
        "mac": {"queue_capacity": d["mac"]["queue_capacity"],
                "access_delay_s": d["mac"]["access_delay_s"],
                "service": d["mac"]["service"]},
        "video": {
            "flows": d["video"]["flows"], "fps": d["video"]["fps"],
            "target_rate_bps": d["video"]["target_rate_bps"],
            "pattern": d["video"]["pattern"],
            "sigma_log": d["video"]["sigma_log"],
            "max_packet_bytes": d["video"]["max_packet_bytes"],
            "start_s": d["video"]["start_s"],
            "trace": d["video"]["trace_path"],
        },
        "cbr": {"flows": d["cbr"]["flows"], "rate_bps": d["cbr"]["rate_bps"],
                "packet_bytes": d["cbr"]["packet_bytes"],
                "refresh_s": d["cbr"]["refresh_s"]},
        "customer_request": {k: d["request"][k] for k in (
            "bw_min_bps", "loss_max", "delay_max_s", "jitter_max_s")},
        "scoring": {"w_ts": d["w_ts"], "raw_sum_score": d["raw_sum_score"]},
        "social": {"mu_ts": d["social"]["mu_ts"],
                   "sigma_ts": d["social"]["sigma_ts"],
                   "matrix": d["social"]["matrix_path"]},
        "routing": {
            "ttl": d["limits"]["ttl"], "max_paths": d["limits"]["max_paths"],
            "beacon_period_s": d["beacon_period_s"],
            "beacon_bytes": d["beacon_bytes"],
            "pm_train": d["pm_train"], "pm_spacing_s": d["pm_spacing_s"],
            "pm_bytes": d["pm_bytes"], "pmr_bytes": d["pmr_bytes"],
            "probe_window_s": d["probe_window_s"],
            "decision_delay_s": d["decision_delay_s"],
            "alpha_tune": d["alpha_tune"], "beta_tune": d["beta_tune"],
        },
    }
    return yaml.safe_dump(data, sort_keys=False)
