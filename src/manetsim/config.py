"""Run configuration: schema, defaults, YAML loading with strict validation.

The key names and units are the published contract; unknown keys, duplicate
keys and out-of-range values are rejected with the offending key path.

Each key is declared once, as a dataclass field that gives its type and
default; ``_KEYS`` maps it to its YAML section and name for both
``parse_config`` and ``dump_config``.  Type checks happen while parsing;
range and consistency checks live in the dataclasses' ``__post_init__``, so
a configuration built in Python is checked the same way as a loaded file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter

import yaml

from .mobility import AreaSpec
from .radio import RadioSpec
from .routing import CustomerRequest, DiscoveryLimits, ScoringWeights
from .video import CbrSpec, GopModel


class ConfigError(ValueError):
    """A configuration file violated the schema."""


@dataclass(frozen=True)
class MobilityConfig:
    max_speed_mps: float = 2.0
    pause_s: float = 0.0
    min_speed_fraction: float = 0.1
    warmup_s: float = 300.0
    trace: str | None = None

    def __post_init__(self):
        # the walk would skip a negative pause without a word, and a
        # fraction above 1 would draw speeds above max_speed_mps
        if self.pause_s < 0:
            raise ConfigError("pause_s may not be negative")
        if not 0.0 <= self.min_speed_fraction <= 1.0:
            raise ConfigError("min_speed_fraction must be in [0, 1]")


@dataclass(frozen=True)
class MacConfig:
    queue_capacity: int = 50
    access_delay_s: float = 0.006  # per-hop channel-access latency at load 1

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be at least 1")
        if self.access_delay_s < 0:
            raise ConfigError("access_delay_s may not be negative")


@dataclass(frozen=True)
class VideoConfig:
    flows: int = 2
    fps: float = 25.0
    target_rate_bps: float = 150_000.0
    pattern: str = "IBBPBBPBBPBB"
    sigma_log: float = 0.3
    max_packet_bytes: int = 1500
    start_s: float = 0.0
    trace: str | None = None

    def __post_init__(self):
        self.gop_model()  # validates the pattern and the rates
        if self.flows < 0 or self.start_s < 0:
            raise ConfigError("flows and start_s may not be negative")

    def gop_model(self) -> GopModel:
        return GopModel(pattern=self.pattern, fps=self.fps,
                        target_rate_bps=self.target_rate_bps,
                        sigma_log=self.sigma_log,
                        max_packet_bytes=self.max_packet_bytes)


@dataclass(frozen=True)
class CbrConfig:
    flows: int = 1
    rate_bps: float = 300_000.0
    packet_bytes: int = 1500
    refresh_s: float = 5.0

    def __post_init__(self):
        if self.flows < 0:
            raise ConfigError("flows may not be negative")
        if self.flows > 0:
            CbrSpec(self.rate_bps, self.packet_bytes)  # range check
        if self.refresh_s <= 0:
            raise ConfigError("refresh_s must be positive")


@dataclass(frozen=True)
class SocialConfig:
    mu_ts: float = 3.0
    sigma_ts: float = 1.0
    matrix: str | None = None

    def __post_init__(self):
        if self.sigma_ts <= 0:
            raise ConfigError("sigma_ts must be positive")


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
        if self.beacon_period_s <= 0:
            raise ConfigError("beacon_period_s must be positive")
        if self.pm_train < 1:
            raise ConfigError("pm_train must be at least 1")
        if self.flow_min_hops < 1:  # below 1 no endpoint pair is checked
            raise ConfigError("flow_min_hops must be at least 1")
        # a negative size or delay would schedule an event in the past
        for name in ("beacon_bytes", "pm_bytes", "pmr_bytes", "pm_spacing_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} may not be negative")
        # at zero every decision comes before any probe reply (no route),
        # and every reply leaves at its train's first probe (loss 1 - 1/train)
        for name in ("decision_delay_s", "probe_window_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # t_routing = alpha_tune * nstate + beta_tune with nstate in [0, 1];
        # each decision schedules the next iteration t_routing after the
        # start of its own, so that must not come before the decision
        shortest = min(self.beta_tune, self.alpha_tune + self.beta_tune)
        if shortest < self.decision_delay_s:
            raise ConfigError(
                f"min(beta_tune, alpha_tune + beta_tune) = {shortest} is "
                f"below decision_delay_s = {self.decision_delay_s}")
        self.area  # validates dimensions and node count

    @property
    def area(self) -> AreaSpec:
        return AreaSpec(self.area_width_m, self.area_height_m, self.node_count)

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


# The YAML sections, each with the prefix that turns its keys into
# RunConfig attribute paths and its keys in the order dump_config writes
# them.  A key's type and default are those of the field its path names.
_SECTIONS = (
    ("", "", ("area_width_m", "area_height_m", "nodes", "duration_s",
              "master_seed", "flow_min_hops")),
    ("mobility", "mobility.", ("max_speed_mps", "pause_s",
                               "min_speed_fraction", "warmup_s", "trace")),
    ("radio", "radio.", ("tx_range_m", "noise_floor_dbm",
                         "path_loss_exponent", "nominal_bitrate_bps",
                         "snr_threshold_db", "ref_loss_db",
                         "max_corruption_prob", "corruption_span_db")),
    ("mac", "mac.", ("queue_capacity", "access_delay_s")),
    ("video", "video.", ("flows", "fps", "target_rate_bps", "pattern",
                         "sigma_log", "max_packet_bytes", "start_s",
                         "trace")),
    ("cbr", "cbr.", ("flows", "rate_bps", "packet_bytes", "refresh_s")),
    ("customer_request", "request.", ("bw_min_bps", "loss_max",
                                      "delay_max_s", "jitter_max_s")),
    ("scoring", "", ("w_ts",)),
    ("social", "social.", ("mu_ts", "sigma_ts", "matrix")),
    ("routing", "", ("ttl", "max_paths", "beacon_period_s", "beacon_bytes",
                     "pm_train", "pm_spacing_s", "pm_bytes", "pmr_bytes",
                     "probe_window_s", "decision_delay_s", "alpha_tune",
                     "beta_tune")),
)
# keys whose field has another name or sits one level further down
_RENAMED = {"nodes": "node_count", "ttl": "limits.ttl",
            "max_paths": "limits.max_paths"}
# (section, key, RunConfig attribute path) of every key; the one derived
# key, "density", sets node_count from the area instead
_KEYS = tuple((section, key, prefix + _RENAMED.get(key, key))
              for section, prefix, keys in _SECTIONS for key in keys)


@functools.cache
def _hints(cls: type) -> dict:
    return typing.get_type_hints(cls)  # evaluates every annotation: slow


def _field_type(path: str) -> tuple[type, bool]:
    """The type of the field a RunConfig path names, and whether it may be
    None (only fields declared ``X | None``)."""
    kind = RunConfig
    for name in path.split("."):
        kind = _hints(kind)[name]
    options = typing.get_args(kind)
    if options:
        return next(t for t in options if t is not type(None)), True
    return kind, False


def as_type(where: str, value, kind: type, nullable: bool = False):
    """``value`` as ``kind``: a float key takes an int, an int key only an
    int, and no number key takes a bool."""
    if value is None and nullable:
        return None
    if kind is bool or not isinstance(value, bool):
        if kind is float and isinstance(value, int):
            return float(value)
        if isinstance(value, kind):
            return value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


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


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    sections = {"": dict(data)}
    for section, _, _ in _SECTIONS[1:]:
        values = sections[""].pop(section, None)  # None: an empty section
        if not isinstance(values, (dict, type(None))):
            raise ConfigError(f"{section}: expected a mapping, got {values!r}")
        sections[section] = dict(values or {})
    density = None
    if "density" in sections[""]:
        if "nodes" in sections[""]:
            raise ConfigError("give either 'density' or 'nodes', not both")
        density = as_type("density", sections[""].pop("density"), float)

    top: dict = {}
    nested: dict[str, tuple[str, dict]] = {}  # field -> (section, kwargs)
    for section, key, path in _KEYS:
        if key not in sections[section]:
            continue
        where = f"{section}.{key}" if section else key
        value = as_type(where, sections[section].pop(key), *_field_type(path))
        head, dot, name = path.partition(".")
        if dot:
            nested.setdefault(head, (section, {}))[1][name] = value
        else:
            top[path] = value
    for section, values in sections.items():
        if values:
            key = sorted(values)[0]
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key {where!r}")

    for head, (section, kwargs) in nested.items():
        try:
            top[head] = _field_type(head)[0](**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    try:
        config = RunConfig(**top)
        if density is not None:
            config = config.replace(node_count=AreaSpec.from_density(
                config.area_width_m, config.area_height_m,
                density).node_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


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


def dump_config(config: RunConfig) -> str:
    """YAML text that round-trips through load_config."""
    data: dict = {}
    for section, key, path in _KEYS:
        values = data.setdefault(section, {}) if section else data
        values[key] = attrgetter(path)(config)
    return yaml.safe_dump(data, sort_keys=False)
