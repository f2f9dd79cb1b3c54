"""Run configuration: schema, defaults, YAML loading with strict validation.

The key names and units are the published contract; unknown keys, duplicate
keys and out-of-range values are rejected with the offending key path.

Each key is declared once, as a dataclass field that gives its type and
default; ``_KEYS`` maps it to its YAML section and name for both
``parse_config`` and ``dump_config``.  A nested section's keys are the init
fields of its type, several of which live next to the code they configure
(``RadioSpec``, ``VideoConfig``, ``CbrConfig``, ``CustomerRequest``) and are
re-exported here.  Type checks happen while parsing;
range and consistency checks live in the dataclasses' ``__post_init__``, so
a configuration built in Python is checked the same way as a loaded file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter

import yaml

from .radio import RadioSpec
from .routing import CustomerRequest, DiscoveryLimits
from .video import CbrConfig, VideoConfig


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
        # path qualification divides by max_speed_mps also when a trace
        # moves the nodes, and a trace ignores warmup_s that the walk, built
        # only once a run starts, would reject
        if self.max_speed_mps <= 0:
            raise ConfigError("max_speed_mps must be positive")
        if self.warmup_s < 0:
            raise ConfigError("warmup_s may not be negative")
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
        # nan slips through every check below written as "reject if
        # x <= bound", and an infinite duration_s never ends the walk
        for section, key, path in _KEYS:
            value = attrgetter(path)(self)
            if isinstance(value, float) and not math.isfinite(value):
                where = f"{section}.{key}" if section else key
                raise ConfigError(f"{where} must be finite, got {value}")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if not 0.0 <= self.w_ts <= 1.0:
            raise ConfigError(f"w_ts={self.w_ts} outside [0, 1]")
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
        # at zero every reply leaves at its train's first probe (loss
        # 1 - 1/train)
        if self.probe_window_s <= 0:
            raise ConfigError("probe_window_s must be positive")
        # a reply the destination holds until the window closes is sent
        # after a decision due earlier, and never counts (at zero delay no
        # reply does, and no route is ever chosen)
        if self.decision_delay_s < self.probe_window_s:
            raise ConfigError(
                f"decision_delay_s = {self.decision_delay_s} is below "
                f"probe_window_s = {self.probe_window_s}")
        # t_routing = alpha_tune * nstate + beta_tune with nstate in [0, 1];
        # each decision schedules the next iteration t_routing after the
        # start of its own, so that must not come before the decision
        shortest = min(self.beta_tune, self.alpha_tune + self.beta_tune)
        if shortest < self.decision_delay_s:
            raise ConfigError(
                f"min(beta_tune, alpha_tune + beta_tune) = {shortest} is "
                f"below decision_delay_s = {self.decision_delay_s}")
        # a source queues a whole frame at one instant, so a mean I frame
        # (the largest type) of more packets than a queue holds overflows an
        # empty one; fps near 0 or a huge rate would build billions of them
        video = self.video
        if video.flows and video.trace is None:
            sizes = video.mean_sizes()
            i_packets = sizes["I"] / video.max_packet_bytes
            if i_packets > self.mac.queue_capacity:
                raise ConfigError(
                    f"the mean I frame is {i_packets:.6g} packets of "
                    f"video.max_packet_bytes, above mac.queue_capacity: "
                    f"lower target_rate_bps or raise fps")
            # frames are whole bytes, at least one: a smaller mean can't be
            # met, and the size distribution takes its logarithm
            smallest = min(video.pattern, key=sizes.get)
            if sizes[smallest] < 1.0:
                raise ConfigError(
                    f"the mean {smallest} frame is {sizes[smallest]:.6g} "
                    f"bytes, below 1: raise target_rate_bps or lower fps")
        # each CBR packet is one event, and a source whose packets are due
        # faster than their air time at load 1 only overflows its queue
        bitrate = self.radio.nominal_bitrate_bps
        if self.cbr.flows and self.cbr.rate_bps > bitrate:
            raise ConfigError(f"cbr.rate_bps = {self.cbr.rate_bps} is above "
                              f"radio.nominal_bitrate_bps = {bitrate}")
        self._check_event_rates()
        # the path loss takes any shorter distance as 1 m, and near zero
        # width the waypoint walk's legs are too short to move its clock on
        if min(self.area_width_m, self.area_height_m) < 1.0:
            raise ConfigError("area_width_m and area_height_m must be at "
                              "least 1 m, the path-loss reference distance")
        # two distinct endpoints per flow; a tie-strength matrix needs two
        needed = max(2, 2 * (video.flows + self.cbr.flows))
        if self.node_count < needed:
            raise ConfigError(
                f"node_count = {self.node_count} is below {needed}: two "
                f"nodes per video and CBR flow, and at least two")

    def _check_event_rates(self) -> None:
        """Reject a periodic process that runs faster than the frames it
        makes can be served, or than anything uses it: every firing is an
        event, and the extra ones only overflow a queue or go unread.  A
        frame's service time at load 1 is one channel access plus its air
        time."""
        def service(size_bytes: float, size: str) -> tuple[float, str]:
            seconds = (self.mac.access_delay_s
                       + 8.0 * size_bytes / self.radio.nominal_bitrate_bps)
            return seconds, (f"{seconds:.6g} s at load 1, mac.access_delay_s "
                             f"plus {size} at radio.nominal_bitrate_bps")

        # every node beacons, and nodes in mutual range share one channel
        # that serves a frame per service time whatever their number
        beacon, why = service(self.beacon_bytes, "beacon_bytes")
        if self.beacon_period_s < self.node_count * beacon:
            raise ConfigError(
                f"beacon_period_s = {self.beacon_period_s} is below nodes = "
                f"{self.node_count} times one beacon's service time, {why}")
        video = self.video
        if video.flows:
            # a frame trace's sizes are read with the run: one access alone
            mean = (0.0 if video.trace
                    else video.target_rate_bps / video.fps / 8.0)
            frame, why = service(mean, "the mean frame's bytes")
            if video.frame_interval < frame:
                raise ConfigError(
                    f"video.fps = {video.fps} is above one frame per service "
                    f"time of the mean frame, {why}")
        cbr = self.cbr
        if cbr.flows:
            # more packets than a queue holds, due within one service time,
            # overflow even an empty queue
            packet, why = service(cbr.packet_bytes, "cbr.packet_bytes")
            if cbr.interval * self.mac.queue_capacity < packet:
                raise ConfigError(
                    f"the CBR packet interval, cbr.packet_bytes / "
                    f"cbr.rate_bps = {cbr.interval:.6g} s, times "
                    f"mac.queue_capacity is below one packet's service "
                    f"time, {why}")
            # each refresh is a connectivity snapshot plus a discovery, and
            # one between two packets routes neither
            if cbr.refresh_s < cbr.interval:
                raise ConfigError(
                    f"cbr.refresh_s = {cbr.refresh_s} is below the packet "
                    f"interval, cbr.packet_bytes / cbr.rate_bps = "
                    f"{cbr.interval:.6g} s")
        # an iteration sends pm_train probes on each of up to max_paths
        # paths from one queue; a probe still queued when the window closes
        # is in no reply
        probes = self.pm_train * self.limits.max_paths
        probe, why = service(self.pm_bytes, "pm_bytes")
        if probes * probe > self.probe_window_s:
            raise ConfigError(
                f"pm_train x max_paths = {probes} probes do not leave the "
                f"source within probe_window_s = {self.probe_window_s}, "
                f"each taking {why}")

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def nodes_at_density(width_m: float, height_m: float, density: float) -> int:
    """Nodes in the area at ``density`` per km^2, rounded, at least 1."""
    return max(1, round(density * width_m * height_m / 1e6))


# The YAML sections, each with the prefix that turns its keys into
# RunConfig attribute paths and its keys in the order dump_config writes
# them: a nested section names its type, whose init fields are its keys.
# A key's type and default are those of the field its path names.
_SECTIONS = (
    ("", "", ("area_width_m", "area_height_m", "nodes", "duration_s",
              "master_seed", "flow_min_hops")),
    ("mobility", "mobility.", MobilityConfig),
    ("radio", "radio.", RadioSpec),
    ("mac", "mac.", MacConfig),
    ("video", "video.", VideoConfig),
    ("cbr", "cbr.", CbrConfig),
    ("customer_request", "request.", CustomerRequest),
    ("scoring", "", ("w_ts",)),
    ("social", "social.", SocialConfig),
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
_KEYS = tuple(
    (section, key, prefix + _RENAMED.get(key, key))
    for section, prefix, keys in _SECTIONS
    for key in (keys if isinstance(keys, tuple)
                else [f.name for f in fields(keys) if f.init]))


@functools.cache
def type_hints(cls: type) -> dict:
    return typing.get_type_hints(cls)  # evaluates every annotation: slow


def _field_type(path: str) -> tuple[type, bool]:
    """The type of the field a RunConfig path names, and whether it may be
    None (only fields declared ``X | None``)."""
    kind = RunConfig
    for name in path.split("."):
        kind = type_hints(kind)[name]
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
# YAML 1.2 floats, which YAML 1.1 reads as strings when the exponent has no
# sign or the mantissa no dot (2.5e6, 1e2, 6e-3, .5e2); a dot or an exponent
# is required, so 100 stays an int
_StrictLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+(?=[eE]))"
               r"(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


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
        if not math.isfinite(density):  # the one key that is no field
            raise ConfigError(f"density must be finite, got {density}")

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
            config = config.replace(node_count=nodes_at_density(
                config.area_width_m, config.area_height_m, density))
    except ValueError as exc:
        why = str(exc)
        if why.startswith("node_count = "):  # name the key the file set
            key = ("nodes" if density is None
                   else f"density = {density:g} gives nodes")
            why = key + why.removeprefix("node_count")
        raise ConfigError(why) from None
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
