"""Run configuration: schema, defaults, YAML loading with strict validation.

The key names and units are the published contract; unknown keys, duplicate
keys and out-of-range values are rejected with the offending key path.

Each key is declared once, as a dataclass field that gives its type and
default; ``_KEYS`` maps it to its YAML section and name for both
``parse_config`` and ``dump_config``.  A nested section's keys are the init
fields of its type, several of which live next to the code they configure
(``RadioSpec``, ``VideoConfig``, ``CbrConfig``, ``CustomerRequest``) and are
re-exported here.  Type checks happen while parsing; ``RunConfig``'s
``__post_init__`` checks each key against its range in ``_RANGES`` and then
the rules that tie keys together, so a configuration built in Python is
checked the same way as a loaded file.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import typing
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import yaml

from .mac import DEFAULT_QUEUE_CAPACITY, frame_service
from .radio import RadioSpec
from .routing import CustomerRequest
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


@dataclass(frozen=True)
class MacConfig:
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    access_delay_s: float = 0.006  # per-hop channel-access latency at load 1


@dataclass(frozen=True)
class SocialConfig:
    mu_ts: float = 3.0
    sigma_ts: float = 1.0
    matrix: str | None = None


# The legal range of each key that is bounded on its own, by its YAML path,
# in interval notation; RunConfig checks every key of the table.
_RANGES = {
    # the path loss takes any shorter distance as 1 m, and near zero width
    # the waypoint walk's legs are too short to move its clock on
    "area_width_m": "[1, inf)", "area_height_m": "[1, inf)",
    "duration_s": "(0, inf)",
    "flow_min_hops": "[1, inf)",  # below 1 no endpoint pair is checked
    # path qualification divides by max_speed_mps also when a trace moves
    # the nodes, and a trace ignores warmup_s that the walk, built only once
    # a run starts, would reject; the walk would skip a negative pause
    # without a word, and a fraction above 1 would draw speeds above
    # max_speed_mps
    "mobility.max_speed_mps": "(0, inf)", "mobility.warmup_s": "[0, inf)",
    "mobility.pause_s": "[0, inf)", "mobility.min_speed_fraction": "[0, 1]",
    # path loss must grow with distance, and the margin is divided by the
    # corruption span
    "radio.tx_range_m": "(0, inf)", "radio.path_loss_exponent": "(0, inf)",
    "radio.nominal_bitrate_bps": "(0, inf)",
    "radio.max_corruption_prob": "[0, 1]",
    "radio.corruption_span_db": "(0, inf)",
    "mac.queue_capacity": "[1, inf)", "mac.access_delay_s": "[0, inf)",
    "video.flows": "[0, inf)", "video.fps": "(0, inf)",
    "video.target_rate_bps": "(0, inf)",
    # a negative sigma mirrors every size draw; zero gives constant sizes
    "video.sigma_log": "[0, inf)",
    "video.max_packet_bytes": "[1, inf)", "video.start_s": "[0, inf)",
    "cbr.flows": "[0, inf)", "cbr.refresh_s": "(0, inf)",
    "customer_request.bw_min_bps": "(0, inf)",
    "customer_request.loss_max": "(0, 1]",
    "customer_request.delay_max_s": "(0, inf)",
    "customer_request.jitter_max_s": "(0, inf)",
    "scoring.w_ts": "[0, 1]", "social.sigma_ts": "(0, inf)",
    # below 1 no probe is sent, no path is found
    "routing.ttl": "[1, inf)", "routing.max_paths": "[1, inf)",
    "routing.pm_train": "[1, inf)", "routing.beacon_period_s": "(0, inf)",
    # a negative size or delay would schedule an event in the past
    "routing.beacon_bytes": "[0, inf)", "routing.pm_bytes": "[0, inf)",
    "routing.pmr_bytes": "[0, inf)", "routing.pm_spacing_s": "[0, inf)",
    # at zero every reply leaves at its train's first probe (loss
    # 1 - 1/train)
    "routing.probe_window_s": "(0, inf)",
}


def _within(value: float, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(", "))
    return ((low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high))


@dataclass(frozen=True)
class RunConfig:
    area_width_m: float = 520.0
    area_height_m: float = 520.0
    nodes: int = 27
    duration_s: float = 200.0
    master_seed: int = 1
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    radio: RadioSpec = field(default_factory=RadioSpec)
    mac: MacConfig = field(default_factory=MacConfig)
    video: VideoConfig = field(default_factory=VideoConfig)
    cbr: CbrConfig = field(default_factory=CbrConfig)
    customer_request: CustomerRequest = field(default_factory=CustomerRequest)
    w_ts: float = 0.0
    flow_min_hops: int = 2
    social: SocialConfig = field(default_factory=SocialConfig)
    ttl: int = 10
    max_paths: int = 10
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
        # a nan or infinite value fails as such whatever its key's range
        # (an infinite duration_s never ends the walk); the rules below
        # divide by fps, rate_bps and the speeds, so each key is in its
        # range before they run
        for section, key, path in _KEYS:
            value = attrgetter(path)(self)
            where = f"{section}.{key}" if section else key
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{where} must be finite, got {value}")
            if where in _RANGES and not _within(value, _RANGES[where]):
                raise ConfigError(
                    f"{where} must be in {_RANGES[where]}, got {value}")
        # without CBR flows the rate and packet size go unused
        cbr = self.cbr
        if cbr.flows and cbr.rate_bps <= 0:
            raise ConfigError(f"cbr.rate_bps must be in (0, inf) with CBR "
                              f"flows, got {cbr.rate_bps}")
        if cbr.flows and cbr.packet_bytes < 1:
            raise ConfigError(f"cbr.packet_bytes must be in [1, inf) with "
                              f"CBR flows, got {cbr.packet_bytes}")
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
        # frames are whole bytes, at least one: a smaller mean can't be
        # met, and the size distribution takes its logarithm
        video = self.video
        if video.flows and video.trace is None:
            sizes = video.mean_sizes()
            smallest = min(video.pattern, key=sizes.get)
            if sizes[smallest] < 1.0:
                raise ConfigError(
                    f"the mean {smallest} frame is {sizes[smallest]:.6g} "
                    f"bytes, below 1: raise target_rate_bps or lower fps")
        # each CBR packet is one event, and a source whose packets are due
        # faster than their air time at load 1 only overflows its queue
        bitrate = self.radio.nominal_bitrate_bps
        if cbr.flows and cbr.rate_bps > bitrate:
            raise ConfigError(f"cbr.rate_bps = {cbr.rate_bps} is above "
                              f"radio.nominal_bitrate_bps = {bitrate}")
        self._check_event_rates()
        # two distinct endpoints per flow; a tie-strength matrix needs two
        needed = max(2, 2 * (video.flows + self.cbr.flows))
        if self.nodes < needed:
            raise ConfigError(
                f"nodes = {self.nodes} is below {needed}: two "
                f"nodes per video and CBR flow, and at least two")

    def _check_event_rates(self) -> None:
        """Reject a periodic process that runs faster than the frames it
        makes can be served, or than anything uses it: every firing is an
        event, and the extra ones only overflow a queue or go unread.  A
        frame's service time at load 1 is one channel access plus its air
        time.  A frame trace's video frames are checked where it is read,
        by ``check_video_frames``."""
        # a 0-byte beacon or probe with no access delay is served in no
        # time, and a process held to a zero service time is held to no rate
        for key in ("beacon_bytes", "pm_bytes"):
            if self._service(getattr(self, key), key)[0] == 0.0:
                raise ConfigError(
                    f"{key} = 0 and mac.access_delay_s = 0 give its frames a "
                    f"service time of 0 s at load 1, which bounds no rate: "
                    f"make either positive")
        # every node beacons, and nodes in mutual range share one channel
        # that serves a frame per service time whatever their number
        beacon, why = self._service(self.beacon_bytes, "beacon_bytes")
        if self.beacon_period_s < self.nodes * beacon:
            raise ConfigError(
                f"beacon_period_s = {self.beacon_period_s} is below nodes = "
                f"{self.nodes} times one beacon's service time, {why}")
        video = self.video
        if video.flows and video.trace is None:
            # fps near 0 or a huge rate would build billions of packets
            self.check_video_frames(video.target_rate_bps / video.fps / 8.0,
                                    video.mean_sizes()["I"])
        cbr = self.cbr
        if cbr.flows:
            # more packets than a queue holds, due within one service time,
            # overflow even an empty queue
            packet, why = self._service(cbr.packet_bytes, "cbr.packet_bytes")
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
        probes = self.pm_train * self.max_paths
        probe, why = self._service(self.pm_bytes, "pm_bytes")
        if probes * probe > self.probe_window_s:
            raise ConfigError(
                f"pm_train x max_paths = {probes} probes do not leave the "
                f"source within probe_window_s = {self.probe_window_s}, "
                f"each taking {why}")

    def _service(self, size_bytes: float, size: str) -> tuple[float, str]:
        """A frame's service time at load 1, and its terms in words with
        ``size`` naming the frame's bytes."""
        access, _, air = frame_service(size_bytes, 1, self.mac.access_delay_s,
                                       self.radio.nominal_bitrate_bps)
        seconds = access + air
        return seconds, (f"{seconds:.6g} s at load 1, mac.access_delay_s "
                         f"plus {size} at radio.nominal_bitrate_bps")

    def check_video_frames(self, mean_bytes: float,
                           mean_i_bytes: float) -> None:
        """Reject video frames, generated or replayed, whose mean size is
        ``mean_bytes`` and mean I-frame size ``mean_i_bytes``, if the MAC
        cannot take them: a source queues a whole frame at one instant, so
        a mean I frame (the largest type) of more packets than a queue
        holds overflows an empty one, and frames due faster than the mean
        one is served only overflow the queue later."""
        video = self.video
        i_packets = mean_i_bytes / video.max_packet_bytes
        if i_packets > self.mac.queue_capacity:
            raise ConfigError(
                f"the mean I frame is {i_packets:.6g} packets of "
                f"video.max_packet_bytes, above mac.queue_capacity = "
                f"{self.mac.queue_capacity}")
        frame, why = self._service(mean_bytes, "the mean frame's bytes")
        if video.frame_interval < frame:
            raise ConfigError(
                f"video.fps = {video.fps} is above one frame per service "
                f"time of the mean frame, {why}")

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def config_hash(self) -> str:
        """The sha256 of the config file that sets this configuration."""
        return hashlib.sha256(dump_config(self).encode()).hexdigest()


# The YAML sections with their keys in the order dump_config writes them.
# A flat section lists RunConfig fields; a nested one names the type of the
# RunConfig field of its name, whose init fields are its keys.  A key's type
# and default are those of the field its path names.
_SECTIONS = (
    ("", ("area_width_m", "area_height_m", "nodes", "duration_s",
          "master_seed", "flow_min_hops")),
    ("mobility", MobilityConfig),
    ("radio", RadioSpec),
    ("mac", MacConfig),
    ("video", VideoConfig),
    ("cbr", CbrConfig),
    ("customer_request", CustomerRequest),
    ("scoring", ("w_ts",)),
    ("social", SocialConfig),
    ("routing", ("ttl", "max_paths", "beacon_period_s", "beacon_bytes",
                 "pm_train", "pm_spacing_s", "pm_bytes", "pmr_bytes",
                 "probe_window_s", "decision_delay_s", "alpha_tune",
                 "beta_tune")),
)
# (section, key, RunConfig attribute path) of every key; the one derived
# key, "density", sets nodes from the area instead
_KEYS = tuple(
    (section, key, key if isinstance(keys, tuple) else f"{section}.{key}")
    for section, keys in _SECTIONS
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


def parse_config(data: dict, base: RunConfig = RunConfig()) -> RunConfig:
    """``base`` with the keys of the mapping ``data`` set, each typed as its
    field; ``density`` sets the node count it gives in the area."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    sections = {"": dict(data)}
    for section, _ in _SECTIONS[1:]:
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
    nested: dict[str, dict] = {}  # section -> its field's changed init fields
    for section, key, path in _KEYS:
        if key not in sections[section]:
            continue
        where = f"{section}.{key}" if section else key
        value = as_type(where, sections[section].pop(key), *_field_type(path))
        if path == key:
            top[key] = value
        else:
            nested.setdefault(section, {})[key] = value
    for section, values in sections.items():
        if values:
            key = sorted(values)[0]
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key {where!r}")

    for section, kwargs in nested.items():
        try:
            top[section] = replace(getattr(base, section), **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    if density is not None:  # nodes per km^2, rounded, at least 1
        width = top.get("area_width_m", base.area_width_m)
        height = top.get("area_height_m", base.area_height_m)
        top["nodes"] = max(1, round(density * width * height / 1e6))
    try:
        return replace(base, **top)
    except ValueError as exc:
        why = str(exc)
        if density is not None and why.startswith("nodes = "):
            why = f"density = {density:g} gives {why}"  # the key the file set
        raise ConfigError(why) from None


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
