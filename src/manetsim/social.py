"""Social tie strength: interaction ledger, continuous tie index, time decay,
quantization to the 0-4 scale, scenario matrix generation and per-path
aggregation.

Two ingestion paths exist.  Scenario runs draw a quantized tie-strength
matrix directly from a normal distribution; the ledger -> index -> quantize
pipeline is provided for real interaction data and is exercised by its own
tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SignType:
    """One typed interaction evidence, tagged by directness and visibility."""

    name: str
    platform: str
    direct: bool
    private: bool


FACEBOOK_SIGNS = (
    SignType("wall_posts_on_friends_wall", "facebook", True, True),
    SignType("private_messages_exchanged", "facebook", True, True),
    SignType("comments_on_friends_objects", "facebook", True, False),
    SignType("comments_on_same_objects", "facebook", False, False),
    SignType("likes_on_friends_objects", "facebook", True, False),
    SignType("likes_on_same_objects", "facebook", False, False),
    SignType("tagged_in_same_photos_or_videos", "facebook", False, True),
    SignType("same_private_group", "facebook", False, True),
    SignType("same_public_group", "facebook", False, False),
    SignType("same_private_event", "facebook", False, True),
    SignType("same_public_event", "facebook", False, False),
    SignType("subscribed_to_same_user", "facebook", False, False),
    SignType("subscribed_by_same_user", "facebook", False, False),
)

TWITTER_SIGNS = (
    SignType("mentions_replies", "twitter", True, True),
    SignType("direct_messages_exchanged", "twitter", True, True),
    SignType("retweets_of_friends_tweets", "twitter", True, False),
    SignType("retweets_of_same_tweets", "twitter", False, False),
    SignType("favorites_of_friends_tweets", "twitter", True, False),
    SignType("favorites_of_same_tweets", "twitter", False, False),
    SignType("same_private_list", "twitter", False, True),
    SignType("same_public_list", "twitter", False, False),
    SignType("same_hashtag", "twitter", False, False),
    SignType("common_followers", "twitter", False, False),
    SignType("common_followees", "twitter", False, False),
)

ALL_SIGNS = FACEBOOK_SIGNS + TWITTER_SIGNS
_SIGNS_BY_NAME = {s.name: s for s in ALL_SIGNS}


def sign_by_name(name: str) -> SignType:
    try:
        return _SIGNS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown sign type {name!r}") from None


def default_sign_weights(signs: tuple[SignType, ...] = ALL_SIGNS) -> "TieSignWeights":
    """Weights from the ordering principle: direct counts twice as much as
    indirect at equal visibility, private twice as much as public at equal
    directness; normalized to sum one over the active sign set."""
    raw = {}
    for s in signs:
        w = 1.0
        if s.direct:
            w *= 2.0
        if s.private:
            w *= 2.0
        raw[s.name] = w
    total = sum(raw.values())
    return TieSignWeights({k: v / total for k, v in raw.items()})


@dataclass(frozen=True)
class TieSignWeights:
    """Per-sign-type weights, summing to one."""

    weights: dict[str, float]

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("sign weights must be nonnegative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sign weights must sum to 1, got {total}")
        # Private must outweigh public at equal directness wherever both
        # tagged variants are active.
        for directness in (True, False):
            private = [self.weights[s.name] for s in ALL_SIGNS
                       if s.name in self.weights
                       and s.direct == directness and s.private]
            public = [self.weights[s.name] for s in ALL_SIGNS
                      if s.name in self.weights
                      and s.direct == directness and not s.private]
            if private and public and min(private) <= max(public):
                raise ValueError(
                    "private signs must weigh strictly more than public "
                    "signs of the same directness")


class TieSignLedger:
    """Counts of typed interactions per ordered user pair, with the time of
    the latest update per sign."""

    def __init__(self) -> None:
        # (u, v) -> sign name -> (count, last_update_s)
        self._entries: dict[tuple[int, int], dict[str, tuple[int, float]]] = {}

    def record(self, u: int, v: int, sign: str, count: int,
               last_update_s: float = 0.0) -> None:
        if u == v:
            raise ValueError("self pairs (u, u) are not tracked")
        if count < 0:
            raise ValueError("interaction counts must be nonnegative")
        if not math.isfinite(last_update_s):
            raise ValueError(f"last update time {last_update_s} is not finite")
        sign_by_name(sign)  # validates the name
        self._entries.setdefault((u, v), {})[sign] = (count, last_update_s)

    def count(self, u: int, v: int, sign: str) -> int:
        return self._entries.get((u, v), {}).get(sign, (0, 0.0))[0]

    def last_update(self, u: int, v: int, sign: str) -> float:
        return self._entries.get((u, v), {}).get(sign, (0, 0.0))[1]

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    @classmethod
    def from_text(cls, text: str, delimiter: str = ",") -> "TieSignLedger":
        """Lines of u, v, sign_type, count, last_update_epoch_seconds; blank
        and '#' lines skipped; errors name the line."""
        ledger = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v, sign, count, last = (f.strip()
                                           for f in line.split(delimiter))
                ledger.record(int(u), int(v), sign, int(count), float(last))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"line {lineno}: {exc.args[0]}") from None
        return ledger


@dataclass(frozen=True)
class NormalizationStats:
    """Population mean and maximum of interaction counts, per sign type."""

    mean: dict[str, float]
    maximum: dict[str, float]

    def __post_init__(self):
        for name, xbar in self.mean.items():
            xmax = self.maximum.get(name, 0.0)
            if xbar < 0 or xmax < xbar:
                raise ValueError(
                    f"sign {name!r}: need 0 <= mean <= max, "
                    f"got mean={xbar} max={xmax}")

    @classmethod
    def from_ledger(cls, ledger: TieSignLedger,
                    signs: tuple[SignType, ...] = ALL_SIGNS,
                    ) -> "NormalizationStats":
        pairs = ledger.pairs()
        mean: dict[str, float] = {}
        maximum: dict[str, float] = {}
        for s in signs:
            counts = [ledger.count(u, v, s.name) for u, v in pairs] or [0]
            mean[s.name] = sum(counts) / len(counts)
            maximum[s.name] = float(max(counts))
        return cls(mean, maximum)


def normalize(x: float, mean: float, maximum: float) -> float:
    """Log normalization of an interaction count into [0, 1].

    Zero below the threshold mean^2/max, logarithmic above it, 1 at the
    population maximum, and exactly 0.5 at the population mean.  When the
    population is degenerate (max == mean) the value is 0.5 for any positive
    count, matching the "close to the mean" limit.
    """
    if x < 0:
        raise ValueError("counts are nonnegative")
    if x == 0 or maximum <= 0:
        return 0.0
    if maximum <= mean:
        return 0.5
    threshold = mean * mean / maximum
    if x <= threshold:
        return 0.0
    value = math.log(maximum * x / (mean * mean)) / math.log(
        maximum * maximum / (mean * mean))
    return min(1.0, max(0.0, value))


def decayed_tie_strength(base: float, elapsed_s: float, decay_rate: float) -> float:
    """Exponential aging of a tie index since its latest update."""
    if elapsed_s < 0:
        raise ValueError("elapsed time must be nonnegative")
    if decay_rate < 0:
        raise ValueError("decay rate must be nonnegative")
    return base * math.exp(-decay_rate * elapsed_s)


def tie_strength(u: int, v: int, ledger: TieSignLedger,
                 weights: TieSignWeights, stats: NormalizationStats,
                 now_s: float = 0.0, decay_rate: float = 0.0) -> float:
    """Weighted sum of normalized per-sign interaction counts, in [0, 1],
    each decayed since its sign's latest update before aggregation."""
    if u == v:
        return 0.0
    total = 0.0
    for name, alpha in weights.weights.items():
        f = normalize(ledger.count(u, v, name),
                      stats.mean[name], stats.maximum[name])
        if f > 0.0:
            elapsed = max(0.0, now_s - ledger.last_update(u, v, name))
            f = decayed_tie_strength(f, elapsed, decay_rate)
        total += alpha * f
    return total


TS_SCALE_MAX = 4


def quantize_tie_strength(ts: float) -> int:
    """Map a [0, 1] tie index onto the 0-4 integer scale (half rounds up)."""
    if not 0.0 <= ts <= 1.0:
        raise ValueError(f"tie index {ts} outside [0, 1]")
    return int(math.floor(TS_SCALE_MAX * ts + 0.5))


def generate_ts_matrix(n: int, mu: float, sigma: float,
                       rng: random.Random) -> list[list[int]]:
    """Quantized asymmetric tie-strength matrix for a scenario: n rows of n
    integers, each ordered off-diagonal entry an independent normal draw,
    in row-major order, rounded to the nearest integer and clamped to
    [0, 4]; the diagonal is zero.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    m = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            draw = rng.gauss(mu, sigma)
            m[u][v] = min(TS_SCALE_MAX, max(0, int(math.floor(draw + 0.5))))
    return m


def dump_ts_matrix(m) -> str:
    """Text form: header line "n", then n rows of n integers."""
    lines = [str(len(m))]
    lines.extend(" ".join(str(int(v)) for v in row) for row in m)
    return "\n".join(lines) + "\n"


def load_ts_matrix(text: str) -> list[list[int]]:
    """``dump_ts_matrix``'s form, '#' lines skipped; errors name the line."""
    lines = [(lineno, fields) for lineno, line in enumerate(
        text.splitlines(), start=1)
        if (fields := line.split()) and not fields[0].startswith("#")]
    if not lines:
        raise ValueError("no rows")
    (lineno, header), *body = lines
    n = len(body)
    if n == 0 or header != [str(n)]:
        raise ValueError(f"line {lineno}: the first line must be the node "
                         f"count, the rows after it (>= 1)")
    rows = []
    for i, (lineno, fields) in enumerate(body):
        try:
            row = [int(f) for f in fields]
        except ValueError:
            row = []
        if len(row) != n:
            why = f"expected {n} integers, got {' '.join(fields)}"
        elif row[i] != 0:
            why = "diagonal must be zero"
        elif not all(0 <= v <= TS_SCALE_MAX for v in row):
            why = "entries must lie in [0, 4]"
        else:
            rows.append(row)
            continue
        raise ValueError(f"line {lineno}: {why}")
    return rows


def path_mean_ts(path, ts_matrix) -> float:
    """Geometric mean of the directed per-link tie strengths along a path.

    A single zero link annihilates the whole product, so the mean is zero
    whenever any hop joins strangers.
    """
    path = tuple(path)
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    for a, b in zip(path, path[1:]):
        if a == b:
            raise ValueError(f"repeated consecutive node {a} in path")
    values = tuple(int(ts_matrix[a][b]) for a, b in zip(path, path[1:]))
    if any(v == 0 for v in values):
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
