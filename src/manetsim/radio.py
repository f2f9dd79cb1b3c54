"""Physical layer: log-distance path loss, SNR margin, unit-disk
connectivity and per-link delivery behaviour.

The paper-grade inputs are transmission range (120 m) and nominal bitrate
(11 Mbps).  Our documented calibration puts the SNR at exactly the range on
the reception threshold, so the usable-link predicate (distance <= range)
and the SNR model agree, and the paper's -92 dBm noise floor, the 10 dB
threshold and the transmit power cancel out: a hop's SNR margin above the
threshold is PL(range) - PL(d) = 10 n log10(range / d), zero at the range.
Corruption falls linearly from ``max_corruption_prob`` at margin 0 to zero
at ``corruption_span_db``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# path loss at the 1 m reference distance; it cancels out of every margin,
# but PL(range) - PL(d) with it rounds as the model always has
REF_LOSS_DB = 40.0


@dataclass(frozen=True)
class RadioSpec:
    tx_range_m: float = 120.0
    path_loss_exponent: float = 3.0
    nominal_bitrate_bps: float = 11e6
    max_corruption_prob: float = 0.05
    corruption_span_db: float = 20.0

    def path_loss(self, distance_m: float) -> float:
        """Log-distance path loss in dB, 1 m reference distance."""
        d = max(distance_m, 1.0)
        return REF_LOSS_DB + 10.0 * self.path_loss_exponent * math.log10(d)

    def margin_db(self, distance_m: float) -> float:
        """SNR margin above the reception threshold; 0.0 at the range."""
        return self.path_loss(self.tx_range_m) - self.path_loss(distance_m)

    def corruption_probability(self, margin_db: float) -> float:
        """Monotone nonincreasing in the margin; max_corruption_prob at
        margin 0, zero once the margin reaches corruption_span_db."""
        frac = 1.0 - margin_db / self.corruption_span_db
        return self.max_corruption_prob * min(1.0, max(0.0, frac))


# Per-hop records are tuples: a frozen dataclass pays one
# ``object.__setattr__`` per field on every hop.
class LinkState(NamedTuple):
    node_a: int
    node_b: int
    distance_m: float
    margin_db: float
    usable: bool


class TransmitOutcome(NamedTuple):
    delay_s: float = 0.0
    cause: str | None = None  # None when delivered


_LINK_BREAK = TransmitOutcome(cause="link-break")
_new = tuple.__new__  # the per-hop calls skip the NamedTuple's Python __new__


class Medium:
    """Instantaneous connectivity and delivery over a mobility trace.

    Pure function of (positions, RadioSpec, rng stream); the only state is a
    one-entry cache of the last connectivity snapshot, keyed by query time,
    which serves route discovery, the CBR route refresh and endpoint
    picking.  Every pair, here and in the MAC load scan, is linked when
    ``dx * dx + dy * dy <= range_sq``.
    """

    def __init__(self, spec: RadioSpec, position_of, node_ids: list[int]):
        self.spec = spec
        self._position_of = position_of  # callable (node, t) -> (x, y)
        self.node_ids = sorted(node_ids)
        self.range_sq = spec.tx_range_m ** 2
        self._graph_cache: dict[float, dict[int, list[int]]] = {}
        # the spec's constants for the per-hop calls, which repeat the
        # float operations of RadioSpec.margin_db and
        # RadioSpec.corruption_probability in the same order
        self._range_loss = spec.path_loss(spec.tx_range_m)
        self._loss_slope = 10.0 * spec.path_loss_exponent
        self._span = spec.corruption_span_db
        self._max_corruption = spec.max_corruption_prob

    def link_state(self, a: int, b: int, t: float) -> LinkState:
        if a == b:
            raise ValueError("no self links")
        xa, ya = self._position_of(a, t)
        xb, yb = self._position_of(b, t)
        dx = xb - xa
        dy = yb - ya
        dist = math.hypot(dx, dy)
        margin = self._range_loss - (REF_LOSS_DB + self._loss_slope
                                     * math.log10(dist if dist > 1.0 else 1.0))
        # usable by the rule connectivity uses, so a discovered hop is usable
        return _new(LinkState, (a, b, dist, margin,
                                dx * dx + dy * dy <= self.range_sq))

    def connectivity(self, t: float) -> dict[int, list[int]]:
        """Adjacency lists (sorted) of the unit-disk graph at time t, over
        the whole network at once."""
        cached = self._graph_cache.get(t)
        if cached is not None:
            return cached
        placed = [(n, *self._position_of(n, t)) for n in self.node_ids]
        r2 = self.range_sq
        adj: dict[int, list[int]] = {node: [] for node in self.node_ids}
        # pairs in ascending order: each node's neighbours come out sorted
        for i, (a, xa, ya) in enumerate(placed):
            nbrs = adj[a]
            for b, xb, yb in placed[i + 1:]:
                dx = xb - xa
                dy = yb - ya
                if dx * dx + dy * dy <= r2:
                    nbrs.append(b)
                    adj[b].append(a)
        self._graph_cache = {t: adj}
        return adj

    def transmit(self, link: LinkState, air_s: float,
                 rng: random.Random) -> TransmitOutcome:
        """One unicast attempt over ``link`` of a frame ``air_s`` on air.

        Delivered after the air time plus propagation delay, or corrupted
        with a probability that decreases with SNR margin; sends on an
        unusable link drop with cause "link-break".
        """
        if not link.usable:
            return _LINK_BREAK
        delay = air_s + link.distance_m / SPEED_OF_LIGHT
        frac = 1.0 - link.margin_db / self._span
        p = self._max_corruption * (
            1.0 if frac >= 1.0 else frac if frac > 0.0 else 0.0)
        if p > 0.0 and rng.random() < p:
            return _new(TransmitOutcome, (delay, "corruption"))
        return _new(TransmitOutcome, (delay, None))
