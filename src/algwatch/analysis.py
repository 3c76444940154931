"""Closed-form evaluators for the two-hop detection analysis.

Exact misdetection formulas for the two-source network (watchdog, peer,
relay), the expected matched-codeword count for the general two-hop
network, and the ball-intersection pass/fail check the closed forms
describe. Binomial sums are exact integers; each evaluator performs a
single final floating division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Bsc, ball_radius, ball_volume, hamming_vec
from .gfield import default_field
from .hashing import HashSpec, collision_class


def binary_entropy(p: float) -> float:
    """H(p) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("entropy argument must be in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class TwoHopGeometry:
    """Uncertainty radii of the two-source network's four overheard links.

    Radii name the direction of overhearing: ``peer_hears_watchdog`` is the
    radius the peer uses for the watchdog's transmission, and so on. The
    hash is ``hash_bits`` long.
    """

    n: int
    hash_bits: int
    peer_hears_watchdog: int
    watchdog_hears_peer: int
    watchdog_hears_relay: int
    peer_hears_relay: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.hash_bits < 0:
            raise ValueError("hash_bits must be >= 0")
        for r in (
            self.peer_hears_watchdog,
            self.watchdog_hears_peer,
            self.watchdog_hears_relay,
            self.peer_hears_relay,
        ):
            if not 0 <= r <= self.n:
                raise ValueError(f"radii must be in [0, {self.n}]")


def geometry_from_eps(
    n: int, hash_bits: int, eps: float, ch_sources: Bsc, ch_relay: Bsc
) -> TwoHopGeometry:
    """Geometry whose radii capture 1-eps of each channel's mass.

    Source-to-source links share ch_sources; both relay links use ch_relay.
    """
    rs = ball_radius(ch_sources, n, eps)
    rr = ball_radius(ch_relay, n, eps)
    return TwoHopGeometry(n, hash_bits, rs, rs, rr, rr)


def _undetected(g: TwoHopGeometry, relay_radius: int) -> float:
    num = (
        ball_volume(g.n, g.peer_hears_watchdog)
        * ball_volume(g.n, g.watchdog_hears_peer)
        * ball_volume(g.n, relay_radius)
    )
    den = 1 << (3 * g.hash_bits + 2 * g.n)
    return 1.0 if num >= den else num / den  # capped before dividing: num / den may overflow


def undetected_prob_watchdog(g: TwoHopGeometry) -> float:
    """Probability a malicious relay escapes the watchdog's own check.

    Product of the per-set membership probabilities, scaled by the volume
    of the relay candidate set the watchdog builds; increasing any radius
    never decreases the result.
    """
    return _undetected(g, g.watchdog_hears_relay)


def undetected_prob_peer(g: TwoHopGeometry) -> float:
    """Same bound from the peer's perspective of the relay."""
    return _undetected(g, g.peer_hears_relay)


def misdetection_probability(g: TwoHopGeometry) -> float:
    """Probability a malicious relay escapes both sources.

    Equals the smaller of the two single-perspective bounds, i.e. uses the
    smaller relay-side radius.
    """
    return _undetected(g, min(g.watchdog_hears_relay, g.peer_hears_relay))


def _count_args(n: int, m: int, p_rates, d_over_n) -> tuple[list[float], list[float]]:
    """The matched-count evaluators' rates and relative distances, as checked lists."""
    for name, value in (("n", n), ("m", m)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    p_rates = [Bsc(p).p for p in p_rates]  # each rate in [0, 0.5], as for any overhearing link
    d_over_n = [0.0] * (m + 1) if d_over_n is None else list(d_over_n)
    if len(p_rates) != m + 1 or len(d_over_n) != m + 1:
        raise ValueError("need one rate and one relative distance per peer plus the relay")
    return p_rates, d_over_n


def matched_count_expected(
    n: int, m: int, delta: int, p_rates, d_over_n=None
) -> float:
    """Expected matched-codeword count for a watchdog with m peers.

    p_rates lists the m+1 overhearing crossover rates (the m peers then
    the relay); d_over_n the matching relative minimum distances of their
    payload codes (all zero when payloads are uncoded). Returned raw: an
    expected count below 1 is meaningful (the near-unique decoding
    regime), not an error; a count beyond float range is a ValueError.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    p_rates, d_over_n = _count_args(n, m, p_rates, d_over_n)
    total = sum(binary_entropy(p) - binary_entropy(d) for p, d in zip(p_rates, d_over_n))
    exponent = n * (total - 1.0) - m * delta
    try:
        return 2.0 ** exponent
    except OverflowError:
        raise ValueError(f"expected count 2^{exponent:.6g} at n = {n} overflows a float") from None


def matched_count_exponent_eps(
    n: int, m: int, eps: float, p_rates, d_over_n=None
) -> float:
    """Base-2 exponent of the expected count with hash length delta = eps*n.

    Rearranged to expose the tradeoff between overhearing quality (entropy
    of the rates) and redundancy (code distances plus hash fraction):
    n * [sum H(p) - (sum H(d) + 1 + m*eps)].
    """
    p_rates, d_over_n = _count_args(n, m, p_rates, d_over_n)
    hp = sum(binary_entropy(p) for p in p_rates)
    hd = sum(binary_entropy(d) for d in d_over_n)
    return n * (hp - (hd + 1.0 + m * eps))


def algebraic_check(
    x1: int,
    coeffs: tuple[int, int],
    peer_overheard: tuple[int, int],
    relay_overheard: tuple[int, int],
    radii: tuple[int, int],
    spec: HashSpec,
) -> bool:
    """Ball-intersection consistency check for the two-source network.

    peer_overheard and relay_overheard are (noisy symbol, exact hash)
    pairs; radii are the watchdog's (peer, relay) uncertainty radii. The
    watchdog forms every hash-consistent ball-restricted explanation of
    the peer symbol, maps each through the announced combination, and
    passes iff at least one lands in the relay's candidate set. An empty
    candidate set on either side fails the check.
    """
    a1, a2 = coeffs
    if a1 == 0 or a2 == 0:
        raise ValueError("coding coefficients must be nonzero")
    (x2t, h2), (x3t, h3) = peer_overheard, relay_overheard
    r_peer, r_relay = radii
    peer_set = collision_class(spec, h2)
    peer_set = peer_set[hamming_vec(x2t, peer_set) <= r_peer]
    relay_set = collision_class(spec, h3)
    relay_set = relay_set[hamming_vec(x3t, relay_set) <= r_relay]
    if len(peer_set) == 0 or len(relay_set) == 0:
        return False
    field = default_field(spec.n)
    implied = field.mul(a1, x1) ^ field.mul_vec(a2, peer_set)
    return bool(np.isin(implied, relay_set).any())
