"""Closed-form evaluators for the two-hop detection analysis.

Exact misdetection formulas for the two-source network (watchdog, peer,
relay), the expected matched-codeword count for the general two-hop
network, and the ball-intersection pass/fail check the misdetection
forms are set beside (each form's docstring says which experiment it is
for, and where no simulated event gives it). Binomial sums are exact
integers; each evaluator performs a single final floating division.
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
    """V(r_pw) V(r_wp) V(r) / 2^(3h + 2n), capped at 1, with r = relay_radius.

    Read factor by factor, it is the chance that a uniform symbol lies in the
    peer's hash-consistent ball around the watchdog's symbol, V(r_pw) /
    2^(n + h) (r_pw = peer_hears_watchdog), times the chance that one lies in
    the watchdog's around the peer's symbol, V(r_wp) / 2^(n + h), times the
    symbols of a hash-consistent relay ball, V(r) / 2^h, with a hash onto h
    bits (a class of 2^(n - h) symbols). It is the paper's form; no event
    this library simulates gives it. ``algebraic_check`` is the one check
    here, and it reads nothing the peer holds, so its pass probability
    does not depend on r_pw, while this product grows strictly with it. The
    check's own first-order count of matches, V(r_wp) V(r) / 2^(2h + n), is
    this product divided by V(r_pw) / 2^(n + h).
    """
    num = (
        ball_volume(g.n, g.peer_hears_watchdog)
        * ball_volume(g.n, g.watchdog_hears_peer)
        * ball_volume(g.n, relay_radius)
    )
    den = 1 << (3 * g.hash_bits + 2 * g.n)
    return 1.0 if num >= den else num / den  # capped before dividing: num / den may overflow


def undetected_prob_watchdog(g: TwoHopGeometry) -> float:
    """The paper's probability that a malicious relay escapes the watchdog's own check.

    The experiment: sources 1 (the watchdog) and 2 (the peer) send x1 and
    x2; the relay should send a1 x1 + a2 x2, but sends another symbol and
    announces that symbol's own hash. The watchdog alone checks, with
    ``algebraic_check``: the peer ball has radius watchdog_hears_peer, the
    relay ball watchdog_hears_relay. The form (``_undetected``) also reads
    peer_hears_watchdog, which that check does not; increasing any radius
    never decreases the result.
    """
    return _undetected(g, g.watchdog_hears_relay)


def undetected_prob_peer(g: TwoHopGeometry) -> float:
    """The paper's probability that the same relay escapes the peer's check instead.

    The peer checks with its own view, as ``algebraic_check`` does with the
    two sources' roles swapped: its ball around the watchdog's symbol has
    radius peer_hears_watchdog, and its relay ball peer_hears_relay. The
    form (``_undetected``) also reads watchdog_hears_peer, which that check
    does not.
    """
    return _undetected(g, g.peer_hears_relay)


def misdetection_probability(g: TwoHopGeometry) -> float:
    """The paper's probability that a malicious relay escapes both sources.

    The experiment of ``undetected_prob_watchdog``, with both sources
    checking, each with its own relay ball: the relay escapes only if both
    checks pass. That event is no more likely than either check passing,
    so the form takes the smaller of the two single-source forms, i.e. the
    smaller relay-side radius; it is not derived as the probability of the
    joint event.
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


def _count_exponent(n: int, m: int, delta: float, p_rates, d_over_n) -> float:
    """The base-2 exponent of the expected matched count: n (sum H(p) - sum H(d) - 1) - m delta."""
    total = sum(binary_entropy(p) - binary_entropy(d) for p, d in zip(p_rates, d_over_n))
    return n * (total - 1.0) - m * delta


def matched_count_expected(
    n: int, m: int, delta: int, p_rates, d_over_n=None
) -> float:
    """Expected matched-codeword count for a watchdog with m peers.

    p_rates lists the m+1 overhearing crossover rates (the m peers then
    the relay); d_over_n the matching relative minimum distances of their
    payload codes (all zero when payloads are uncoded). Returned raw: an
    expected count below 1 is meaningful (the near-unique decoding
    regime), not an error; a count beyond float range is a ValueError, as
    is a hash wider than the symbol (delta > n).
    """
    p_rates, d_over_n = _count_args(n, m, p_rates, d_over_n)
    if not 0 <= delta <= n:
        raise ValueError(f"delta must be in [0, n], got {delta} at n = {n}")
    exponent = _count_exponent(n, m, delta, p_rates, d_over_n)
    try:
        return 2.0 ** exponent
    except OverflowError:
        raise ValueError(f"expected count 2^{exponent:.6g} at n = {n} overflows a float") from None


def matched_count_exponent_eps(
    n: int, m: int, eps: float, p_rates, d_over_n=None
) -> float:
    """Base-2 exponent of the expected count with hash length delta = eps*n.

    The exponent ``matched_count_expected`` raises 2 to, at delta = eps*n.
    It reads as the tradeoff between overhearing quality (entropy of the
    rates) and redundancy (code distances plus hash fraction):
    n * [sum H(p) - (sum H(d) + 1 + m*eps)]. eps outside [0, 1], a hash
    wider than the symbol, is a ValueError.
    """
    p_rates, d_over_n = _count_args(n, m, p_rates, d_over_n)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    return _count_exponent(n, m, eps * n, p_rates, d_over_n)


def algebraic_check(
    x1: int,
    coeffs: tuple[int, int],
    peer_overheard: tuple[int, int],
    relay_overheard: tuple[int, int],
    radii: tuple[int, int],
    spec: HashSpec,
) -> bool:
    """Ball-intersection consistency check for the two-source network.

    The experiment: the watchdog (source 1) knows its own symbol x1 and the
    coefficients (a1, a2); it overhears source 2's symbol x2 over a noisy
    link, and its hash exactly, as peer_overheard, and the relay's
    transmission and the hash the relay announces as relay_overheard (each
    a (noisy symbol, exact hash) pair). radii are the watchdog's (peer,
    relay) uncertainty radii. The peer set is every symbol with the peer's
    hash within the peer radius of the overheard peer symbol, and the
    relay set likewise. The check passes iff a1 x1 + a2 y is in the relay
    set for some y in the peer set; an empty set on either side fails it.
    Only the watchdog checks: nothing the peer holds is read. An honest
    relay passes whenever both true symbols lie in their balls. A relay
    that sends another symbol with that symbol's own hash escapes when it
    passes; a2 is a bijection, so at first order the expected number of
    matches is |peer set| |relay set| / 2^n, about V(r_peer) V(r_relay) /
    2^(2 delta + n) for a hash onto delta bits.
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
