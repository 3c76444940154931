"""Packet structure and the local validity checks destinations apply.

A packet carries [coding coefficients, input hashes, own hash, payload].
Headers (coefficients and both hash fields) are assumed sufficiently coded
to traverse links error-free; only the payload is subject to channel noise
and adversarial corruption, so the simulator never perturbs headers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .channel import flip_bits, hamming_vec
from .gfield import default_field
from .hashing import HashSpec, collision_class, hash_eval


@dataclass(frozen=True)
class Packet:
    """One transmitted unit: coefficients, input hashes, own hash, payload.

    A packet from a well-behaving node satisfies
    own_hash == h(payload) and payload == sum(coeffs[j] * input[j]).
    """

    coeffs: dict
    input_hashes: dict
    own_hash: int
    payload: int


def make_packet(inputs: dict, coeffs: dict, spec: HashSpec) -> Packet:
    """Valid packet a well-behaving node builds from its received inputs."""
    if not inputs or set(inputs) != set(coeffs):
        raise ValueError("inputs and coeffs must share a nonempty key set")
    if any(c == 0 for c in coeffs.values()):
        raise ValueError("coding coefficients must be nonzero")
    keys = sorted(inputs)
    payload = default_field(spec.n).lincomb([coeffs[k] for k in keys], [inputs[k] for k in keys])
    return Packet(
        coeffs=dict(coeffs),
        input_hashes={k: hash_eval(spec, inputs[k]) for k in keys},
        own_hash=hash_eval(spec, payload),
        payload=payload,
    )


def corrupt_payload(pkt: Packet, p_adv: float, spec: HashSpec, rng) -> Packet:
    """Adversarial injection: i.i.d. payload bit flips at rate p_adv.

    The own hash is recomputed to match the corrupted payload, since a
    stale hash would be caught by the destination's consistency check.
    """
    corrupted = flip_bits(pkt.payload, p_adv, spec.n, rng)
    return replace(pkt, payload=corrupted, own_hash=hash_eval(spec, corrupted))


def destination_check(pkt: Packet, spec: HashSpec) -> bool:
    """True iff the announced own hash matches the payload actually carried."""
    return pkt.own_hash == hash_eval(spec, pkt.payload)


def search_corruption(pkt: Packet, spec: HashSpec, p_overhear: float) -> Packet:
    """Computationally unbounded adversary for small fields (n <= 8).

    Enumerates every alternative payload and picks the one that maximizes
    the expected consistency score of the strongest possible watchdog (one
    that knows the true payload exactly and overhears through a BSC at
    p_overhear). Candidates announcing a different hash than the true
    payload score zero, so the search effectively runs over the true
    payload's collision class; if that class is a singleton no evasion is
    possible and the closest-in-Hamming alternative is returned.
    """
    n = spec.n
    if n > 8:
        raise ValueError("search adversary is exposed for n <= 8 only")
    if not 0.0 < p_overhear < 1.0:
        raise ValueError("p_overhear must be in (0, 1)")
    x = pkt.payload
    size = 1 << n
    xs = np.arange(size, dtype=np.int64)
    # lik[obs, sent] for every pair of n-bit words
    d = _popcount_matrix(n)
    lik = np.exp(d * np.log(p_overhear) + (n - d) * np.log1p(-p_overhear))
    cls = collision_class(spec, hash_eval(spec, x))
    denom = lik[:, cls].sum(axis=1)
    weight = lik[:, x] / denom  # idealized watchdog consistency per observation
    scores = lik.T @ weight  # expected consistency per candidate payload
    in_class = np.zeros(size, dtype=bool)
    in_class[cls] = True
    scores[~in_class] = 0.0
    scores[x] = -1.0
    best = float(scores.max())
    if best > 0.0:
        ties = np.flatnonzero(scores == best)
    else:
        ties = xs[xs != x]
    dist = hamming_vec(x, ties)
    ties = ties[dist == dist.min()]
    chosen = int(ties.min())
    return replace(pkt, payload=chosen, own_hash=hash_eval(spec, chosen))


@functools.lru_cache(maxsize=4)
def _popcount_matrix(n: int) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int64)
    return np.bitwise_count(xs[:, None] ^ xs).astype(np.float64)

