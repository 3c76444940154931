"""Binary symmetric channel model for overhearing links.

Also holds the Hamming ball combinatorics the detection analysis is built
on: exact ball volumes and tail-probability radii.

Channel likelihoods are computed in log domain because products over
several overheard links underflow doubles as p -> 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def hamming_vec(x: int, ys: np.ndarray) -> np.ndarray:
    return np.bitwise_count(np.bitwise_xor(ys, x)).astype(np.int64)


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel flipping each bit independently with prob p.

    Raw overhearing channels are no worse than a coin flip, so p is
    restricted to [0, 0.5].
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"BSC crossover must be in [0, 0.5], got {self.p}")


def flip_bits(x: int, p: float, n: int, rng) -> int:
    """x with each of its n bits independently flipped with probability p.

    Unlike Bsc, p may be anywhere in [0, 1]: this is also the adversary's
    injection primitive. n is at most 63.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    if not 0 <= n <= 63:
        raise ValueError(f"width must be in [0, 63] bits, got {n}")
    return x ^ int(_flip_masks(rng.random(n), p))


def _flip_masks(draws: np.ndarray, p) -> np.ndarray:
    """Bit masks, bit i set iff draws[..., i] < p: the flips each row of uniforms makes.

    p broadcasts against draws, so a stack of rows can flip at per-row
    rates. Flipping at several rates with the same draws gives nested
    masks, which is how the arms of one trial share a single adversary
    stream. Masks are int64, so rows hold at most 63 draws (symbols are at
    most 16 bits).
    """
    bits = draws < p
    return bits @ (1 << np.arange(bits.shape[-1], dtype=np.int64))


def transmit(ch: Bsc, x: int, n: int, rng) -> int:
    """One use of the channel on an n-bit symbol."""
    return flip_bits(x, ch.p, n, rng)


def log_likelihood(ch: Bsc, observed: int, candidate: int, n: int) -> float:
    """log P(observed | candidate sent) = d*log(p) + (n-d)*log(1-p).

    p = 0 degenerates to an exact-match indicator (log 0 = -inf). A lookup
    into ``_log_likelihood_table``, which computes the formula.
    """
    return float(_log_likelihood_table((ch,), n)[0, hamming(observed, candidate)])


def log_likelihood_vec(ch: Bsc, observed: int, candidates: np.ndarray, n: int) -> np.ndarray:
    return _log_likelihood_table((ch,), n)[0, hamming_vec(observed, candidates)]


@functools.lru_cache(maxsize=32)
def _log_likelihood_table(channels: tuple[Bsc, ...], n: int) -> np.ndarray:
    """Read-only log_likelihood over channels[c] at Hamming distance d, in row c, column d.

    The two logs of a rate come from scalar math.log and math.log1p (an
    array np.log1p does not round every rate the same way); the products
    and sum are elementwise, so a lookup by distance gives exactly the
    float the scalar formula d*log(p) + (n-d)*log1p(-p) gives at that
    distance.
    """
    d = np.arange(n + 1)
    table = np.empty((len(channels), n + 1))
    for row, ch in zip(table, channels):
        if ch.p == 0.0:
            row[:] = np.where(d == 0, 0.0, -np.inf)
        else:
            row[:] = d * math.log(ch.p) + (n - d) * math.log1p(-ch.p)
    table.flags.writeable = False
    return table


def ball_volume(n: int, r: int) -> int:
    """Number of n-bit words within Hamming distance r of a center.

    Exact integer arithmetic; no floating point.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, {n}], got {r}")
    return _ball_volumes(n)[r]


@functools.lru_cache(maxsize=8)
def _ball_volumes(n: int) -> tuple[int, ...]:
    """ball_volume(n, r) for r = 0..n: one cumulative sum of the binomials C(n, k)."""
    return tuple(itertools.accumulate(math.comb(n, k) for k in range(n + 1)))


def ball_radius(ch: Bsc, n: int, eps: float) -> int:
    """Smallest r with P(Binomial(n, p) <= r) >= 1 - eps.

    The overheard symbol lies within this radius of the transmitted one
    with probability at least 1 - eps; r = n always qualifies.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    cum = 0.0
    for r in range(n + 1):
        cum += math.comb(n, r) * ch.p**r * (1.0 - ch.p) ** (n - r)
        if cum >= 1.0 - eps:
            return r
    return n

