"""The watchdog's inference engine.

From noisy overheard symbols and error-free headers, a watchdog infers the
linear combination its downstream relay should be transmitting and scores
the relay's actual transmission against that inference:

1. Each overheard peer symbol yields a transition row: the hash-consistent
   candidates for the peer's true symbol, weighted by channel likelihood
   and normalized.
2. A layered trellis accumulates candidate partial combinations; the state
   weight w(s, i) is the total probability that s = sum_{j<=i} a_j x_j
   given everything overheard. This is a sum-product forward pass: weights
   of paths reaching the same state add, nothing is maximized, so no
   tie-breaking ever arises.
3. The relay's overheard transmission is scored through an inverse
   transition (same likelihoods, normalized over the relay's announced
   collision class), giving the consistency probability p*.
4. p* <= t for a calibrated threshold t flags the relay as malicious.

Layer weights are exposed sparsely (state -> weight for reachable states
only); the forward pass keeps dense vectors but scatters each layer update
from the previous layer's positive-weight support alone, summing the
contributions with ``np.bincount`` in the same order a per-candidate dense
pass would, so every layer is bit-for-bit what that pass gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import Bsc, ball_radius, hamming_vec, log_likelihood, log_likelihood_vec
from .gfield import GF2n, default_field
from .hashing import HashSpec, _table, collision_class, hash_eval


# Contributions summed per np.bincount call in the forward pass; bounds each
# temporary at about 64 KiB without changing any result.
_SCATTER_CHUNK = 1 << 13


class InferenceError(RuntimeError):
    """Structurally impossible observation, e.g. no hash-consistent candidate."""


class Verdict(enum.Enum):
    WELL_BEHAVING = "well-behaving"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class Overheard:
    """One overheard transmission: noisy symbol, exact header hash, channel."""

    symbol: int
    hash_value: int
    channel: Bsc


@dataclass(frozen=True)
class WatchdogObservation:
    """Everything one watchdog legitimately holds about one relay use.

    The watchdog knows its own symbol exactly, overhears each other
    upstream peer and the relay through per-link BSCs, and reads all
    coefficients and hash values from error-free headers. coeffs[0] is the
    watchdog's own coefficient; coeffs[1:] align with ``overheard``.
    """

    own_symbol: int
    coeffs: tuple[int, ...]
    overheard: tuple[Overheard, ...]
    relay_overheard: Overheard
    hash_spec: HashSpec
    prune_eps: float | None = None

    def __post_init__(self):
        if len(self.coeffs) != len(self.overheard) + 1:
            raise ValueError("need exactly one coefficient per source, watchdog first")
        if any(c == 0 for c in self.coeffs):
            raise ValueError("coding coefficients must be nonzero")
        order = 1 << self.hash_spec.n
        syms = [self.own_symbol, self.relay_overheard.symbol]
        syms += [o.symbol for o in self.overheard]
        if any(not 0 <= s < order for s in syms):
            raise ValueError("symbols must be n-bit field elements")

    @property
    def field(self) -> GF2n:
        """GF(2^n) at the hash spec's width: the field the sources code over."""
        return default_field(self.hash_spec.n)

    @property
    def m(self) -> int:
        """Number of sources feeding the relay, watchdog included."""
        return len(self.coeffs)


@dataclass(frozen=True)
class TransitionRow:
    """Normalized candidate distribution for one overheard symbol."""

    candidates: np.ndarray
    probs: np.ndarray


def transition_row(
    observed: int,
    target_hash: int,
    ch: Bsc,
    spec: HashSpec,
    prune_eps: float | None = None,
) -> TransitionRow:
    """Candidates for a transmitted symbol given its overheard copy and hash.

    Candidates are the n-bit symbols hashing to target_hash, weighted by
    channel likelihood and normalized. With prune_eps set, candidates
    outside the Hamming ball that captures 1-eps of the channel's mass are
    dropped before renormalizing; this trades a little false-detection
    probability for a much smaller candidate set.
    """
    cands = collision_class(spec, target_hash)
    if prune_eps is not None and len(cands) > 0:
        r = ball_radius(ch, spec.n, prune_eps)
        cands = cands[hamming_vec(observed, cands) <= r]
    if len(cands) == 0:
        raise InferenceError("no candidate consistent with hash")
    logw = log_likelihood_vec(ch, observed, cands, spec.n)
    finite = logw > -np.inf
    if not finite.any():
        raise InferenceError("no candidate consistent with hash")
    cands, logw = cands[finite], logw[finite]
    w = np.exp(logw - logw.max())
    w /= w.sum()
    keep = w > 0.0
    return TransitionRow(cands[keep], w[keep])


class Trellis:
    """Layered state graph of candidate partial linear combinations.

    Layer i holds the weights of all reachable values of
    sum_{j<=i} a_j x_j; layer 1 is the single state a_1 x_1 with weight 1.
    """

    def __init__(self, layer_weights: list[np.ndarray]):
        self._arrays = layer_weights
        self._layers: list[dict[int, float]] | None = None
        self._hashed: tuple[HashSpec, np.ndarray, np.ndarray] | None = None

    @property
    def final_weights(self) -> np.ndarray:
        """Dense weight vector of the last layer, indexed by state."""
        return self._arrays[-1]

    @property
    def layers(self) -> list[dict[int, float]]:
        """Sparse per-layer maps state -> weight, positive-weight states only."""
        if self._layers is None:
            self._layers = [
                {int(s): float(vec[s]) for s in np.flatnonzero(vec > 0.0)}
                for vec in self._arrays
            ]
        return self._layers

    def _hashed_support(self, spec: HashSpec) -> tuple[np.ndarray, np.ndarray]:
        """Positive-weight final states and their hashes under spec.

        Computed once and shared by every relay scored against this trellis.
        """
        if self._hashed is None or self._hashed[0] != spec:
            support = np.flatnonzero(self.final_weights > 0.0)
            self._hashed = (spec, support, _table(spec)[support])
        return self._hashed[1:]


def build_and_run_trellis(obs: WatchdogObservation) -> Trellis:
    """Forward pass: accumulate state probabilities layer by layer.

    Extending layer i-1 by peer i adds a_i*x for every candidate x in the
    peer's transition row; for fixed x this is an XOR shift of the whole
    layer (a bijection on states), so total mass 1 is conserved at every
    layer.

    The update scatters from the support u of layer i-1 only: candidate x
    sends t_x * w(u) to state shift_x ^ u. The contributions are laid out
    candidate-major and summed by ``np.bincount``, which adds in input
    order, so each state's sum is taken in candidate order, exactly as
    ``acc += t_x * w(. ^ shift_x)`` over the candidates would take it. The
    only terms skipped are t_x * 0.0, and adding +0.0 leaves a sum
    unchanged. Candidates go in chunks of about ``_SCATTER_CHUNK``
    contributions; each chunk after the first starts its input with the
    running sums, and 0 + acc is exact, so chunking changes no addition.
    The layers are therefore bit-identical to that dense pass, exact
    zeros included.
    """
    f = obs.field
    size = f.order
    vec = np.zeros(size)
    vec[f.mul(obs.coeffs[0], obs.own_symbol)] = 1.0
    arrays = [vec]
    states = np.arange(size)
    for coeff, peer in zip(obs.coeffs[1:], obs.overheard):
        row = transition_row(
            peer.symbol, peer.hash_value, peer.channel, obs.hash_spec, obs.prune_eps
        )
        shifts = f.mul_vec(coeff, row.candidates)
        support = np.flatnonzero(vec > 0.0)
        mass = vec[support]
        step = max(1, _SCATTER_CHUNK // len(support))
        acc = None
        for lo in range(0, len(shifts), step):
            targets = (shifts[lo:lo + step, None] ^ support).ravel()
            weights = (row.probs[lo:lo + step, None] * mass).ravel()
            if acc is not None:
                targets = np.concatenate((states, targets))
                weights = np.concatenate((acc, weights))
            acc = np.bincount(targets, weights, minlength=size)
        vec = acc
        arrays.append(vec)
    return Trellis(arrays)


def _relay_normalizer(relay: Overheard, spec: HashSpec) -> tuple[float, float]:
    """Scaled normalizer over the relay's announced collision class.

    Returns (top, denom) where top is the max log likelihood over the class
    and denom = sum exp(logw - top); the scale cancels in every ratio built
    from them.
    """
    cls = collision_class(spec, relay.hash_value)
    if len(cls) == 0:
        raise InferenceError("relay hash matches no symbol")
    logw = log_likelihood_vec(relay.channel, relay.symbol, cls, spec.n)
    top = float(logw.max())
    if top == -np.inf:
        raise InferenceError("observation impossible under a noiseless relay channel")
    return top, float(np.exp(logw - top).sum())


def inverse_transition(
    candidate: int,
    observed: int,
    relay_hash: int,
    ch: Bsc,
    spec: HashSpec,
) -> float:
    """Probability of the overheard relay pair given ``candidate`` was sent.

    Zero when the candidate does not hash to the announced value; otherwise
    the channel likelihood normalized over the announced collision class.
    """
    if hash_eval(spec, candidate) != relay_hash:
        return 0.0
    top, denom = _relay_normalizer(Overheard(observed, relay_hash, ch), spec)
    lc = log_likelihood(ch, observed, candidate, spec.n)
    return float(np.exp(lc - top) / denom)


def consistency_probability(trellis: Trellis, obs: WatchdogObservation) -> float:
    """p*: total probability of the overheard relay transmission.

    Sums w(s, m) * T_inv(s, observed) over the final layer; this is the
    statistic whose distribution separates honest from misbehaving relays.
    """
    relay = obs.relay_overheard
    spec = obs.hash_spec
    top, denom = _relay_normalizer(relay, spec)
    w = trellis.final_weights
    support, hashes = trellis._hashed_support(spec)
    matched = support[hashes == relay.hash_value]
    if len(matched) == 0:
        return 0.0
    logw = log_likelihood_vec(relay.channel, relay.symbol, matched, spec.n)
    numer = float(w[matched] @ np.exp(logw - top))
    return min(1.0, numer / denom)


def matched_codewords(trellis: Trellis, relay_hash: int, spec: HashSpec) -> list[int]:
    """Final-layer states with positive weight hashing to the relay's value."""
    support, hashes = trellis._hashed_support(spec)
    return support[hashes == relay_hash].tolist()


def decide(p_star: float, t: float) -> Verdict:
    """Threshold rule: flag the relay as malicious iff p* <= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return Verdict.MALICIOUS if p_star <= t else Verdict.WELL_BEHAVING
