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

Every p* is computed by one block function, ``_watch``, over
``_Holdings``: the array form of what the watchdogs of a block of relay
uses hold. It makes each block's transition rows and relay normalizers in
one batched pass, and runs the forward pass and scoring per use. The Monte
Carlo harness hands it whole blocks of drawn trials; the public
one-observation functions are one-use calls of it, and each use gets
exactly the floats it would get alone.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Bsc, _log_likelihood_table, ball_radius, ball_volume, log_likelihood
from .gfield import GF2n, default_field
from .hashing import HashSpec, _table, hash_eval


# Contributions summed per np.bincount call in the forward pass; bounds each
# temporary at about 64 KiB without changing any result.
_SCATTER_CHUNK = 1 << 13


# The InferenceError message of a transition row with no candidate left.
_EMPTY_ROW = "no candidate consistent with hash"


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
        hashes = [o.hash_value for o in (*self.overheard, self.relay_overheard)]
        if any(not 0 <= h < (1 << self.hash_spec.delta) for h in hashes):
            raise ValueError("hash values must be delta-bit values")

    @property
    def field(self) -> GF2n:
        """GF(2^n) at the hash spec's width: the field the sources code over."""
        return default_field(self.hash_spec.n)


@dataclass(frozen=True)
class TransitionRow:
    """Normalized candidate distribution for one overheard symbol."""

    candidates: np.ndarray
    probs: np.ndarray


# The widest row that ``np.add.reduce(axis=1)`` adds in the order of the
# row's own 1-D sum once padded with zeros: from 8 on, numpy's pairwise sum
# regroups the padded row's additions.
_PADDED_WIDTH = 7


def _segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, lengths: np.ndarray, empty: float
) -> np.ndarray:
    """``ufunc.reduce`` of each run of ``lengths`` consecutive values; ``empty`` for an empty run.

    Each run is reduced as one row of a 2-D array along axis 1, which takes
    it in the order a 1-D reduce of it does (``np.add.reduceat`` does not,
    from runs of 3 values up). Runs that all share one length are already
    such rows. Otherwise every run is cut or padded with ``empty`` (-inf
    for max, 0.0 for add) to ``_PADDED_WIDTH`` values, and all of them are
    reduced in one pass: padding leaves a max, and a sum of values that are
    not -0.0, unchanged. Longer runs are then stacked by length.
    """
    sizes = set(lengths.tolist())
    if len(sizes) == 1 and 0 not in sizes:
        return ufunc.reduce(values.reshape(len(lengths), -1), axis=1)
    starts = np.cumsum(lengths) - lengths
    if min(sizes, default=0) <= _PADDED_WIDTH:
        # row r holds run r's first values, then the empty value appended at len(values)
        at = np.arange(_PADDED_WIDTH)
        slots = np.where(at < lengths[:, None], starts[:, None] + at, len(values))
        out = ufunc.reduce(np.append(values, empty)[slots], axis=1)
    else:
        out = np.empty(len(lengths))
    for length in sizes:
        if length > _PADDED_WIDTH:  # this run's row above was cut short: reduce it whole
            long_runs = np.flatnonzero(lengths == length)
            out[long_runs] = ufunc.reduce(
                values[starts[long_runs, None] + np.arange(length)], axis=1
            )
    return out


def _classes(tables: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collision classes of a batch: target (k, j) looked up in hash table tables[k].

    Returns (item, symbol) pairs, item indexing ``targets.ravel()``, in item
    order and ascending symbol order within an item.
    """
    found = np.flatnonzero(tables[:, None, :] == targets[:, :, None])
    return np.divmod(found, tables.shape[1])


@functools.cache
def _ball_masks(n: int, r: int) -> np.ndarray:
    """Read-only: every n-bit mask of weight at most r, ascending."""
    masks = np.arange(1 << n)
    masks = masks[np.bitwise_count(masks) <= r]
    masks.flags.writeable = False
    return masks


def _ball_members(
    tables: np.ndarray, observed: np.ndarray, targets: np.ndarray, r: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_classes`` of a batch kept within distance r of observed, found from the balls.

    Item (k, j) tries observed[k, j] XOR every mask of weight at most r and
    keeps the symbols that hash to targets[k, j] under tables[k]. Sorting
    the keys ``item << n | symbol`` gives the pairs in item order and
    ascending symbol order within an item, as ``_classes`` orders them.
    """
    masks = _ball_masks(n, r)
    count, peers = targets.shape
    symbols = (observed[:, :, None] ^ masks).reshape(count, peers * len(masks))
    hit = tables[np.arange(count)[:, None], symbols] == np.repeat(targets, len(masks), axis=1)
    found = np.flatnonzero(hit)
    keys = np.sort((found // len(masks)) << n | symbols.ravel()[found])
    return keys >> n, keys & ((1 << n) - 1)


@functools.lru_cache(maxsize=32)
def _pruning(
    channels: tuple[Bsc, ...], n: int, delta: int, eps: float
) -> tuple[np.ndarray, int | None]:
    """Each channel's read-only ball radius at eps, and the radius to find candidates at.

    Candidates are found in the balls of the widest radius when that ball
    holds no more symbols than a collision class of an onto hash,
    2^(n - delta); else (None) in the whole hash table.
    """
    radius = np.array([ball_radius(ch, n, eps) for ch in channels], dtype=np.int64)
    radius.flags.writeable = False
    reach = int(radius.max(initial=0))
    return radius, reach if ball_volume(n, reach) <= 1 << (n - delta) else None


def _transition_rows(
    tables: np.ndarray,
    observed: np.ndarray,
    targets: np.ndarray,
    channels,
    n: int,
    delta: int,
    prune_eps: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every transition row of a batch in one pass.

    Row (k, j) is ``transition_row(observed[k, j], targets[k, j], channels[j],
    spec_k, prune_eps)`` where tables[k] is spec_k's delta-bit hash table.
    Returns the rows' candidates and probabilities laid end to end in row
    order, and each row's length, with the shape of targets; a length of 0
    is a row for which transition_row raises InferenceError. Every row holds
    exactly the floats it would hold alone: likelihoods are elementwise,
    maxima exact, and sums taken per row in row order (``_segment_reduce``).

    Pruned rows find their candidates in the balls (``_ball_members``)
    where ``_pruning`` says so; other rows scan the whole hash table
    (``_classes``). The distance filter then leaves the same candidates in
    the same order either way.
    """
    channels = tuple(channels)
    radius, reach = (None, None) if prune_eps is None else _pruning(channels, n, delta, prune_eps)
    if reach is None:
        items, cands = _classes(tables, targets)
    else:
        items, cands = _ball_members(tables, observed, targets, reach, n)
    peer = items % targets.shape[1]
    d = np.bitwise_count(observed.ravel()[items] ^ cands)
    if radius is not None:
        near = d <= radius[peer]
        items, cands, d, peer = items[near], cands[near], d[near], peer[near]
    logw = _log_likelihood_table(channels, n)[peer, d]
    finite = logw > -np.inf
    items, cands, logw = items[finite], cands[finite], logw[finite]
    lengths = np.bincount(items, minlength=targets.size)
    w = np.exp(logw - _segment_reduce(np.maximum, logw, lengths, -np.inf)[items])
    w /= _segment_reduce(np.add, w, lengths, 0.0)[items]
    keep = w > 0.0
    lengths = np.bincount(items[keep], minlength=targets.size).reshape(targets.shape)
    return cands[keep], w[keep], lengths


def _check_overheard(spec: HashSpec, observed: int, hash_name: str, hash_value: int) -> None:
    """Raise a ValueError naming the argument unless both fit the spec's widths."""
    if not 0 <= observed < (1 << spec.n):
        raise ValueError(f"observed {observed} is not an {spec.n}-bit symbol")
    if not 0 <= hash_value < (1 << spec.delta):
        raise ValueError(f"{hash_name} {hash_value} is not a {spec.delta}-bit value")


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
    _check_overheard(spec, observed, "target_hash", target_hash)
    cands, probs, lengths = _transition_rows(
        _table(spec)[None], np.array([[observed]]), np.array([[target_hash]]),
        [ch], spec.n, spec.delta, prune_eps,
    )
    if lengths[0, 0] == 0:
        raise InferenceError(_EMPTY_ROW)
    return TransitionRow(cands, probs)


class Trellis:
    """Layered state graph of candidate partial linear combinations.

    Layer i holds the weights of all reachable values of
    sum_{j<=i} a_j x_j; layer 1 is the single state a_1 x_1 with weight 1.
    """

    def __init__(self, layer_weights: list[np.ndarray]):
        self._arrays = layer_weights

    @property
    def final_weights(self) -> np.ndarray:
        """Dense weight vector of the last layer, indexed by state."""
        return self._arrays[-1]

    @property
    def layers(self) -> list[dict[int, float]]:
        """Sparse per-layer maps state -> weight, positive-weight states only."""
        return [{int(s): float(vec[s]) for s in np.flatnonzero(vec > 0.0)} for vec in self._arrays]


def _hashed_support(w: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States of positive weight in w, and their hashes looked up in table."""
    support = np.flatnonzero(w > 0.0)
    return support, table[support]


def _forward_pass(
    start: int, size: int, shifts: np.ndarray, probs: np.ndarray, edges: list[int]
) -> list[np.ndarray]:
    """Layer weights from state ``start`` through rows laid end to end.

    Peer i's row is shifts[edges[i]:edges[i + 1]] (its candidates times its
    coefficient) with probabilities probs[edges[i]:edges[i + 1]]. Extending
    layer i-1 by peer i adds a_i*x for every candidate x in the peer's
    row; for fixed x this is an XOR shift of the whole layer (a bijection
    on states), so total mass 1 is conserved at every layer.

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
    zeros included. Layer 1 is written without a sum: its one source state
    has weight 1.0 and a row's shifts are distinct, so each of its states
    takes one term t_x * 1.0 = t_x, and 0.0 + t_x is t_x.
    """
    vec = np.zeros(size)
    vec[start] = 1.0
    arrays = [vec]
    if len(edges) > 1:
        vec = np.zeros(size)
        vec[shifts[edges[0]:edges[1]] ^ start] = probs[edges[0]:edges[1]]
        arrays.append(vec)
    states = np.arange(size)
    for lo_row, hi_row in zip(edges[1:], edges[2:]):
        row_shifts, row_probs = shifts[lo_row:hi_row], probs[lo_row:hi_row]
        support = np.flatnonzero(vec > 0.0)
        mass = vec[support]
        step = max(1, _SCATTER_CHUNK // len(support))
        acc = None
        for lo in range(0, len(row_shifts), step):
            targets = (row_shifts[lo:lo + step, None] ^ support).ravel()
            weights = (row_probs[lo:lo + step, None] * mass).ravel()
            if acc is not None:
                targets = np.concatenate((states, targets))
                weights = np.concatenate((acc, weights))
            acc = np.bincount(targets, weights, minlength=size)
        vec = acc
        arrays.append(vec)
    return arrays


class _Holdings(NamedTuple):
    """What the watchdogs of a block of relay uses hold, as arrays.

    Row k is one use, policed by one watchdog; column a of the relay arrays
    is arm a, one transmission of the relay. Peer column j is overheard
    over peer_channels[j], and every arm over relay_channel.
    """

    n: int  # the symbol width
    delta: int  # the hash width
    tables: np.ndarray  # each use's hash of every n-bit symbol
    own: np.ndarray  # the watchdog's own symbol
    coeffs: np.ndarray  # the nonzero coding coefficients, the watchdog's first
    heard: np.ndarray  # the peers' symbols as the watchdog overheard them
    peer_hashes: np.ndarray
    relay_symbols: np.ndarray  # each arm's relay payload as overheard
    relay_hashes: np.ndarray  # the hash each arm's relay announces
    peer_channels: tuple[Bsc, ...]
    relay_channel: Bsc
    prune_eps: float | None


def _holdings(obs: WatchdogObservation) -> _Holdings:
    """obs as a block of one use with one arm."""
    peers, relay, spec = obs.overheard, obs.relay_overheard, obs.hash_spec
    return _Holdings(
        spec.n, spec.delta, _table(spec)[None], np.array([obs.own_symbol]), np.array([obs.coeffs]),
        np.array([[o.symbol for o in peers]], dtype=np.int64),
        np.array([[o.hash_value for o in peers]], dtype=np.int64),
        np.array([[relay.symbol]]), np.array([[relay.hash_value]]),
        tuple(o.channel for o in peers), relay.channel, obs.prune_eps,
    )


class _Use(NamedTuple):
    """One relay use of a block, as its watchdog scored it."""

    layers: list[np.ndarray] | None  # the trellis's layer weights; None: a row came up empty
    lengths: list[int]  # the candidate count of each transition row
    support: int  # positive-weight final states
    matched: int  # of them, those hashing to arm 0's announced value, when not scoring
    pstars: list[float]  # each arm's p* when scored, 0 where an InferenceError stopped it
    faults: list[str | None]  # each scored arm's InferenceError message, else None


def _relay_normalizers(
    tables: np.ndarray, symbols: np.ndarray, hashes: np.ndarray, ch: Bsc, n: int
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Scaled normalizers of a batch of relays over their announced collision classes.

    Relay (k, a) was overheard over ch as symbols[k, a] and announces
    hashes[k, a] under hash table tables[k]. Returns (top, denom, faults),
    one entry per relay in ``hashes.ravel()`` order: top is the max log
    likelihood over the class and denom = sum exp(logw - top), whose scale
    cancels in every ratio built from them; faults holds the InferenceError
    message for a relay that cannot be scored, else None (its top is then 0
    and its denom meaningless). Each value is the one the relay would get
    alone.
    """
    items, cls = _classes(tables, hashes)
    logw = _log_likelihood_table((ch,), n)[0, np.bitwise_count(symbols.ravel()[items] ^ cls)]
    lengths = np.bincount(items, minlength=hashes.size)
    top = _segment_reduce(np.maximum, logw, lengths, -np.inf)
    possible = top > -np.inf
    top[~possible] = 0.0
    denom = _segment_reduce(np.add, np.exp(logw - top[items]), lengths, 0.0)
    faults = [
        None if ok
        else "relay hash matches no symbol" if size == 0
        else "observation impossible under a noiseless relay channel"
        for ok, size in zip(possible.tolist(), lengths.tolist())
    ]
    return top, denom, faults


def _score_arms(
    w: np.ndarray,
    support: np.ndarray,
    hashes: np.ndarray,
    symbols: np.ndarray,
    relay_hashes: np.ndarray,
    logl: np.ndarray,
    top: np.ndarray,
    denom: np.ndarray,
) -> list[float]:
    """p* of each relay arm scored against one final layer.

    w is the final layer, support its positive-weight states and hashes
    their hashes. Arm a was overheard as symbols[a] announcing
    relay_hashes[a]; logl is the relay channel's log likelihood by Hamming
    distance and (top[a], denom[a]) the arm's normalizer. An arm's p* sums
    w(s) * T_inv(s, symbols[a]) over its matched states s in ascending
    order, as one 1-D dot product; the terms of all arms are computed
    together, elementwise.
    """
    arm, at = np.divmod(np.flatnonzero(hashes == relay_hashes[:, None]), len(hashes))
    states = support[at]
    d = np.bitwise_count(states ^ symbols[arm])
    terms = np.exp(logl[d] - top[arm])
    mass = w[states]
    ends = np.cumsum(np.bincount(arm, minlength=len(relay_hashes))).tolist()
    pstars = []
    for lo, hi, scale in zip([0, *ends], ends, denom.tolist()):
        pstars.append(min(1.0, float(mass[lo:hi] @ terms[lo:hi]) / scale) if hi > lo else 0.0)
    return pstars


def _watch(
    h: _Holdings, score: bool = True, layers: list[np.ndarray] | None = None
) -> Iterator[_Use]:
    """The watchdog of every use of a block, in order: its trellis and each arm's p*.

    One batched pass each makes the block's transition rows and (when
    scoring) relay normalizers; the forward pass and each arm's dot product
    run per use, one use's layers at a time. Every float is the one the use
    gives alone. The trellis reads only what the watchdog holds, never the
    relay's transmission, so all arms share it. ``layers`` given are scored
    as a one-use block's trellis, and no rows are made.
    """
    (count, arms), n, peers = h.relay_hashes.shape, h.n, h.heard.shape[1]
    field, faults, lengths = default_field(n), [None] * (count * arms), [[]]
    if layers is None:
        cands, probs, lengths = _transition_rows(
            h.tables, h.heard, h.peer_hashes, h.peer_channels, n, h.delta, h.prune_eps
        )
        shifts = field.mul_elementwise(np.repeat(h.coeffs[:, 1:].ravel(), lengths.ravel()), cands)
        edges = [0, *np.cumsum(lengths.ravel()).tolist()]  # row r spans edges[r]:edges[r + 1]
        starts = field.mul_elementwise(h.coeffs[:, 0], h.own).tolist()
        lengths = lengths.tolist()
    if score:
        top, denom, faults = _relay_normalizers(
            h.tables, h.relay_symbols, h.relay_hashes, h.relay_channel, n
        )
        top, denom = top.reshape(count, arms), denom.reshape(count, arms)
        logl = _log_likelihood_table((h.relay_channel,), n)[0]
    for k, row_lengths in enumerate(lengths):
        built, pstars, fault = layers, [0.0] * arms, faults[k * arms:(k + 1) * arms]
        if built is None and all(row_lengths):
            rows = edges[k * peers:(k + 1) * peers + 1]
            built = _forward_pass(starts[k], field.order, shifts, probs, rows)
        if built is None:
            yield _Use(None, row_lengths, 0, 0, pstars, fault)
            continue
        w = built[-1]
        support, hashes = _hashed_support(w, h.tables[k])
        if score:
            ok = [a for a, f in enumerate(fault) if f is None]
            for a, p in zip(ok, _score_arms(
                w, support, hashes, h.relay_symbols[k, ok], h.relay_hashes[k, ok], logl,
                top[k, ok], denom[k, ok],
            )):
                pstars[a] = p
        matched = 0 if score else int(np.count_nonzero(hashes == h.relay_hashes[k, 0]))
        yield _Use(built, row_lengths, len(support), matched, pstars, fault)


def build_and_run_trellis(obs: WatchdogObservation) -> Trellis:
    """Forward pass: accumulate state probabilities layer by layer (``_forward_pass``).

    Raises InferenceError when a transition row comes up empty.
    """
    layers = next(_watch(_holdings(obs), score=False)).layers
    if layers is None:
        raise InferenceError(_EMPTY_ROW)
    return Trellis(layers)


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
    An announced class that cannot explain the overheard symbol raises
    InferenceError, as it does for consistency_probability.
    """
    _check_overheard(spec, observed, "relay_hash", relay_hash)
    top, denom, faults = _relay_normalizers(
        _table(spec)[None], np.array([[observed]]), np.array([[relay_hash]]), ch, spec.n
    )
    if faults[0] is not None:
        raise InferenceError(faults[0])
    if hash_eval(spec, candidate) != relay_hash:
        return 0.0
    return float(np.exp(log_likelihood(ch, observed, candidate, spec.n) - top[0]) / denom[0])


def consistency_probability(trellis: Trellis, obs: WatchdogObservation) -> float:
    """p*: total probability of the overheard relay transmission.

    Sums w(s, m) * T_inv(s, observed) over the final layer; this is the
    statistic whose distribution separates honest from misbehaving relays.
    """
    use = next(_watch(_holdings(obs), layers=[trellis.final_weights]))
    if use.faults[0] is not None:
        raise InferenceError(use.faults[0])
    return float(use.pstars[0])


def _pstar(obs: WatchdogObservation) -> float:
    """``consistency_probability(build_and_run_trellis(obs), obs)`` in one scored pass.

    Raises the InferenceError either of those would raise.
    """
    use = next(_watch(_holdings(obs)))
    fault = _EMPTY_ROW if use.layers is None else use.faults[0]
    if fault is not None:
        raise InferenceError(fault)
    return use.pstars[0]


def matched_codewords(trellis: Trellis, relay_hash: int, spec: HashSpec) -> list[int]:
    """Final-layer states with positive weight hashing to the relay's value."""
    support, hashes = _hashed_support(trellis.final_weights, _table(spec))
    return support[hashes == relay_hash].tolist()


def decide(p_star: float, t: float) -> Verdict:
    """Threshold rule: flag the relay as malicious iff p* <= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return Verdict.MALICIOUS if p_star <= t else Verdict.WELL_BEHAVING
