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

Every layer is held one way: (trellis, state, weight) arrays of its
positive-weight states. The forward pass scatters each layer update from
the previous layer's states alone, summing the contributions with
``np.bincount`` in the order a per-candidate dense pass would, so every
layer is bit-for-bit what that pass gives. Chosen per trellis from its row
lengths alone, it runs dense, one trellis at a time (``_forward_pass``),
or, when the rows bound every layer far below 2^n states, keyed: trellises
of a block together (``_keyed_pass``).

The block path is ``_watch`` over ``_Holdings``, the array form of what
the watchdogs of any number of relay uses hold. It cuts them into blocks
and makes each block's hash tables only where they are read, then makes a
block's transition rows and relay normalizers in one batched pass each,
runs the forward passes and scores the final layers of all its uses
together. The Monte Carlo harness hands it whole pieces of drawn trials.
The one-observation calls are thin: ``build_and_run_trellis`` keeps a
one-use block's one pass, and ``consistency_probability`` scores its
final layer (``_score_arms``). Every use gets exactly the floats it would
get alone.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import Bsc, _log_likelihood_table, ball_radius, ball_volume, log_likelihood
from .gfield import GF2n, default_field
from .hashing import HashSpec, _Hashes, _table, _tables, hash_eval


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
    hashes: _Hashes, observed: np.ndarray, targets: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_classes`` of a batch kept within distance r of observed, found from the balls.

    Item (k, j) tries observed[k, j] XOR every mask of weight at most r and
    keeps the symbols that hash to targets[k, j] under use k's hash; only
    those symbols are hashed. Sorting the keys ``item << n | symbol`` gives
    the pairs in item order and ascending symbol order within an item, as
    ``_classes`` orders them.
    """
    n = hashes.n
    masks = _ball_masks(n, r)
    count, peers = targets.shape
    symbols = observed[:, :, None] ^ masks
    hashed = hashes.at(np.arange(count), symbols.reshape(count, -1))
    found = np.flatnonzero(hashed.reshape(symbols.shape) == targets[:, :, None])
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
    hashes: _Hashes,
    observed: np.ndarray,
    targets: np.ndarray,
    channels,
    prune_eps: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every transition row of a batch in one pass.

    Row (k, j) is ``transition_row(observed[k, j], targets[k, j], channels[j],
    spec_k, prune_eps)`` where spec_k is use k's hash in hashes. Returns the
    rows' candidates and probabilities laid end to end in row order, and
    each row's length, with the shape of targets; a length of 0 is a row for
    which transition_row raises InferenceError. Every row holds exactly the
    floats it would hold alone: likelihoods are elementwise, maxima exact,
    and sums taken per row in row order (``_segment_reduce``).

    Pruned rows find their candidates in the balls (``_ball_members``)
    where ``_pruning`` says so; other rows scan the whole hash table
    (``_classes``), which hashes must then hold. The distance filter then
    leaves the same candidates in the same order either way.
    """
    channels, n, delta = tuple(channels), hashes.n, hashes.delta
    radius, reach = (None, None) if prune_eps is None else _pruning(channels, n, delta, prune_eps)
    if reach is None:
        items, cands = _classes(hashes.tables, targets)
    else:
        items, cands = _ball_members(hashes, observed, targets, reach)
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
        _spec_hashes(spec), np.array([[observed]]), np.array([[target_hash]]), [ch], prune_eps
    )
    if lengths[0, 0] == 0:
        raise InferenceError(_EMPTY_ROW)
    return TransitionRow(cands, probs)


class Trellis:
    """Layered state graph of candidate partial linear combinations.

    Layer i holds the weights of all reachable values of
    sum_{j<=i} a_j x_j; layer 1 is the single state a_1 x_1 with weight 1.
    The layers are its one pass's, as ``_trellises`` gives them; a dense
    vector is built only when asked for.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]], order: int):
        self._layers, self._order = layers, order

    @property
    def final_weights(self) -> np.ndarray:
        """Dense weight vector of the last layer, indexed by state."""
        _, states, weights = self._layers[-1]
        vec = np.zeros(self._order)
        vec[states] = weights
        return vec

    @property
    def layers(self) -> list[dict[int, float]]:
        """Sparse per-layer maps state -> weight, positive-weight states only."""
        return [dict(zip(states.tolist(), weights.tolist())) for _, states, weights in self._layers]


def _forward_pass(
    starts: np.ndarray, shifts: np.ndarray, probs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    n: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_keyed_pass`` of a group of one trellis, run dense over 2^n-entry vectors.

    The trellis starts at state starts[0], and its peer i's row is
    shifts[lo[0, i]:hi[0, i]] (its candidates times its coefficient) with
    probabilities probs[lo[0, i]:hi[0, i]]. Extending layer i-1 by peer i
    adds a_i*x for every candidate x in the peer's row; for fixed x this is
    an XOR shift of the whole layer (a bijection on states), so total mass
    1 is conserved at every layer. The layers come back as ``_keyed_pass``
    gives them, trellis 0 throughout: no 2^n-entry vector leaves the pass.

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
    size, start = 1 << n, int(starts[0])
    layers = [(np.zeros(1, np.int64), starts, np.ones(1))]
    states = np.arange(size)
    for lo_row, hi_row in zip(lo[0].tolist(), hi[0].tolist()):
        row_shifts, row_probs = shifts[lo_row:hi_row], probs[lo_row:hi_row]
        _, support, mass = layers[-1]
        if len(layers) == 1:
            vec = np.zeros(size)
            vec[row_shifts ^ start] = row_probs
        else:
            step = max(1, _SCATTER_CHUNK // len(support))
            vec = None
            for at in range(0, len(row_shifts), step):
                targets = (row_shifts[at:at + step, None] ^ support).ravel()
                weights = (row_probs[at:at + step, None] * mass).ravel()
                if vec is not None:
                    targets = np.concatenate((states, targets))
                    weights = np.concatenate((vec, weights))
                vec = np.bincount(targets, weights, minlength=size)
        support = np.flatnonzero(vec > 0.0)
        layers.append((np.zeros(len(support), np.int64), support, vec[support]))
    return layers


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., up to lengths[i] values, for each i in turn."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def _keyed_pass(
    starts: np.ndarray,
    shifts: np.ndarray,
    probs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    n: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_forward_pass`` of a group of trellises at once, one keyed pass per layer.

    Trellis g starts at state starts[g], and its peer i's row is
    shifts[lo[g, i]:hi[g, i]] with probabilities probs[lo[g, i]:hi[g, i]].
    Each layer comes back as (trellis, state, weight) arrays of its
    positive-weight states, in ascending (trellis, state) order.

    A layer's contributions are laid out trellis by trellis, and within a
    trellis as ``_forward_pass`` lays them out: candidate-major, then over
    the ascending live states of the layer before. Each is keyed
    ``g << n | state``. Sorting the keys and comparing neighbours gives the
    distinct keys, and ``np.searchsorted`` each contribution's id among
    them. One ``np.bincount`` over the ids then adds each id's terms in
    input order, starting from 0.0, so each state's sum takes the terms that
    pass adds, in the order it adds them. Each layer equals that pass's
    positive support bit for bit, layer 1 included (0.0 + t_x * 1.0 is
    t_x). A rank-based id (``np.argsort``) was faster, but its first use
    adds about 0.2 MiB of resident set.
    """
    count, mask = len(starts), (1 << n) - 1
    layers = [(np.arange(count), starts, np.ones(count))]
    for row_lo, row_hi in zip(lo.T, hi.T):
        keys, terms = _contributions(layers[-1], count, row_lo, row_hi, shifts, probs, n)
        distinct, ids = _ranks(keys)
        sums = np.bincount(ids, terms, minlength=len(distinct))
        live = sums > 0.0
        layers.append((distinct[live] >> n, distinct[live] & mask, sums[live]))
    return layers


def _contributions(
    layer: tuple[np.ndarray, np.ndarray, np.ndarray],
    count: int,
    row_lo: np.ndarray,
    row_hi: np.ndarray,
    shifts: np.ndarray,
    probs: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, terms) of one ``_keyed_pass`` layer's contributions, laid out as it lays them.

    A function of its own so that its index arrays are freed before the
    keys are sorted: a block's peak memory is a layer's temporaries.
    """
    trellis, states, weights = layer
    sizes = np.bincount(trellis, minlength=count)
    lengths = row_hi - row_lo
    owner = np.repeat(np.arange(count), lengths)  # every candidate, trellis-major
    reps = sizes[owner]  # a candidate meets every live state of its trellis
    cand = np.repeat(_ranges(row_lo, lengths), reps)
    src = _ranges((np.cumsum(sizes) - sizes)[owner], reps)
    keys = np.repeat(owner, reps)
    keys <<= n
    keys |= shifts[cand] ^ states[src]
    terms = probs[cand]
    terms *= weights[src]
    return keys, terms


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and each key's index among them."""
    ranked = np.sort(keys)
    new = np.ones(len(keys), bool)  # the first of its key
    new[1:] = ranked[1:] != ranked[:-1]
    distinct = ranked[new]
    return distinct, np.searchsorted(distinct, keys)


class _Holdings(NamedTuple):
    """What the watchdogs of relay uses hold, as arrays.

    Row k is one use, policed by one watchdog; column a of the relay arrays
    is arm a, one transmission of the relay. Peer column j is overheard
    over peer_channels[j], and every arm over relay_channel.
    """

    hashes: _Hashes  # each use's hash, with tables where a whole collision class is read
    own: np.ndarray  # the watchdog's own symbol
    coeffs: np.ndarray  # the nonzero coding coefficients, the watchdog's first
    heard: np.ndarray  # the peers' symbols as the watchdog overheard them
    peer_hashes: np.ndarray
    relay_symbols: np.ndarray  # each arm's relay payload as overheard
    relay_hashes: np.ndarray  # the hash each arm's relay announces
    peer_channels: tuple[Bsc, ...]
    relay_channel: Bsc
    prune_eps: float | None

    def block(self, lo: int, hi: int, score: bool) -> _Holdings:
        """Uses lo..hi-1, with tables made from their own hashes where ``_reach`` says so."""
        # from a list: a tuple made from a generator is resized, and every such
        # tuple freed would stay behind on CPython's tuple free list
        part = self._make([a[lo:hi] if isinstance(a, np.ndarray) else a for a in self])
        family, n, delta, coeffs, _ = self.hashes
        tables = _tables(family, n, delta, coeffs[lo:hi]) if _reach(self, score) is None else None
        return part._replace(hashes=_Hashes(family, n, delta, coeffs[lo:hi], tables))


def _spec_hashes(spec: HashSpec) -> _Hashes:
    """spec as the hashes of a one-use block, with its cached table."""
    coeffs = np.array([spec.coefficients])
    return _Hashes(spec.family, spec.n, spec.delta, coeffs, _table(spec)[None])


def _holdings(obs: WatchdogObservation) -> _Holdings:
    """obs as a block of one use with one arm."""
    peers, relay = obs.overheard, obs.relay_overheard
    return _Holdings(
        _spec_hashes(obs.hash_spec), np.array([obs.own_symbol]), np.array([obs.coeffs]),
        np.array([[o.symbol for o in peers]], dtype=np.int64),
        np.array([[o.hash_value for o in peers]], dtype=np.int64),
        np.array([[relay.symbol]]), np.array([[relay.hash_value]]),
        tuple(o.channel for o in peers), relay.channel, obs.prune_eps,
    )


# A trellis whose row lengths bound every layer to at most 2^n / _KEYED_SHARE
# states runs keyed, with others of its block (``_keyed_pass``); the rest run
# dense, one at a time (``_forward_pass``). Both give the same floats, so the
# rule picks speed only: the keyed pass's sort costs more per contribution
# than a dense ``bincount``, and the dense pass pays 2^n per layer and a
# Python round trip per layer and trellis. 2^n / 8 is 128 states at n = 10.
_KEYED_SHARE = 8


def _groups(uses: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """uses cut, in order, into groups whose bounds sum to at most _SCATTER_CHUNK each.

    A use whose bound alone is larger makes a group of its own.
    """
    ends = np.cumsum(bounds[uses])  # exact: integer sums below 2^53
    groups, lo = [], 0
    while lo < len(uses):
        limit = ends[lo] - bounds[uses[lo]] + _SCATTER_CHUNK
        hi = max(lo + 1, int(np.searchsorted(ends, limit, "right")))
        groups.append(uses[lo:hi])
        lo = hi
    return groups


def _trellises(h: _Holdings):
    """Every use's trellis: (row lengths, built, keyed, passes).

    A use's trellis is built when none of its transition rows came up
    empty. Each pass is (uses, layers): a group of uses run together, and
    its layers as the pass gives them, trellis indexing uses. Keyed uses
    run in groups whose row lengths bound a layer's contributions to
    ``_SCATTER_CHUNK``; every other built use runs dense, a group of one.
    """
    peers, n = h.heard.shape[1], h.hashes.n
    gf = default_field(n)
    cands, probs, lengths = _transition_rows(
        h.hashes, h.heard, h.peer_hashes, h.peer_channels, h.prune_eps
    )
    shifts = gf.mul_elementwise(np.repeat(h.coeffs[:, 1:].ravel(), lengths.ravel()), cands)
    edges = np.append(0, np.cumsum(lengths))  # row (k, j) starts at edges[k * peers + j]
    starts = gf.mul_elementwise(h.coeffs[:, 0], h.own)
    built = lengths.all(axis=1)
    bounds = np.prod(lengths, axis=1, dtype=float)  # no layer holds more states
    keyed = built & (bounds * _KEYED_SHARE <= 1 << n)
    dense = np.flatnonzero(built ^ keyed)[:, None]  # built, not keyed: groups of one
    passes = []
    for group in [*(_groups(np.flatnonzero(keyed), bounds) if keyed.any() else []), *dense]:
        rows = group[:, None] * peers + np.arange(peers)
        run = _keyed_pass if keyed[group[0]] else _forward_pass
        passes.append((group, run(starts[group], shifts, probs, edges[rows], edges[rows + 1], n)))
    return lengths, built, keyed, passes


@dataclass
class RunDiagnostics:
    """What watched relay uses did besides p*, as counts that merge in any order.

    ``fallbacks``: the InferenceErrors quietly scored as p* = 0, "trellis"
    uses whose trellis raised it (every arm scores 0) and "scoring" arms
    whose scoring did. Over the trellises built, ``row_sizes`` counts
    transition rows by candidate count, ``supports`` trellises by
    final-layer positive support and ``forward`` trellises by the forward
    pass they ran, "dense" or "keyed". ``_watch`` returns one per block,
    and runs and workers fold theirs together.
    """

    fallbacks: Counter = field(default_factory=lambda: Counter(trellis=0, scoring=0))
    row_sizes: Counter = field(default_factory=Counter)
    supports: Counter = field(default_factory=Counter)
    forward: Counter = field(default_factory=lambda: Counter(dense=0, keyed=0))

    @property
    def trials(self) -> int:
        """Uses watched: each built a trellis or fell back."""
        return self.supports.total() + self.fallbacks["trellis"]

    def add(self, other: RunDiagnostics) -> None:
        """Fold other's counts into this record."""
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            mine.update(theirs)

    def summary(self) -> dict:
        """The JSON form: counts, the mean and maximum row size and support, and the paths."""

        def mean_max(counts: Counter) -> dict:
            total = counts.total()  # sums below 2^53: the mean is one rounding
            mean = sum(value * count for value, count in counts.items()) / total if total else 0.0
            return {"mean": mean, "max": max(counts, default=0)}

        return {
            "trials": self.trials,
            "fallbacks": dict(self.fallbacks),
            "row_size": mean_max(self.row_sizes),
            "support": mean_max(self.supports),
            "forward": dict(self.forward),
        }


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
    h: _Holdings, final: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, list[str | None]]:
    """(p*, faults) of every arm of a block scored against its final layers.

    final is the uses' final layers as one (use, state, weight) layer. p*
    comes as a (uses, arms) array, and faults as ``_relay_normalizers``
    gives them. Arm a of use k sums w(s) * T_inv(s, relay_symbols[k, a])
    over its matched states s in ascending order, as one 1-D dot product;
    the terms of every arm of every use are computed together,
    elementwise. An arm with a fault, or no matched state, scores 0.
    """
    use, states, weights = final
    count, arms = h.relay_hashes.shape
    top, denom, faults = _relay_normalizers(
        h.hashes.tables, h.relay_symbols, h.relay_hashes, h.relay_channel, h.hashes.n
    )
    # matched (arm, state) pairs, arm-major: an arm's pairs run use by use, ascending
    arm, at = np.nonzero(np.take(h.relay_hashes.T, use, axis=1) == h.hashes.at(use, states))
    relay = use[at] * arms + arm  # the pair's relay, as normalizers index relays
    d = np.bitwise_count(states[at] ^ h.relay_symbols.ravel()[relay])
    terms = np.exp(_log_likelihood_table((h.relay_channel,), h.hashes.n)[0, d] - top[relay])
    mass = weights[at]
    opens = np.ones(len(relay), bool)  # where a relay's pairs start
    opens[1:] = relay[1:] != relay[:-1]
    first = np.flatnonzero(opens).tolist()
    ends = [*first[1:], len(relay)]
    pstars = np.zeros(count * arms)
    for lo, hi, r in zip(first, ends, relay[first].tolist()):
        if faults[r] is None:
            pstars[r] = min(1.0, float(mass[lo:hi] @ terms[lo:hi]) / denom[r])
    return pstars.reshape(count, arms), faults


# Bound on a block's largest temporaries, in elements (``_use_elements``):
# 8 single-arm uses with hash tables at n = 10, where blocks four times
# larger grew peak memory by about 2 MiB and saved little more time.
_BLOCK_ELEMENTS = 1 << 13


def _reach(h: _Holdings, score: bool) -> int | None:
    """The ball radius h's blocks find candidates at without hash tables; None: they make them.

    A block makes its uses' hash tables where it reads a whole collision
    class: to score the relay, or for rows that scan their classes.
    """
    if score or h.prune_eps is None:
        return None
    return _pruning(h.peer_channels, h.hashes.n, h.hashes.delta, h.prune_eps)[1]


def _use_elements(h: _Holdings, score: bool) -> int:
    """The elements a use of h holds in a block, as ``_BLOCK_ELEMENTS`` counts them.

    With hash tables, 2^n values in its table, and about 2^(n - delta) per
    arm in its relay normalizers. Without, its ball candidates and their
    hashes: 2 x peers x V(n, r), 66 at the criterion-08 point, 124 uses a
    block. Blocks of 248 uses ran no faster there, and grew peak memory by
    about 0.4 MiB.
    """
    n, reach = h.hashes.n, _reach(h, score)
    if reach is None:
        return max(1 << n, h.relay_hashes.shape[1] << (n - h.hashes.delta))
    return max(1, 2 * h.heard.shape[1] * ball_volume(n, reach))


def _watch(h: _Holdings, score: bool = True):
    """The watchdog of every use of h, in blocks: (values, faults, RunDiagnostics).

    values is each arm's p* as a (uses, arms) array when scored, else each
    use's matched count (its final states hashing to arm 0's announced
    value) in the smallest unsigned type that holds 2^n. faults is each
    arm's InferenceError message, else None, arm by arm of each use in
    turn; every arm of a use whose trellis was not built (a transition row
    came up empty) carries the empty-row fault. An arm with a fault scores
    p* = 0, and the record counts it. A block holds ``_BLOCK_ELEMENTS //
    _use_elements`` uses (``_Holdings.block``, ``_watch_block``).
    """
    step = max(1, _BLOCK_ELEMENTS // _use_elements(h, score))
    if score:
        values = np.empty(h.relay_hashes.shape)
    else:
        values = np.empty(len(h.own), np.min_scalar_type(1 << h.hashes.n))
    faults, record = [], RunDiagnostics()
    for lo in range(0, len(values), step):
        got, part_faults, part = _watch_block(h.block(lo, lo + step, score), score)
        values[lo:lo + step] = got
        faults += part_faults
        record.add(part)
    return values, faults, record


def _watch_block(h: _Holdings, score: bool):
    """``_watch`` of one block, whose hashes hold the tables it reads.

    One batched pass each makes the block's transition rows and (when
    scoring) relay normalizers; ``_trellises`` runs the forward passes, and
    the final layers of all uses are hashed, counted and scored together.
    Every float is the one the use gives alone. The trellis reads only what
    the watchdog holds, never the relay's transmission, so all arms share
    it.
    """
    count, arms = h.relay_hashes.shape
    lengths, built, keyed, passes = _trellises(h)
    finals = [(uses[t], s, w) for uses, layers in passes for t, s, w in layers[-1:]]
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    use, states, _ = final = [np.concatenate(parts) for parts in zip(empty, *finals)]
    if score:
        values, faults = _score_arms(h, final)
    else:
        matched = h.hashes.at(use, states) == h.relay_hashes[use, 0]
        values, faults = np.bincount(use[matched], minlength=count), [None] * (count * arms)
    unbuilt = np.flatnonzero(~built).tolist()
    for k in unbuilt:
        faults[k * arms:(k + 1) * arms] = [_EMPTY_ROW] * arms
    faulted = sum(f is not None for f in faults) - arms * len(unbuilt)  # arms of built uses
    return values, faults, RunDiagnostics(
        Counter(trellis=len(unbuilt), scoring=faulted),
        Counter(lengths[built].ravel().tolist()),
        Counter(np.bincount(use, minlength=count)[built].tolist()),
        Counter(dense=int(np.count_nonzero(built ^ keyed)), keyed=int(np.count_nonzero(keyed))),
    )


def build_and_run_trellis(obs: WatchdogObservation) -> Trellis:
    """Forward pass: accumulate state probabilities layer by layer (``_trellises``).

    Raises InferenceError when a transition row comes up empty.
    """
    _, built, _, passes = _trellises(_holdings(obs))
    if not built[0]:
        raise InferenceError(_EMPTY_ROW)
    (_, layers), = passes
    return Trellis(layers, 1 << obs.hash_spec.n)


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
    pstars, faults = _score_arms(_holdings(obs), trellis._layers[-1])
    if faults[0] is not None:
        raise InferenceError(faults[0])
    return float(pstars[0, 0])


def matched_codewords(trellis: Trellis, relay_hash: int, spec: HashSpec) -> list[int]:
    """Final-layer states with positive weight hashing to the relay's value."""
    _, states, _ = trellis._layers[-1]
    return states[_table(spec)[states] == relay_hash].tolist()


def decide(p_star: float, t: float) -> Verdict:
    """Threshold rule: flag the relay as malicious iff p* <= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return Verdict.MALICIOUS if p_star <= t else Verdict.WELL_BEHAVING
