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
the previous layer's states alone and adds the contributions in the order
a per-candidate dense pass would: ``np.add.at`` into a 2^n-entry vector,
or ``np.bincount`` over a keyed layer's distinct states, each applying
them one at a time in input order. So every layer is bit-for-bit what
that pass gives. It runs keyed, trellises of a block together, when the
rows bound its paths to 2^n / 8 (``_keyed_pass``), else dense, one
trellis at a time (``_forward_pass``). One rule cuts a last layer
(``_trellises``): where an announced value is read and delta > 0, a large
dense last layer is built over the collision classes p* reads
(``_class_keys``), and so is a summed keyed one when every use reads one
announced value, a count or one scored arm: then 2^n paths run keyed.

The block path is ``_watch`` over ``_Holdings``, the array form of what
the watchdogs of any number of relay uses hold. It cuts them into blocks
sized by the candidates a use holds, then makes a block's transition rows
and relay normalizers in one batched pass each, reading collision classes
as cosets (``hashing._classes``) or ball candidates, and no table of a
hash over all 2^n symbols. It runs the forward passes one at a time,
keeping only last layers, and hashes and scores those of many uses
together, up to a block's worth of states at a time. The Monte Carlo
harness hands it whole pieces of drawn trials, and it hands back their
values and one RunDiagnostics. A block owns its values: it makes its relay
normalizers once, before its passes run, takes each pass's cut flags with
its layers, and writes each p* once. On this path an InferenceError's cause is
a small fault code (``_FAULTS`` holds the messages): a faulted arm
scores p* = 0 and is counted, never listed. The one-observation calls
are thin: ``build_and_run_trellis`` runs a one-use block that reads the
relay's announced value, so its last layer may hold only that value's
class, and keeps that final layer with the block's arrays (``Trellis``).
``consistency_probability`` scores an observation of the same hash and
announced value on it (``_score_arms``), and any other on the whole last
layer; the whole pass runs once, when first read. They raise the message
of their use's fault. Every use gets exactly the floats it would get
alone.
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
from .hashing import HashSpec, _class_keys, _classes, _Hashes, _key_of, _spec_hashes, hash_eval


# Contributions added per chunk of a dense layer, and per group of a keyed pass;
# bounds each temporary at about 64 KiB without changing any result.
_SCATTER_CHUNK = 1 << 13


# The InferenceError messages, indexed by fault code (0: no fault): a transition
# row with no candidate left, and two relays that cannot be scored.
_FAULTS = (None, "no candidate consistent with hash", "relay hash matches no symbol",
           "observation impossible under a noiseless relay channel")
_EMPTY_ROW, _NO_CLASS, _IMPOSSIBLE = 1, 2, 3


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
        if any(not 0 < c < order for c in self.coeffs):
            raise ValueError(f"coeffs {self.coeffs} must be elements of GF(2^n) in [1, {order})")
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


def _segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, lengths: np.ndarray, empty: float
) -> np.ndarray:
    """``ufunc.reduce`` of each run of ``lengths`` consecutive values; ``empty`` for an empty run.

    Runs that all share one length, and the runs of each length from 8 on,
    are reduced as the rows of a 2-D array along axis 1, which takes each
    run in the order a 1-D reduce of it does (``np.add.reduceat`` does not,
    from runs of 3 values up). Every shorter run goes into one unbuffered
    ``ufunc.at`` call from ``empty`` (-inf for max, 0.0 for add): it applies
    the values one at a time in order, as numpy's reduce takes fewer than 8,
    and its first step gives back the first value, unless a sum's is -0.0.
    """
    sizes = set(lengths.tolist())
    if len(sizes) == 1 and 0 not in sizes:
        return ufunc.reduce(values.reshape(len(lengths), -1), axis=1)
    out = np.full(len(lengths), empty)
    run = np.repeat(np.arange(len(lengths)), lengths)  # each value's run
    short = lengths[run] < 8  # from 8 values on, numpy's pairwise sum regroups a reduce
    ufunc.at(out, run[short], values[short])
    for length in sizes.difference(range(8)):  # the runs of this length, one a row
        rows = values[lengths[run] == length].reshape(-1, length)
        out[lengths == length] = ufunc.reduce(rows, axis=1)
    return out


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
    2^(n - delta); else (None) in the whole classes (``_classes``).
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
    where ``_pruning`` says so; other rows enumerate their whole collision
    classes (``_classes``). The distance filter then leaves the same
    candidates in the same order either way.
    """
    channels, n, delta = tuple(channels), hashes.n, hashes.delta
    radius, reach = (None, None) if prune_eps is None else _pruning(channels, n, delta, prune_eps)
    if reach is None:
        items, cands = _classes(hashes, targets)
    else:
        items, cands = _ball_members(hashes, observed, targets, reach)
    peer = items % targets.shape[1]
    d = np.bitwise_count(observed.ravel()[items] ^ cands)
    if radius is not None:
        near = d <= radius[peer]
        items, cands, d, peer = items[near], cands[near], d[near], peer[near]
    logw = _log_likelihood_table(channels, n)[peer, d]
    if (logw == -np.inf).any():  # a noiseless channel's likelihood is 0 off its symbol
        finite = logw > -np.inf
        items, cands, logw = items[finite], cands[finite], logw[finite]
    lengths = np.bincount(items, minlength=targets.size)
    w = np.exp(logw - _segment_reduce(np.maximum, logw, lengths, -np.inf)[items])
    w /= _segment_reduce(np.add, w, lengths, 0.0)[items]
    if not w.all():  # a likelihood far below its row's largest rounds to 0
        keep = w > 0.0
        items, cands, w = items[keep], cands[keep], w[keep]
        lengths = np.bincount(items, minlength=targets.size)
    return cands, w, lengths.reshape(targets.shape)


def _check_overheard(
    spec: HashSpec, hash_name: str, hash_value: int, observed: int | None = None
) -> None:
    """Raise a ValueError naming the argument unless each given value fits the spec's widths."""
    if observed is not None and not 0 <= observed < (1 << spec.n):
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
    _check_overheard(spec, "target_hash", target_hash, observed)
    cands, probs, lengths = _transition_rows(
        _spec_hashes(spec), np.array([[observed]]), np.array([[target_hash]]), [ch], prune_eps
    )
    if lengths[0, 0] == 0:
        raise InferenceError(_FAULTS[_EMPTY_ROW])
    return TransitionRow(cands, probs)


class Trellis:
    """Layered state graph of candidate partial linear combinations.

    Layer i holds the weights of all reachable values of
    sum_{j<=i} a_j x_j; layer 1 is the single state a_1 x_1 with weight 1.
    Built by ``build_and_run_trellis``, it holds its observation, that
    observation as a block of one use, and the final layer that pass gave,
    which may hold only the announced class. The whole pass (``_trellises``)
    runs once, when first needed: by ``layers``, ``final_weights``,
    ``matched_codewords``, or ``consistency_probability`` of another
    announced value. A dense vector is built only when asked for.
    """

    def __init__(self, obs: WatchdogObservation, h: _Holdings, final):
        self._obs, self._holdings, self._final = obs, h, final

    @functools.cached_property
    def _layers(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every layer of the whole pass, none cut."""
        (_, layers, _), = _trellises(self._holdings)[3]
        return layers

    @property
    def final_weights(self) -> np.ndarray:
        """Dense weight vector of the last layer, indexed by state."""
        _, states, weights = self._layers[-1]
        vec = np.zeros(1 << self._obs.hash_spec.n)
        vec[states] = weights
        return vec

    @property
    def layers(self) -> list[dict[int, float]]:
        """Sparse per-layer maps state -> weight, positive-weight states only."""
        return [dict(zip(states.tolist(), weights.tolist())) for _, states, weights in self._layers]


def _forward_pass(
    starts: np.ndarray, shifts: np.ndarray, probs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    n: int, cut: tuple[np.ndarray, np.ndarray, int] | None,
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], bool]:
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
    candidate-major and added into a zero vector by ``np.add.at``, which
    applies them one at a time in input order, so each state's sum is taken
    in candidate order, exactly as ``acc += t_x * w(. ^ shift_x)`` over the
    candidates would take it. The only terms skipped are t_x * 0.0, and
    adding +0.0 leaves a sum unchanged. Candidates go in chunks of about
    ``_SCATTER_CHUNK`` contributions, each added in place into the same
    vector, so chunking changes no addition. Layer 1 is written without a
    sum: its one source state has weight 1.0 and a row's shifts are
    distinct, so each of its states takes one term t_x * 1.0 = t_x, and
    0.0 + t_x is t_x.

    With cut = (lam, keys, mask) of the trellis (``_class_keys``), the last
    layer keeps only the classes in keys when it has over ``_SCATTER_CHUNK``
    terms (a smaller cut costs more than it saves). State s's class is
    ``_key_of``: the low bits (mask) of lam * s in GF(2^n), a GF(2)-linear
    key: shift_x ^ u is in class c when u is in class c ^ key(shift_x).
    Layer i-1 is laid out as a grid, row r its states of class r padded
    with weight 0.0; for each wanted class c, candidate x meets row
    c ^ key(shift_x). A kept state still takes one term per candidate, in
    candidate order (a pad adds +0.0): bit-identical. A cut's lam is nonzero
    (``_trellises``), so a class holds 2^(n - delta) of the 2^n states, and
    the grid at most 2^n entries. Returns the layers and whether the last
    was cut; a layer 1 never is.
    """
    size, start, cuts = 1 << n, int(starts[0]), False
    layers = [(np.zeros(1, np.int64), starts, np.ones(1))]
    for i, (lo_row, hi_row) in enumerate(zip(lo[0].tolist(), hi[0].tolist()), 1):
        row_shifts, row_probs = shifts[lo_row:hi_row], probs[lo_row:hi_row]
        _, support, mass = layers[-1]
        if i == 1:
            vec = np.zeros(size)
            vec[row_shifts ^ start] = row_probs
        else:
            cuts = (i == lo.shape[1] and cut is not None
                    and len(row_shifts) * len(support) > _SCATTER_CHUNK)
            if cuts:
                lam, (keys,), mask = cut
                keyed = _key_of(lam, support, n, mask) << n | support
                keyed.sort()
                cls, members = keyed >> n, keyed & (size - 1)
                col = np.arange(len(keyed)) - cls.searchsorted(cls)  # its place in its class
                grid_states = np.zeros((mask + 1, col.max() + 1), np.int64)
                grid_weights = np.zeros(grid_states.shape)
                grid_states[cls, col], grid_weights[cls, col] = members, vec[members]
                own = _key_of(lam, row_shifts, n, mask)
                classes = sorted(set(keys.tolist()))  # wanted
            else:  # the whole layer, one class: its support is the grid's one row
                grid_states, grid_weights, classes = support[None], mass[None], [0]
                own = np.zeros(len(row_shifts), np.int64)
            step, vec = max(1, _SCATTER_CHUNK // grid_states.shape[1]), np.zeros(size)
            for c in classes:
                for at in range(0, len(row_shifts), step):
                    rows = own[at:at + step] ^ c
                    targets = grid_states.take(rows, axis=0)
                    targets ^= row_shifts[at:at + step, None]
                    terms = grid_weights.take(rows, axis=0)
                    terms *= row_probs[at:at + step, None]
                    np.add.at(vec, targets.ravel(), terms.ravel())
        support = (vec > 0.0).nonzero()[0]
        layers.append((np.zeros(len(support), np.int64), support, vec[support]))
    return layers, cuts


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
    cut: tuple[np.ndarray, np.ndarray, int] | None,
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], bool]:
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
    adds about 0.2 MiB of resident set. With cut, (lam, keys, mask) of its
    trellises (``_class_keys``), the last layer's contributions to classes
    other than keys[:, 0] are dropped before ranking: a kept state keeps all
    its terms. Returns the layers and whether each trellis's last layer was
    cut: when a cut is given and there is a layer to cut, every trellis's
    whose lam is nonzero (lam = 0, a constant poly hash, has one class).
    """
    count, mask = len(starts), (1 << n) - 1
    layers = [(np.arange(count), starts, np.ones(count))]
    for i, (row_lo, row_hi) in enumerate(zip(lo.T, hi.T), 1):
        last = cut if i == lo.shape[1] else None
        keys, terms = _contributions(layers[-1], count, row_lo, row_hi, shifts, probs, n, last)
        distinct, ids = _ranks(keys)
        sums = np.bincount(ids, terms, minlength=len(distinct))
        live = sums > 0.0
        layers.append((distinct[live] >> n, distinct[live] & mask, sums[live]))
    return layers, cut is not None and lo.shape[1] > 0 and cut[0] != 0


def _contributions(
    layer: tuple[np.ndarray, np.ndarray, np.ndarray],
    count: int,
    row_lo: np.ndarray,
    row_hi: np.ndarray,
    shifts: np.ndarray,
    probs: np.ndarray,
    n: int,
    cut: tuple[np.ndarray, np.ndarray, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, terms) of one ``_keyed_pass`` layer's contributions, laid out as it lays them.

    With cut = (lam, classes, mask), ``_class_keys``' multipliers and keys,
    only contributions to each trellis's class classes[:, 0] are kept, in
    order. The class key (``_key_of``) is GF(2)-linear, key(shift ^ u) =
    key(shift) ^ key(u): shifts and live states are keyed, not contributions.

    A function of its own so that its index arrays are freed before the
    keys are sorted: a block's peak memory is a layer's temporaries.
    """
    trellis, states, weights = layer
    sizes = np.bincount(trellis, minlength=count)
    lengths = row_hi - row_lo
    owner = np.repeat(np.arange(count), lengths)  # every candidate, trellis-major
    reps = sizes[owner]  # a candidate meets every live state of its trellis
    cands = _ranges(row_lo, lengths)
    cand = np.repeat(cands, reps)
    src = _ranges((np.cumsum(sizes) - sizes)[owner], reps)
    keys = np.repeat(owner, reps)
    if cut is not None:  # u's class must be key(shift) ^ classes[owner, 0]
        lam, classes, mask = cut
        target = _key_of(lam[owner], shifts[cands], n, mask) ^ classes[owner, 0]
        keep = np.repeat(target, reps) == _key_of(lam[trellis], states, n, mask)[src]
        cand, src, keys = cand[keep], src[keep], keys[keep]
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

    hashes: _Hashes  # each use's hash
    own: np.ndarray  # the watchdog's own symbol
    coeffs: np.ndarray  # the nonzero coding coefficients, the watchdog's first
    heard: np.ndarray  # the peers' symbols as the watchdog overheard them
    peer_hashes: np.ndarray
    relay_symbols: np.ndarray  # each arm's relay payload as overheard
    relay_hashes: np.ndarray  # the hash each arm's relay announces
    peer_channels: tuple[Bsc, ...]
    relay_channel: Bsc
    prune_eps: float | None

    def block(self, lo: int, hi: int) -> _Holdings:
        """Uses lo..hi-1."""
        # from a list: a tuple made from a generator is resized, and every such
        # tuple freed would stay behind on CPython's tuple free list
        part = self._make([a[lo:hi] if isinstance(a, np.ndarray) else a for a in self])
        return part._replace(hashes=self.hashes._replace(coeffs=self.hashes.coeffs[lo:hi]))


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


# A trellis whose row lengths bound its paths, so every layer, to 2^n / _KEYED_SHARE
# runs keyed, with others of its block (``_keyed_pass``); the rest run dense, one at
# a time (``_forward_pass``). Both give the same floats, so the rule picks speed only:
# the keyed pass's sort costs more per contribution than a dense ``np.add.at``, and
# the dense pass pays 2^n per layer and a Python round trip per layer and trellis.
# A keyed pass whose last layer is cut to one class wins up to 2^n paths, 8 times
# as many (``_trellises``); full 256-candidate rows (65,536 paths) stay dense.
_KEYED_SHARE = 8


def _groups(uses: np.ndarray, bounds: np.ndarray, limit: int) -> list[np.ndarray]:
    """uses cut, in order, into groups whose bounds sum to at most limit each.

    A use whose bound alone is larger makes a group of its own.
    """
    ends = bounds[uses].cumsum()  # exact: integer sums below 2^53
    groups, lo = [], 0
    while lo < len(uses):
        hi = max(lo + 1, ends.searchsorted(ends[lo] - bounds[uses[lo]] + limit, "right"))
        groups.append(uses[lo:hi])
        lo = hi
    return groups


def _trellises(h: _Holdings, announced: np.ndarray | None = None):
    """Every use's trellis: (row lengths, built, keyed, passes).

    A use's trellis is built when none of its transition rows came up
    empty. passes runs each pass when it is reached, and yields it as
    (uses, layers, cut): a group of uses run together, its layers as the
    pass gives them, trellis indexing uses, and its cut flags. So a caller
    that keeps only last layers holds one pass's layers at a time. Keyed uses
    run in groups whose row lengths bound a layer's contributions to
    ``_SCATTER_CHUNK``; every other built use runs dense, a group of one.
    One cut rule: with announced given and delta > 0, every pass of a use
    whose hash has more than one class (lam != 0) gets its uses' class keys
    (``_class_keys``), and its last layer may keep only the classes of the
    values announced[k]: dense, when large; keyed, when it
    sums two or more peers and every use reads one value (then it runs keyed
    up to 2^n paths). Several arms' classes cover most of a layer, and a
    keyed cut there, or of a layer 1, cost more than it saved. A pass's cut
    flags its uses whose last layer holds only states in announced classes
    (a pass cut it and their hash has more than one class): one flag for
    every use of a dense pass, one per use of a keyed one.
    """
    peers, n = h.heard.shape[1], h.hashes.n
    gf = default_field(n)
    cands, probs, lengths = _transition_rows(
        h.hashes, h.heard, h.peer_hashes, h.peer_channels, h.prune_eps
    )
    shifts = gf.mul_elementwise(np.repeat(h.coeffs[:, 1:].ravel(), lengths.ravel()), cands)
    ends = lengths.cumsum().reshape(lengths.shape)  # row (k, j): shifts[firsts[k, j]:ends[k, j]]
    firsts = ends - lengths
    starts = gf.mul_elementwise(h.coeffs[:, 0], h.own)
    built = lengths.all(axis=1)
    bounds = lengths.prod(axis=1, dtype=float)  # no layer holds more states
    cut = announced is not None and h.hashes.delta > 0
    one = cut and announced.shape[1] == 1 and peers > 1  # one value of a summed last layer
    keyed = built & (bounds * (_KEYED_SHARE / 8 if one else _KEYED_SHARE) <= 1 << n)
    lam, keys = _class_keys(h.hashes, announced) if cut else (None, None)
    groups = [*_groups(keyed.nonzero()[0], bounds, _SCATTER_CHUNK),
              *(built ^ keyed).nonzero()[0][:, None]]

    def passes():
        for group in groups:
            args = starts[group], shifts, probs, firsts[group], ends[group], n
            varies = cut and lam[group].any()  # lam = 0, a constant poly hash: one class, no cut
            last = (lam[group], keys[group], (1 << h.hashes.delta) - 1) if varies else None
            if keyed[group[0]]:
                layers, flags = _keyed_pass(*args, last if one else None)
            else:
                layers, flags = _forward_pass(*args, last)
            yield group, layers, flags
            del layers  # before the next pass runs

    return lengths, built, keyed, passes()


@dataclass
class RunDiagnostics:
    """What watched relay uses did besides p*, as counts that merge in any order.

    ``fallbacks``: the InferenceErrors quietly scored as p* = 0, "trellis"
    uses whose trellis raised it (every arm scores 0) and "scoring" arms
    whose scoring did. Over the trellises built, ``row_sizes`` counts
    transition rows by candidate count, ``announced_supports`` trellises by
    the final states p* reads (positive weight, hashing to a value an arm
    read announced) and ``forward`` trellises by pass, "dense" or "keyed".
    ``_watch_block`` returns one per block; ``_watch`` and runs fold them.
    """

    fallbacks: Counter = field(default_factory=lambda: Counter(trellis=0, scoring=0))
    row_sizes: Counter = field(default_factory=Counter)
    announced_supports: Counter = field(default_factory=Counter)
    forward: Counter = field(default_factory=lambda: Counter(dense=0, keyed=0))

    @property
    def trials(self) -> int:
        """Uses watched: each built a trellis or fell back."""
        return self.announced_supports.total() + self.fallbacks["trellis"]

    def add(self, other: RunDiagnostics) -> None:
        """Fold other's counts into this record."""
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            mine.update(theirs)

    def summary(self) -> dict:
        """The JSON form: counts, the mean and maximum row size and announced support, the paths."""

        def mean_max(counts: Counter) -> dict:
            total = counts.total()  # sums below 2^53: the mean is one rounding
            mean = sum(value * count for value, count in counts.items()) / total if total else 0.0
            return {"mean": mean, "max": max(counts, default=0)}

        return {
            "trials": self.trials,
            "fallbacks": dict(self.fallbacks),
            "row_size": mean_max(self.row_sizes),
            "announced_support": mean_max(self.announced_supports),
            "forward": dict(self.forward),
        }


def _relay_normalizers(
    hashes: _Hashes, symbols: np.ndarray, announced: np.ndarray, ch: Bsc
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled normalizers of a batch of relays over their announced collision classes.

    Relay (k, a) was overheard over ch as symbols[k, a] and announces
    announced[k, a] under use k's hash. Returns (top, denom, fault),
    one entry per relay in ``announced.ravel()`` order: top is the max log
    likelihood over the class and denom = sum exp(logw - top), whose scale
    cancels in every ratio built from them; fault is the ``_FAULTS`` code of
    a relay that cannot be scored, else 0 (its top is then 0 and its denom
    meaningless). Each value is the one the relay would get alone.
    """
    items, cls = _classes(hashes, announced)
    d = np.bitwise_count(symbols.ravel()[items] ^ cls)
    logw = _log_likelihood_table((ch,), hashes.n)[0, d]
    lengths = np.bincount(items, minlength=announced.size)
    top = _segment_reduce(np.maximum, logw, lengths, -np.inf)
    possible = top > -np.inf
    top[~possible] = 0.0
    denom = _segment_reduce(np.add, np.exp(logw - top[items]), lengths, 0.0)
    fault = np.where(possible, 0, np.where(lengths > 0, _IMPOSSIBLE, _NO_CLASS))
    return top, denom, fault


def _score_arms(
    h: _Holdings, norms: tuple[np.ndarray, np.ndarray, np.ndarray],
    final: tuple[np.ndarray, np.ndarray, np.ndarray], match: np.ndarray, pstars: np.ndarray,
) -> None:
    """Write the p* of every fault-free arm of h matched in final into pstars.

    norms is ``_relay_normalizers`` of h's arms, and pstars has one entry
    per arm, in its order. final is final layers of uses of h as one (use,
    state, weight) layer, and match[a, i] whether its state i hashes, under
    its use's hash, to the value arm a of that use announced. Arm a of use
    k sums w(s) * T_inv(s, relay_symbols[k, a]) over its matched states s
    in ascending order, as one 1-D dot product; the terms of every arm of
    every use are computed together, elementwise. No dot product is taken
    for an arm with a fault, and an arm with a fault or no matched state
    is not written.
    """
    use, states, weights = final
    arms = h.relay_hashes.shape[1]
    top, denom, fault = norms
    # matched (arm, state) pairs, arm-major: an arm's pairs run use by use, ascending
    arm, at = np.nonzero(match)
    relay = use[at] * arms + arm  # the pair's relay, as normalizers index relays
    d = np.bitwise_count(states[at] ^ h.relay_symbols.ravel()[relay])
    terms = np.exp(_log_likelihood_table((h.relay_channel,), h.hashes.n)[0, d] - top[relay])
    mass = weights[at]
    opens = np.ones(len(relay), bool)  # where a relay's pairs start
    opens[1:] = relay[1:] != relay[:-1]
    first = opens.nonzero()[0]
    ends = np.concatenate((first[1:], [len(relay)]))
    scored = fault[relay[first]] == 0
    first, ends = first[scored], ends[scored]
    for lo, hi, r in zip(first.tolist(), ends.tolist(), relay[first].tolist()):
        pstars[r] = min(1.0, float(mass[lo:hi] @ terms[lo:hi]) / denom[r])


# Bound on the elements a block's uses hold together (``_use_elements``): the
# candidates of their transition rows and, scored, the members of their arms'
# announced classes. So each row and normalizer array of a block holds at most
# 8,192 elements, 64 KiB of float64, as ``_SCATTER_CHUNK`` bounds a forward-pass
# chunk; a use that holds more runs in a block of its own.
_BLOCK_ELEMENTS = 1 << 13


def _use_elements(h: _Holdings, score: bool, width: int | None = None) -> int:
    """The elements a use of h holds in a block, as ``_BLOCK_ELEMENTS`` counts them.

    Its transition rows' candidates: a collision class of 2^width symbols a
    peer (width n - delta unless given), or, where ``_pruning`` finds them in
    the balls, the ball candidates and their hashes, 2 x peers x V(n, r): 66
    at the criterion-08 point, 124 uses a block. Blocks of 248 uses ran no
    faster there, and grew peak memory by about 0.4 MiB. Scored, also each
    arm's class in its relay normalizers, 2^width symbols.
    """
    n, delta, peers = h.hashes.n, h.hashes.delta, h.heard.shape[1]
    width = n - delta if width is None else width
    reach = None if h.prune_eps is None else _pruning(h.peer_channels, n, delta, h.prune_eps)[1]
    rows = peers << width if reach is None else 2 * peers * ball_volume(n, reach)
    return max(1, rows, h.relay_hashes.shape[1] << width if score else 0)


def _watch(h: _Holdings, score: bool = True):
    """The watchdog of every use of h, in blocks: (values, RunDiagnostics).

    values is each arm's p* as a (uses, arms) array when scored, else each
    use's matched count (its final states hashing to arm 0's announced
    value) as a (uses, 1) float column, exact: a count is at most 2^16.
    An arm that raises InferenceError (every arm of a use whose trellis was
    not built, because a transition row came up empty, and an arm whose
    relay cannot be scored) scores p* = 0, and the record counts it as a
    fallback. Consecutive uses make a block while their ``_use_elements``
    sum to at most ``_BLOCK_ELEMENTS`` (``_groups``; ``_Holdings.block``,
    ``_watch_block``). A use whose poly hash is a constant (a_1 = 0, delta >
    0) counts its one class as all 2^n symbols.
    """
    count = len(h.own)
    elements = np.full(count, _use_elements(h, score))
    if h.hashes.family == "poly" and h.hashes.delta > 0:
        elements[h.hashes.coeffs[:, 1] == 0] = _use_elements(h, score, h.hashes.n)
    values = np.empty((count, h.relay_hashes.shape[1] if score else 1))
    record = RunDiagnostics()
    for uses in _groups(np.arange(count), elements, _BLOCK_ELEMENTS):
        lo, hi = uses[0], uses[-1] + 1
        values[lo:hi], part = _watch_block(h.block(lo, hi), score)
        record.add(part)
    return values, record


def _watch_block(h: _Holdings, score: bool):
    """``_watch`` of one block: (values, RunDiagnostics).

    The block owns its values. When scoring, one batched pass makes every
    arm's relay normalizers, and so its faults, before any forward pass
    runs; ``_trellises`` makes the transition rows and runs the passes,
    each handing over its cut flags with its layers. Only each use's last
    layer is kept, and the last layers of consecutive passes are read
    together (``_read_finals``), up to ``_BLOCK_ELEMENTS`` states or one
    pass's: a block holds one pass's layers and at most that many last
    layers, however many uses it has. Each use lies in one batch, so each
    p* is written once. Every float is the one the use gives alone. The
    trellis reads only what the watchdog holds, never the relay's payload,
    so all arms share it. Fallbacks count built flags and fault codes.
    """
    count = len(h.own)
    announced = h.relay_hashes if score else h.relay_hashes[:, :1]
    norms, pstars = None, np.zeros(announced.size)  # an unbuilt, faulted or unmatched arm: 0
    if score:
        norms = _relay_normalizers(h.hashes, h.relay_symbols, announced, h.relay_channel)
    lengths, built, keyed, passes = _trellises(h, announced)
    reads, cut = np.zeros(count, np.int64), np.zeros(count, bool)
    finals, held = [], 0
    for uses, layers, flags in passes:
        cut[uses] = flags
        t, s, w = layers[-1]
        del layers  # the others are freed before the next pass runs
        if held and held + len(s) > _BLOCK_ELEMENTS:
            _read_finals(h, announced, cut, finals, reads, norms, pstars)
            finals, held = [], 0
        finals.append((uses[t], s, w))
        held += len(s)
    _read_finals(h, announced, cut, finals, reads, norms, pstars)
    values = pstars.reshape(announced.shape) if score else reads[:, None]
    faults = norms[2].reshape(announced.shape)[built] if score else ()  # unbuilt: a trellis fault
    return values, RunDiagnostics(
        Counter(trellis=count - int(built.sum()), scoring=int(np.count_nonzero(faults))),
        Counter(lengths[built].ravel().tolist()),
        Counter(reads[built].tolist()),
        Counter(dense=int(np.count_nonzero(built ^ keyed)), keyed=int(np.count_nonzero(keyed))),
    )


def _read_finals(
    h: _Holdings, announced: np.ndarray, cut: np.ndarray, finals: list, reads: np.ndarray,
    norms: tuple | None, pstars: np.ndarray,
) -> None:
    """Add the reads of the final layers in finals to the block's reads; write their p*.

    finals lists (use, state, weight) layers. Their states are hashed at
    most once, and one (arm, state) match array compares each state with
    each arm's announced value (arm 0's when counting); the counts and p*
    are both read from it. A large dense last layer is cut to the announced
    classes, and a keyed one when each use reads one arm: then every state
    of a cut use matches, and only the other uses' states are hashed.
    reads counts each use's final states p* reads. Scoring (norms
    given), ``_score_arms`` writes the p* of the uses in finals into pstars.
    """
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    use, states, _ = final = [np.concatenate(parts) for parts in zip(empty, *finals)]
    if announced.shape[1] == 1:  # a cut use's final states all hash to its one value
        match = cut[use][None]  # (arm, state)
        rest = (~match[0]).nonzero()[0]
        if len(rest):
            match[0, rest] = announced[use[rest], 0] == h.hashes.at(use[rest], states[rest])
    else:
        match = np.take(announced.T, use, axis=1) == h.hashes.at(use, states)
    reads += np.bincount(use[match.any(axis=0)], minlength=len(h.own))
    if norms is not None:
        _score_arms(h, norms, final, match, pstars)


def build_and_run_trellis(obs: WatchdogObservation) -> Trellis:
    """Forward pass: accumulate state probabilities layer by layer (``_trellises``).

    The last layer is built over the class of the relay's announced value
    where ``_trellises`` cuts it; the trellis completes itself when a layer
    is read. Raises InferenceError when a transition row comes up empty.
    """
    h = _holdings(obs)
    _, built, _, passes = _trellises(h, h.relay_hashes)
    if not built[0]:
        raise InferenceError(_FAULTS[_EMPTY_ROW])
    (_, layers, _), = passes
    return Trellis(obs, h, layers[-1])


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
    _check_overheard(spec, "relay_hash", relay_hash, observed)
    top, denom, fault = _relay_normalizers(
        _spec_hashes(spec), np.array([[observed]]), np.array([[relay_hash]]), ch
    )
    if fault[0]:
        raise InferenceError(_FAULTS[fault[0]])
    if hash_eval(spec, candidate) != relay_hash:
        return 0.0
    return float(np.exp(log_likelihood(ch, observed, candidate, spec.n) - top[0]) / denom[0])


def consistency_probability(trellis: Trellis, obs: WatchdogObservation) -> float:
    """p*: total probability of the overheard relay transmission.

    Sums w(s, m) * T_inv(s, observed) over the final layer; this is the
    statistic whose distribution separates honest from misbehaving relays.
    An obs with the trellis's hash and announced value is scored on the
    final layer it was built with, which holds every state p* reads; any
    other obs on the whole final layer. A relay that cannot be scored
    raises before any layer is read.
    """
    built = trellis._obs
    h = trellis._holdings if obs == built else _holdings(obs)
    relay = obs.relay_overheard
    norms = _relay_normalizers(h.hashes, h.relay_symbols, h.relay_hashes, h.relay_channel)
    if norms[2][0]:
        raise InferenceError(_FAULTS[norms[2][0]])
    same = (obs.hash_spec, relay.hash_value) == (built.hash_spec, built.relay_overheard.hash_value)
    use, states, _ = final = trellis._final if same else trellis._layers[-1]
    match = h.hashes.at(use, states)[None] == relay.hash_value
    pstar = np.zeros(1)
    _score_arms(h, norms, final, match, pstar)
    return float(pstar[0])


def matched_codewords(trellis: Trellis, relay_hash: int, spec: HashSpec) -> list[int]:
    """Final-layer states with positive weight hashing to the relay's value (the whole layer)."""
    _check_overheard(spec, "relay_hash", relay_hash)
    use, states, _ = trellis._layers[-1]
    return states[_spec_hashes(spec).at(use, states) == relay_hash].tolist()


def decide(p_star: float, t: float) -> Verdict:
    """Threshold rule: flag the relay as malicious iff p* <= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return Verdict.MALICIOUS if p_star <= t else Verdict.WELL_BEHAVING
