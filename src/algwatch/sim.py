"""Monte Carlo harness for the two-hop watchdog experiments.

A trial draws random source symbols and nonzero coefficients, runs the
relay (honest, or injecting bit errors at p_adv with a consistently
recomputed hash), and overhears everything through BSCs. This module only
draws, seeds and runs trials (``_samples``); ``inference`` computes every p*.

Randomness is split into named per-trial sub-streams (hash, symbols,
channels, adversary): numpy's ``default_rng(SeedSequence((seed, trial,
tag)))`` streams, bit for bit. A run derives the seeding words of its
trials' streams in one vectorized pass (``_seed_words``), takes each
stream's raw PCG64 words in one call, and turns them into values through
``Generator``'s own transforms applied to whole arrays (``_draw``); only a
stream that rejects a word is drawn by ``Generator.integers`` itself.
Honest and adversarial runs of the same trial therefore share the exact
same symbols and channel noise, which makes the null adversary (p_adv = 0)
produce bit-identical p* values and gives every sweep common random
numbers.

All arms of a trial (the honest relay and the adversarial relay at each
p_adv) share one draw, and so one trellis. A run is drawn in slices, and
``inference._watch`` scores each slice in blocks it sizes itself; every
float is the one the trial gives when run alone, so results do not depend
on slice or block boundaries.

Also provides the brute-force enumeration oracle for p*, empirical
threshold calibration, and the matched-codeword counting experiment.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import Bsc, _flip_masks, ball_radius, hamming
from .gfield import MAX_WIDTH, default_field
from .hashing import HashSpec, _draws, _Hashes, collision_list, hash_eval
from .inference import (
    InferenceError, Overheard, RunDiagnostics, WatchdogObservation, _Holdings, _watch,
)

_TAGS = range(4)
_HASH, _SYMBOLS, _CHANNELS, _ADVERSARY = _TAGS

# Trial indices are one 32-bit SeedSequence entropy word each.
_MAX_TRIALS = 1 << 32


@dataclass(frozen=True)
class TwoHopConfig:
    """One operating point: m sources feed a relay, source 1 is the watchdog.

    p_s is the source-to-watchdog overhearing rate (all peers equal), and
    p_relay the relay-to-watchdog rate. pruning_eps, when set, drops
    transition-row candidates outside the 1-eps channel ball; it is echoed
    into every emitted result so runs stay comparable.
    """

    m: int = 3
    n: int = 10
    delta: int = 2
    p_s: float = 0.1
    p_relay: float = 0.1
    p_adv: float = 0.1
    iterations: int = 1000
    seed: int = 0
    pruning_eps: float | None = None
    hash_family: str = "affine"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 1 <= self.n <= MAX_WIDTH:
            raise ValueError(f"n must be in [1, {MAX_WIDTH}], got {self.n}")
        if self.hash_family not in ("affine", "poly"):
            raise ValueError("hash_family must be 'affine' or 'poly'")
        if not 0 <= self.delta <= self.n:
            raise ValueError("delta must be in [0, n]")
        for name in ("p_s", "p_relay"):  # overhearing rates, as a Bsc takes them
            if not 0.0 <= getattr(self, name) <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {getattr(self, name)}")
        if not 0.0 <= self.p_adv <= 1.0:
            raise ValueError("p_adv must be in [0, 1]")
        if self.pruning_eps is not None and not 0.0 < self.pruning_eps < 1.0:
            raise ValueError(f"pruning_eps must be in (0, 1), got {self.pruning_eps}")
        if not 1 <= self.iterations <= _MAX_TRIALS:
            raise ValueError(f"iterations must be in [1, 2^32], got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregate p* statistics for one operating point, with its samples.

    Variances are population variances of the per-trial p* samples, which
    is what the experiment error bars report. The samples are in trial
    order.
    """

    mean_p_relay: float
    var_relay: float
    mean_p_adv: float
    var_adv: float
    relay_samples: np.ndarray
    adv_samples: np.ndarray

    @property
    def separation(self) -> float:
        return self.mean_p_relay - self.mean_p_adv


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_OTHERS = [[d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE)]


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 1) uint32 constants the first count hashmix steps xor in and multiply by.

    Each step multiplies the running constant by mult between the two uses,
    so step j xors with c_j and multiplies by c_(j+1).
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    table = np.array(consts, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


# Every operand below is an array: numpy wraps uint32 array arithmetic
# silently but warns on overflowing scalar arithmetic.
def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, tags, 4) uint64: the PCG64 seeding words of every trial's streams.

    Entry [k, tag] equals ``np.random.SeedSequence((seed, lo + k,
    tag)).generate_state(4, np.uint64)``. It is numpy's SeedSequence run
    over all (trial, tag) pairs at once: the entropy words (the seed's
    little-endian 32-bit words, then the trial, then the tag) are
    hash-mixed into a 4-word pool, the pool is cross-mixed, and 8 words are
    hashed out of it.
    """
    if lo < 0 or hi > _MAX_TRIALS:
        raise ValueError(f"trial must be in [0, 2^32), got {lo if lo < 0 else hi - 1}")
    seed = int(seed)
    width = max(1, -(-seed.bit_length() // 32))
    seed_words = np.frombuffer(seed.to_bytes(4 * width, "little"), dtype="<u4")
    count, tags = hi - lo, len(_TAGS)
    # pool slots beyond the entropy hash in a 0 word, as numpy's do
    entropy = np.zeros((max(width + 2, _POOL_SIZE), count * tags), dtype=np.uint32)
    entropy[:width] = seed_words[:, None]
    entropy[width] = np.repeat(np.arange(lo, hi, dtype=np.uint32), tags)
    entropy[width + 1] = np.tile(np.arange(tags, dtype=np.uint32), count)
    extra = len(entropy) - _POOL_SIZE
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = _hashmix(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    step = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], xor[step:step + len(dst)], mul[step:step + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        step += len(dst)
    for src in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(src, xor[step:step + _POOL_SIZE], mul[step:step + _POOL_SIZE]))
        step += _POOL_SIZE
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate((pool, pool)), xor, mul)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return words.reshape(count, tags, 4)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence whose state is already known: one row of ``_seed_words``.

    Made on first use, because subclassing ISeedSequence imports
    numpy.random, which ``import algwatch`` otherwise leaves to the first
    draw (5.6 MiB of resident set at import, and about 0.5 MiB more peak
    in a fresh process's first two-hop run).
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for the 4 uint64 words it is seeded with

    return SeedWords


def _stream(words: np.ndarray) -> np.random.PCG64:
    """The PCG64 that ``default_rng(SeedSequence(...))`` wraps, from its seeding words."""
    return np.random.PCG64(_seed_words_type()(words))


def _raw(words: np.ndarray, count: int) -> np.ndarray:
    """(len(words), count) little-endian uint64: the first raw outputs of each row's stream.

    Each stream lives only for its one ``random_raw`` call, so a run holds
    its words, not its generators.
    """
    raw = np.array([_stream(row).random_raw(count) for row in words], dtype="<u8")
    return raw.reshape(len(words), count)


def _uniforms(words: np.ndarray, count: int) -> np.ndarray:
    """Each row's stream's first count ``Generator.random()`` doubles: top 53 bits, scaled."""
    return (_raw(words, count) >> 11) * 2.0**-53


@functools.cache
def _lemire_columns(highs: tuple[int, ...]) -> tuple:
    """How ``_integers`` draws highs: (raw words taken, each draw's half, range, threshold).

    A draw with a range of 1 takes no word; it reads half 0, which gives 0
    and is never rejected. Nor is a draw with a power-of-two range, whose
    threshold is 0: None stands for thresholds that are all 0.
    """
    takes = np.array(highs) > 1
    taken = np.cumsum(takes)
    columns = slice(len(highs)) if takes.all() else np.where(takes, taken - 1, 0)
    ranges = np.array(highs, dtype=np.uint64)
    thresholds = np.array([(2**32 - high) % high for high in highs], dtype=np.uint64)
    return -(-int(taken[-1]) // 2), columns, ranges, thresholds if thresholds.any() else None


_LOW_HALF, _HALF_BITS = np.uint64(0xFFFFFFFF), np.uint64(32)


def _integers(words: np.ndarray, highs) -> np.ndarray:
    """(len(words), len(highs)) int64: each row's stream's ``Generator.integers(0, high)`` in turn.

    numpy draws these by Lemire's method from 32-bit words, the low half of
    each raw word first: word u gives u * high >> 32, unless the low 32 bits
    of u * high fall below (2^32 - high) % high and the next word is tried
    instead. A range of 1 takes no word, and ranges that take none build no
    stream. Every stream's words are taken and transformed at once; a stream
    that rejects a word is drawn again by ``Generator.integers`` itself.
    """
    count, columns, ranges, thresholds = _lemire_columns(tuple(highs))
    if not count:
        return np.zeros((len(words), len(highs)), dtype=np.int64)
    products = _raw(words, count).view("<u4")[:, columns] * ranges
    values = (products >> _HALF_BITS).view(np.int64)  # every value is below 2^32
    if thresholds is None:
        return values
    for k in np.flatnonzero(((products & _LOW_HALF) < thresholds).any(axis=1)).tolist():
        values[k] = np.random.Generator(_stream(words[k])).integers(0, np.array(highs))
    return values


# Trials a run's piece draws at once, about 0.8 KiB each; the full-size
# threshold calibration (4,000 trials) and every default run draw once.
_DRAW_TRIALS = 1 << 12


class _Trials(NamedTuple):
    """Drawn trials, one row each; column a of the relay arrays is arm a."""

    hashes: np.ndarray  # the hash's coefficients, as in HashSpec.coefficients
    symbols: np.ndarray  # the sources' symbols, the watchdog's first
    coeffs: np.ndarray  # the nonzero coding coefficients, in source order
    noise: np.ndarray  # bit flips of each peer's channel, then of the relay's
    payloads: np.ndarray  # each arm's relay payload


def _draw(cfg: TwoHopConfig, p_advs, words: np.ndarray) -> _Trials:
    """The trials whose ``_seed_words`` rows are given, each from its own streams.

    Every stream is numpy's PCG64 seeded with its words, and every value is
    what ``default_rng(SeedSequence((seed, trial, tag)))`` would draw, taken
    from the stream's raw words through ``Generator``'s own transforms
    (``_integers``, ``_uniforms``, ``hashing._draws``) for all trials at
    once. Arm 0 is the
    honest relay and arm 1 + k the one at p_advs[k]. Arms differ only in the
    relay's payload: each adversarial arm flips the honest payload's bits
    where the trial's one set of adversary uniforms falls below its p_adv,
    and every arm is overheard through the same relay noise mask (bit flips
    do not depend on the payload). Arm 1 + k is therefore exactly what a
    trial drawn at p_advs[k] alone would give.
    """
    count, m, n = len(words), cfg.m, cfg.n
    order = 1 << n
    ranges, scale, shift = _draws(cfg.hash_family, n, cfg.delta)
    hashes = _integers(words[:, _HASH], ranges) * scale + shift
    drawn = _integers(words[:, _SYMBOLS], [order] * m + [order - 1] * m)
    symbols, coeffs = drawn[:, :m], drawn[:, m:] + 1
    uniforms = _uniforms(words[:, _CHANNELS], m * n).reshape(count, m, n)
    noise = _flip_masks(uniforms, np.array([[cfg.p_s]] * (m - 1) + [[cfg.p_relay]]))
    adversary = _uniforms(words[:, _ADVERSARY], n) if p_advs else np.empty((count, 0))
    honest = np.bitwise_xor.reduce(default_field(n).mul_elementwise(coeffs, symbols), axis=1)
    # the honest arm flips where a uniform falls below 0: nowhere
    flips = _flip_masks(adversary[:, None, :], np.array([0.0, *p_advs])[:, None])
    return _Trials(hashes, symbols, coeffs, noise, honest[:, None] ^ flips)


def _held(cfg: TwoHopConfig, trials: _Trials) -> _Holdings:
    """What the watchdogs of trials hold; ``_watch`` makes the hash tables it reads.

    Headers arrive error-free, so peer hashes, the relay's recomputed own
    hash and the coefficients are exact.
    """
    hashes = _Hashes(cfg.hash_family, cfg.n, cfg.delta, trials.hashes, None)
    symbols, noise, payloads = trials.symbols, trials.noise, trials.payloads
    sent = hashes.at(np.arange(len(symbols)), np.concatenate((symbols[:, 1:], payloads), axis=1))
    return _Holdings(
        hashes=hashes,
        own=symbols[:, 0],
        coeffs=trials.coeffs,
        heard=symbols[:, 1:] ^ noise[:, :-1],
        peer_hashes=sent[:, :cfg.m - 1],
        relay_symbols=payloads ^ noise[:, -1:],
        relay_hashes=sent[:, cfg.m - 1:],
        peer_channels=(Bsc(cfg.p_s),) * (cfg.m - 1),
        relay_channel=Bsc(cfg.p_relay),
        prune_eps=cfg.pruning_eps,
    )


def _run(cfg: TwoHopConfig, p_advs, lo: int, hi: int, score: bool):
    """Trials lo..hi-1, one piece of a ``_samples`` run: (values in trial order, RunDiagnostics).

    The values are every arm's p* when scoring, else the matched counts.
    The piece is drawn at once and watched in one ``_watch`` call.
    """
    values, _, record = _watch(_held(cfg, _draw(cfg, p_advs, _seed_words(cfg.seed, lo, hi))), score)
    return values, record


# The RunDiagnostics of the collect_diagnostics blocks open in this context.
_diagnostics: contextvars.ContextVar[tuple[RunDiagnostics, ...]] = contextvars.ContextVar(
    "_diagnostics", default=()
)


@contextlib.contextmanager
def collect_diagnostics():
    """Collect what each run of trials inside the ``with`` block did; yields a RunDiagnostics."""
    diagnostics = RunDiagnostics()
    token = _diagnostics.set(_diagnostics.get() + (diagnostics,))
    try:
        yield diagnostics
    finally:
        _diagnostics.reset(token)


def _samples(
    cfg: TwoHopConfig, p_advs, workers: int = 1, trials: range | None = None, score: bool = True
) -> np.ndarray:
    """The one runner of two-hop trials: ``_run``'s values for ``trials``, in trial order.

    trials defaults to all of cfg.iterations. The range is cut once: into
    one range per worker when pooled (more than one worker, and at least 4
    trials each), then into ``_DRAW_TRIALS`` pieces. Pieces run here or in
    the pool, each written into the run's one array as it arrives; the
    folded record goes to every open ``collect_diagnostics`` block.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    trials = range(cfg.iterations) if trials is None else trials
    pooled = workers > 1 and len(trials) >= 4 * workers
    bounds = np.linspace(trials.start, trials.stop, workers + 1 if pooled else 2, dtype=int)
    los = [at for a, b in itertools.pairwise(bounds.tolist()) for at in range(a, b, _DRAW_TRIALS)]
    his = [*los[1:], trials.stop]  # the pieces tile the range
    values, record = None, RunDiagnostics()
    with ProcessPoolExecutor(workers) if pooled else contextlib.nullcontext() as pool:
        pieces = (map if pool is None else pool.map)(
            _run, itertools.repeat(cfg), itertools.repeat(p_advs), los, his, itertools.repeat(score)
        )
        for lo, hi, (got, part) in zip(los, his, pieces):
            if values is None:  # of the pieces' type and width
                values = np.empty((len(trials), *got.shape[1:]), got.dtype)
            values[lo - trials.start:hi - trials.start] = got
            record.add(part)
    for diagnostics in _diagnostics.get():
        diagnostics.add(record)
    return values


def simulate_observation(
    cfg: TwoHopConfig, adversarial: bool, trial: int = 0
) -> WatchdogObservation:
    """Draw one full trial and return the watchdog's observation of it.

    The adversarial arm injects at cfg.p_adv; both arms share the trial's
    hash spec, symbols, coefficients and channel noise.
    """
    trials = _draw(cfg, [cfg.p_adv] if adversarial else [], _seed_words(cfg.seed, trial, trial + 1))
    d = _held(cfg, trials)
    return WatchdogObservation(
        own_symbol=int(d.own[0]),
        coeffs=tuple(d.coeffs[0].tolist()),
        overheard=tuple(
            map(Overheard, d.heard[0].tolist(), d.peer_hashes[0].tolist(), d.peer_channels)
        ),
        relay_overheard=Overheard(
            int(d.relay_symbols[0, -1]), int(d.relay_hashes[0, -1]), d.relay_channel
        ),
        hash_spec=HashSpec(cfg.hash_family, cfg.n, cfg.delta, tuple(trials.hashes[0].tolist())),
        prune_eps=d.prune_eps,
    )


def run_trial(cfg: TwoHopConfig, adversarial: bool, trial: int = 0) -> float:
    """p* for one trial; deterministic in (cfg.seed, trial, adversarial).

    With pruning enabled a candidate set can come up empty, meaning the
    overheard data is inconsistent with every remaining explanation; that
    is maximal suspicion and reported as p* = 0.
    """
    arms = [cfg.p_adv] if adversarial else []
    return float(_samples(cfg, arms, trials=range(trial, trial + 1))[0, -1])


def _stats(relay: np.ndarray, adv: np.ndarray) -> ExperimentStats:
    return ExperimentStats(
        mean_p_relay=float(relay.mean()),
        var_relay=float(relay.var()),
        mean_p_adv=float(adv.mean()),
        var_adv=float(adv.var()),
        relay_samples=relay,
        adv_samples=adv,
    )


def run_experiment(cfg: TwoHopConfig, workers: int = 1) -> ExperimentStats:
    """Paired honest/adversarial runs of cfg.iterations trials each.

    Deterministic for a fixed config regardless of worker count: trials are
    seeded individually and aggregated in index order.
    """
    relay, adv = np.ascontiguousarray(_samples(cfg, [cfg.p_adv], workers).T)
    return _stats(relay, adv)


SWEEP_AXES = ("p_adv", "delta", "p_s", "m")


def run_sweep(
    cfg: TwoHopConfig, axis: str, values, workers: int = 1
) -> list[tuple[float, ExperimentStats]]:
    """run_experiment at each value of one config axis, seed held fixed.

    A p_adv sweep runs as one experiment: each trial builds one trellis and
    scores its honest arm and every p_adv arm against it.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep values must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")
    points = [replace(cfg, **{axis: v}) for v in values]  # validates every value up front
    if axis == "p_adv":
        relay, *advs = np.ascontiguousarray(_samples(cfg, values, workers).T)
        return [(v, _stats(relay, adv)) for v, adv in zip(values, advs)]
    return [(v, run_experiment(p, workers)) for v, p in zip(values, points)]


def brute_force_consistency(obs: WatchdogObservation) -> float:
    """p* by exhaustive enumeration; the verification oracle for the trellis.

    Enumerates every hash-consistent tuple of peer symbols, weights it by
    its normalized product of channel likelihoods, and sums the inverse
    transition term at the implied linear combination. Plain float
    arithmetic throughout: no trellis, no shared state collapsing, no log
    domain. Enumeration is exponential in the peer count, hence the n <= 6
    guard.
    """
    n = obs.field.n
    if n > 6:
        raise ValueError("enumeration oracle is limited to n <= 6")
    spec, field = obs.hash_spec, obs.field

    def candidates(o: Overheard) -> tuple[list[int], list[float]]:
        cands = collision_list(spec, o.hash_value)
        if obs.prune_eps is not None:
            r = ball_radius(o.channel, n, obs.prune_eps)
            cands = [y for y in cands if hamming(o.symbol, y) <= r]
        liks = [
            o.channel.p ** hamming(o.symbol, y)
            * (1.0 - o.channel.p) ** (n - hamming(o.symbol, y))
            for y in cands
        ]
        total = sum(liks)
        if total == 0.0:
            raise InferenceError("no candidate consistent with hash")
        return cands, [w / total for w in liks]

    relay = obs.relay_overheard
    relay_cands = collision_list(spec, relay.hash_value)
    norm = sum(
        relay.channel.p ** hamming(relay.symbol, y)
        * (1.0 - relay.channel.p) ** (n - hamming(relay.symbol, y))
        for y in relay_cands
    )
    if norm == 0.0:
        raise InferenceError("observation impossible under a noiseless relay channel")

    @functools.cache
    def inv_term(s: int) -> float:
        if hash_eval(spec, s) != relay.hash_value:
            return 0.0
        d = hamming(relay.symbol, s)
        return relay.channel.p**d * (1.0 - relay.channel.p) ** (n - d) / norm

    per_peer = []
    for coeff, peer in zip(obs.coeffs[1:], obs.overheard):
        cands, probs = candidates(peer)
        per_peer.append([(field.mul(coeff, y), w) for y, w in zip(cands, probs)])

    start = field.mul(obs.coeffs[0], obs.own_symbol)
    total = 0.0
    for combo in itertools.product(*per_peer):
        s, w = start, 1.0
        for shifted, prob in combo:
            s ^= shifted
            w *= prob
        total += w * inv_term(s)
    return total


def calibrate_threshold(
    cfg: TwoHopConfig, target_gamma: float, window: int = 1, workers: int = 1
) -> float:
    """Empirical threshold for the decision rule from honest-only trials.

    Returns the target_gamma quantile of the honest decision statistic so
    that flagging at p* <= t accuses an honest relay with frequency about
    target_gamma. ``window`` calibrates against means of that many
    consecutive samples, matching rolling-mean verdicts; window=1 is the
    plain per-observation rule.
    """
    if not 0.0 < target_gamma < 1.0:
        raise ValueError("target_gamma must be in (0, 1)")
    if window < 1 or cfg.iterations < window:
        raise ValueError("window must be in [1, iterations]")
    samples = _samples(cfg, [], workers)[:, 0]
    if window > 1:
        groups = len(samples) // window
        samples = samples[: groups * window].reshape(groups, window).mean(axis=1)
    return float(np.quantile(samples, target_gamma))


def _matched_config(n, peer_count, delta, p, seed) -> TwoHopConfig:
    return TwoHopConfig(
        m=peer_count + 1, n=n, delta=delta, p_s=p, p_relay=p, p_adv=0.0,
        iterations=1, seed=seed, pruning_eps=0.5, hash_family="poly",
    )


def matched_count_trial(
    n: int,
    peer_count: int,
    delta: int,
    p: float,
    seed: int = 0,
    trial: int = 0,
) -> int:
    """Matched codewords one honest trial produces, median-ball pruned.

    The counting argument behind the expected-count formula restricts each
    candidate set to the Hamming ball of the channel's expected distance;
    pruning at eps = 0.5 (the median ball) realizes that construction. The
    formula also assumes idealized hash randomness (collision classes
    independent of Hamming geometry), which the field-polynomial family
    provides; the integer affine family's classes are low-bit aligned and
    inflate the count an order of magnitude. A trial whose pruned
    candidate sets come up empty counts zero matched states.
    """
    cfg = _matched_config(n, peer_count, delta, p, seed)
    return int(_samples(cfg, [], trials=range(trial, trial + 1), score=False)[0])


def mean_matched_count(
    n: int, peer_count: int, delta: int, p: float, trials: int, seed: int = 0
) -> float:
    """Empirical mean matched-codeword count over honest trials."""
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in [1, 2^32], got {trials}")
    cfg = _matched_config(n, peer_count, delta, p, seed)
    matched = _samples(cfg, [], trials=range(trials), score=False)
    return int(matched.sum(dtype=np.int64)) / trials  # exact sum, one rounding: np.mean's float
