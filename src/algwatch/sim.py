"""Monte Carlo harness for the two-hop watchdog experiments.

A trial draws random source symbols and nonzero coefficients, runs the
relay (honest, or injecting bit errors at p_adv with a consistently
recomputed hash), overhears everything through BSCs, and returns the
watchdog's consistency probability p*.

Randomness is split into named per-trial sub-streams (hash, symbols,
channels, adversary) derived from (seed, trial, tag). Honest and
adversarial runs of the same trial therefore share the exact same symbols
and channel noise, which makes the null adversary (p_adv = 0) produce
bit-identical p* values and gives every sweep common random numbers.

All arms of a trial (the honest relay and the adversarial relay at each
p_adv) share one draw and one trellis: the trellis is the watchdog's
inference from what it holds, and only the final score p* reads the
relay's transmission. A trial is drawn once, its trellis built once, and
every arm scored against it.

Also provides the brute-force enumeration oracle for p*, empirical
threshold calibration, and the matched-codeword counting experiment.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import Bsc, _flip_mask, ball_radius, hamming, transmit
from .gfield import default_field
from .hashing import _table, collision_list, hash_eval, sample_hash
from .inference import (
    InferenceError,
    Overheard,
    WatchdogObservation,
    build_and_run_trellis,
    consistency_probability,
    matched_codewords,
)

_HASH, _SYMBOLS, _CHANNELS, _ADVERSARY = range(4)


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
            raise ValueError("need at least one source")
        if self.hash_family not in ("affine", "poly"):
            raise ValueError("hash_family must be 'affine' or 'poly'")
        if not 0 <= self.delta <= self.n:
            raise ValueError("delta must be in [0, n]")
        if not 0.0 <= self.p_adv <= 1.0:
            raise ValueError("p_adv must be in [0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        Bsc(self.p_s), Bsc(self.p_relay)  # range checks


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


def _stream(seed: int, trial: int, tag: int):
    return np.random.default_rng(np.random.SeedSequence((seed, trial, tag)))


def _observations(cfg: TwoHopConfig, trial: int, p_advs) -> list[WatchdogObservation]:
    """The watchdog's observation of one trial's honest arm, then of each p_adv arm.

    The trial's draws are made once. Arms differ only in the relay's
    payload: each adversarial arm flips the honest payload's bits where the
    trial's one set of adversary uniforms falls below its p_adv, and every
    arm is overheard through the same relay noise mask (bit flips do not
    depend on the payload). Arm k is therefore exactly what a trial drawn at
    p_advs[k] alone would give. Headers arrive error-free, so peer hashes,
    the relay's recomputed own hash and the coefficients are exact; every
    hash is a lookup into the trial's hash table.
    """
    field = default_field(cfg.n)
    spec = sample_hash(_stream(cfg.seed, trial, _HASH), cfg.hash_family, cfg.n, cfg.delta)
    table = _table(spec)

    sym_rng = _stream(cfg.seed, trial, _SYMBOLS)
    symbols = [int(s) for s in sym_rng.integers(0, field.order, size=cfg.m)]
    coeffs = tuple(1 + int(c) for c in sym_rng.integers(0, field.order - 1, size=cfg.m))

    honest = field.lincomb(coeffs, symbols)
    payloads = [honest]
    if p_advs:
        draws = _stream(cfg.seed, trial, _ADVERSARY).random(cfg.n)
        payloads += [honest ^ _flip_mask(draws, p) for p in p_advs]

    ch_rng = _stream(cfg.seed, trial, _CHANNELS)
    ch_s, ch_r = Bsc(cfg.p_s), Bsc(cfg.p_relay)
    peers = tuple(
        Overheard(transmit(ch_s, x, cfg.n, ch_rng), int(table[x]), ch_s)
        for x in symbols[1:]
    )
    relay_noise = transmit(ch_r, 0, cfg.n, ch_rng)
    return [
        WatchdogObservation(
            own_symbol=symbols[0],
            coeffs=coeffs,
            overheard=peers,
            relay_overheard=Overheard(y ^ relay_noise, int(table[y]), ch_r),
            hash_spec=spec,
            prune_eps=cfg.pruning_eps,
        )
        for y in payloads
    ]


def _trial_pstars(cfg: TwoHopConfig, trial: int, p_advs) -> list[float]:
    """p* of one trial's honest arm, then of each p_adv arm, from one trellis.

    The trellis reads only what the watchdog holds (its own symbol, the
    overheard peers, the headers), never the relay's transmission, so all
    arms share it. An InferenceError while building it (pruning emptied a
    candidate set) is maximal suspicion for every arm, and one while
    scoring an arm for that arm only: p* = 0.
    """
    arms = _observations(cfg, trial, p_advs)
    try:
        trellis = build_and_run_trellis(arms[0])
    except InferenceError:
        return [0.0] * len(arms)
    pstars = []
    for obs in arms:
        try:
            pstars.append(consistency_probability(trellis, obs))
        except InferenceError:
            pstars.append(0.0)
    return pstars


def simulate_observation(
    cfg: TwoHopConfig, adversarial: bool, trial: int = 0
) -> WatchdogObservation:
    """Draw one full trial and return the watchdog's observation of it.

    The adversarial arm injects at cfg.p_adv; both arms share the trial's
    hash spec, symbols, coefficients and channel noise.
    """
    return _observations(cfg, trial, [cfg.p_adv] if adversarial else [])[-1]


def run_trial(cfg: TwoHopConfig, adversarial: bool, trial: int = 0) -> float:
    """p* for one trial; deterministic in (cfg.seed, trial, adversarial).

    With pruning enabled a candidate set can come up empty, meaning the
    overheard data is inconsistent with every remaining explanation; that
    is maximal suspicion and reported as p* = 0.
    """
    return _trial_pstars(cfg, trial, [cfg.p_adv] if adversarial else [])[-1]


def _trial_block(cfg: TwoHopConfig, p_advs, lo: int, hi: int) -> list[list[float]]:
    return [_trial_pstars(cfg, t, p_advs) for t in range(lo, hi)]


def _samples(cfg: TwoHopConfig, p_advs, workers: int) -> np.ndarray:
    """(iterations, 1 + len(p_advs)) p* array: the honest arm, then each p_adv arm."""
    if workers <= 1 or cfg.iterations < 4 * workers:
        return np.array(_trial_block(cfg, p_advs, 0, cfg.iterations))
    bounds = np.linspace(0, cfg.iterations, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _trial_block,
            itertools.repeat(cfg),
            itertools.repeat(p_advs),
            bounds[:-1],
            bounds[1:],
        )
        return np.concatenate([np.array(p) for p in parts])


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


def matched_count_trial(
    n: int,
    peer_count: int,
    delta: int,
    p: float,
    seed: int = 0,
    trial: int = 0,
    pruning_eps: float = 0.5,
) -> int:
    """Matched codewords one honest trial produces, median-ball pruned.

    The counting argument behind the expected-count formula restricts each
    candidate set to the Hamming ball of the channel's expected distance;
    pruning_eps=0.5 (the median ball) realizes that construction. The
    formula also assumes idealized hash randomness (collision classes
    independent of Hamming geometry), which the field-polynomial family
    provides; the integer affine family's classes are low-bit aligned and
    inflate the count an order of magnitude. A trial whose pruned
    candidate sets come up empty counts zero matched states.
    """
    cfg = TwoHopConfig(
        m=peer_count + 1, n=n, delta=delta, p_s=p, p_relay=p, p_adv=0.0,
        iterations=1, seed=seed, pruning_eps=pruning_eps, hash_family="poly",
    )
    obs = simulate_observation(cfg, False, trial)
    try:
        trellis = build_and_run_trellis(obs)
    except InferenceError:
        return 0
    return len(matched_codewords(trellis, obs.relay_overheard.hash_value, obs.hash_spec))


def mean_matched_count(
    n: int, peer_count: int, delta: int, p: float, trials: int, seed: int = 0
) -> float:
    """Empirical mean matched-codeword count over honest trials."""
    counts = [
        matched_count_trial(n, peer_count, delta, p, seed=seed, trial=t)
        for t in range(trials)
    ]
    return float(np.mean(counts))

