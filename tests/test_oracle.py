"""``sim.brute_force_consistency`` against its loop form, bit for bit.

The oracle enumerates peer tuples as arrays. ``_loop_oracle`` is the same
definition written one tuple at a time with ``itertools.product``, as the
oracle was first written: every p* must come out ==, and every
InferenceError with the same message.
"""

import functools
import itertools

import numpy as np

from algwatch.channel import Bsc, ball_radius, hamming
from algwatch.gfield import default_field
from algwatch.hashing import FAMILIES, collision_list, hash_eval, sample_hash
from algwatch.inference import InferenceError, Overheard, WatchdogObservation
from algwatch.sim import brute_force_consistency

RATES = (0.0, 0.05, 0.1, 0.3, 0.5)
# Tuples the loop form may enumerate for one observation: bounds the test's time
_MAX_TUPLES = 1 << 12


def _in_order(values) -> float:
    """values added one at a time from 0 (Python 3.12's ``sum`` compensates floats)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _loop_oracle(obs: WatchdogObservation) -> float:
    """p* by enumeration, one tuple at a time: the oracle's loop form."""
    n = obs.field.n
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
        total = _in_order(liks)
        if total == 0.0:
            raise InferenceError("no candidate consistent with hash")
        return cands, [w / total for w in liks]

    relay = obs.relay_overheard
    relay_cands = collision_list(spec, relay.hash_value)
    norm = _in_order(
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


def _result(oracle, obs):
    try:
        return oracle(obs)
    except InferenceError as exc:
        return str(exc)


def _observations():
    """Four drawn observations for every n 1-6, delta 0-n, family, m 1-4 and pruning (off,
    0.05, 0.5) whose peers' classes hold at most ``_MAX_TUPLES`` tuples together.

    Each link's rate is drawn from RATES. The relay sends the true combination and announces
    its hash or, one time in three, a uniform delta-bit value; a noiseless relay link then
    may explain nothing. A poly hash need not be onto, so a class may be empty.
    """
    rng = np.random.default_rng(2010)
    for n, family, m, eps, _ in itertools.product(range(1, 7), FAMILIES, range(1, 5),
                                                  (None, 0.05, 0.5), range(4)):
        for delta in range(n + 1):
            if (1 << (n - delta)) ** (m - 1) > _MAX_TUPLES:
                continue
            spec, order = sample_hash(rng, family, n, delta), 1 << n
            symbols = rng.integers(0, order, m).tolist()
            coeffs = tuple(rng.integers(1, order, m).tolist())
            rates = rng.choice(RATES, m).tolist()

            def overheard(x, rate, announced=None):
                flips = int((rng.random(n) < rate) @ (1 << np.arange(n)))
                announced = hash_eval(spec, x) if announced is None else announced
                return Overheard(x ^ flips, announced, Bsc(rate))

            forged = int(rng.integers(0, 1 << delta)) if rng.random() < 1 / 3 else None
            relay = overheard(default_field(n).lincomb(coeffs, symbols), rates[-1], forged)
            yield WatchdogObservation(symbols[0], coeffs,
                                      tuple(map(overheard, symbols[1:], rates)), relay, spec,
                                      eps)


def test_array_oracle_equals_the_loop_oracle_bit_for_bit():
    got = [(_result(brute_force_consistency, obs), _result(_loop_oracle, obs))
           for obs in _observations()]
    assert len(got) == 2520
    assert [array for array, _ in got] == [loop for _, loop in got]
    scored = [p for p, _ in got if isinstance(p, float)]
    errors = {p for p, _ in got if isinstance(p, str)}
    # every branch is reached: p* strictly inside (0, 1), exact zeros, and both messages
    assert any(0.0 < p < 1.0 for p in scored) and 0.0 in scored
    assert errors == {"no candidate consistent with hash",
                      "observation impossible under a noiseless relay channel"}
