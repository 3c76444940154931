"""An exact-arithmetic ground truth for p*: both float computations against rationals.

``exact_pstar`` follows the definition ``sim.brute_force_consistency`` documents,
in rational arithmetic. A rate p is a float, so Fraction(p) = a / b exactly, and
each BSC likelihood p^d (1 - p)^(n - d) is a^d (b - a)^(n - d) / b^n. The b^n
cancels in every normalization, so the sum over hash-consistent peer tuples is
one integer over the product of the rows' and the relay's integer normalizers.

The tolerances come from operation counts (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, ch. 3-4), not from measured errors. Each
float operation is exact times (1 + d) with |d| <= u = 2^-53; a libm ``log``,
``log1p``, ``exp`` or ``pow`` is taken within 1 ulp, two such factors. Every
quantity is non-negative, so relative errors add (Lemma 3.3: gamma_j + gamma_k
+ gamma_j gamma_k <= gamma_(j+k)); a sum of k terms costs k - 1 (eq. 4.4, which
also bounds numpy's pairwise sums) and a dot product of k terms k (eq. 3.5).
With n bits, m sources, classes and rows of at most k = 2^n symbols, and
lam = max |ln p| over the noisy rates:

- the trellis (``_trellis_units``) takes each log-likelihood as d ln p + (n - d)
  ln(1 - p), within 4 u |l| <= 4 u n lam; the exponent l - max of a row then
  errs by at most 9 u n lam absolute, which ``exp`` turns into a relative
  9 n lam + 2 (its own rounding). A row divides each weight by their sum: 2
  such weights, k - 1 for the sum, 1 for the division. A state of the last
  layer sums at most k products of m - 1 row probabilities per layer, and
  p* divides a dot product of its matched states' weights and relay terms,
  each such a weight, by the relay's normalizer, a sum of k such weights;
- the float oracle (``_oracle_units``) takes p^d (1 - p)^(n - d) as two pows,
  a subtraction and a product: n + 5. Rows and the relay term normalize as
  above, and a tuple's weight is m - 1 products more; it then sums up to
  k^(m - 1) tuples one by one.

At n <= 5, m <= 3 and lam = ln 10 (p = 0.1, the noisiest rate drawn) these give
793.7 u = 8.8e-14 and 1182 u = 1.3e-13, under the tolerances below. A
noiseless rate (p = 0) gives weights of exactly 1 and 0, which add no error.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algwatch.channel import Bsc, ball_radius, hamming
from algwatch.gfield import default_field
from algwatch.hashing import FAMILIES, HashSpec, collision_list, hash_eval, sample_hash
from algwatch.inference import (
    InferenceError, Overheard, WatchdogObservation, build_and_run_trellis,
    consistency_probability,
)
from algwatch.sim import brute_force_consistency

U = 2.0**-53
RATES = (0.0, 0.1, 0.3, 0.5)
LAM = max(-math.log(p) for p in RATES if p)  # the widest log-likelihood per bit
TRELLIS_RTOL, ORACLE_RTOL = 1e-13, 1e-12


def _trellis_units(n: int, m: int, lam: float) -> float:
    """Units of u bounding the trellis p*'s relative error (module docstring)."""
    k = 1 << n
    weight = 9 * n * lam + 2  # one exp of a row's exponent
    prob = 2 * weight + k  # a weight over its row's sum
    state = (m - 1) * prob + max(0, m - 2) * k  # products of m - 1 rows, a sum per layer
    return state + weight + (weight + k - 1) + k + 1  # dot product over the normalizer


def _oracle_units(n: int, m: int) -> float:
    """Units of u bounding ``brute_force_consistency``'s relative error (module docstring)."""
    k = 1 << n
    likelihood = n + 5
    prob = 2 * likelihood + k
    tuples = k ** (m - 1)
    return (m - 1) * (prob + 1) + prob + 1 + tuples - 1


def test_tolerances_hold_the_operation_count_bounds():
    assert _trellis_units(5, 3, LAM) * U <= TRELLIS_RTOL
    assert _oracle_units(5, 3) * U <= ORACLE_RTOL


def _likelihood(ch: Bsc, n: int, observed: int, y: int) -> int:
    """b^n times the likelihood of y sent and observed read, for Fraction(p) = a / b."""
    rate = Fraction(ch.p)
    a, b = rate.numerator, rate.denominator
    d = hamming(observed, y)
    return a**d * (b - a) ** (n - d)


def exact_pstar(obs: WatchdogObservation) -> Fraction:
    """p* as ``brute_force_consistency`` defines it, in rational arithmetic.

    Raises InferenceError where the oracle does: a peer whose (pruned)
    candidates all have likelihood 0, or a relay whose announced class does.
    """
    spec, n = obs.hash_spec, obs.hash_spec.n
    field = default_field(n)
    rows = []
    for coeff, peer in zip(obs.coeffs[1:], obs.overheard):
        cands = collision_list(spec, peer.hash_value)
        if obs.prune_eps is not None:
            radius = ball_radius(peer.channel, n, obs.prune_eps)
            cands = [y for y in cands if hamming(peer.symbol, y) <= radius]
        row = [(field.mul(coeff, y), _likelihood(peer.channel, n, peer.symbol, y)) for y in cands]
        if not sum(w for _, w in row):
            raise InferenceError("no candidate consistent with hash")
        rows.append(row)
    relay = obs.relay_overheard
    norm = sum(_likelihood(relay.channel, n, relay.symbol, y)
               for y in collision_list(spec, relay.hash_value))
    if not norm:
        raise InferenceError("observation impossible under a noiseless relay channel")
    start, total = field.mul(obs.coeffs[0], obs.own_symbol), 0
    for combo in itertools.product(*rows):
        s, w = start, 1
        for shifted, weight in combo:
            s ^= shifted
            w *= weight
        if w and hash_eval(spec, s) == relay.hash_value:
            total += w * _likelihood(relay.channel, n, relay.symbol, s)
    return Fraction(total, norm * math.prod(sum(w for _, w in row) for row in rows))


@st.composite
def _observations(draw):
    """An observation at n 3-5, m 1-3, delta 0-n, either family, pruned or not.

    Each link's rate is 0, 0.1, 0.3 or 0.5. A sent symbol is overheard with
    no flip or with drawn flips, whatever its link's rate, so a noiseless link
    may see an impossible symbol; a hash value is the sent symbol's or drawn,
    and the relay sends the honest combination or a drawn symbol.
    """
    n, m = draw(st.integers(3, 5)), draw(st.integers(1, 3))
    delta = draw(st.integers(0, n))
    spec = sample_hash(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       draw(st.sampled_from(FAMILIES)), n, delta)
    symbol, nonzero = st.integers(0, (1 << n) - 1), st.integers(1, (1 << n) - 1)

    def heard(sent: int) -> Overheard:
        flips = draw(st.just(0) | symbol)
        value = draw(st.just(hash_eval(spec, sent)) | st.integers(0, (1 << delta) - 1))
        return Overheard(sent ^ flips, value, Bsc(draw(st.sampled_from(RATES))))

    sent = draw(st.lists(symbol, min_size=m, max_size=m))
    coeffs = tuple(draw(st.lists(nonzero, min_size=m, max_size=m)))
    field = default_field(n)
    honest = 0
    for c, x in zip(coeffs, sent):
        honest ^= field.mul(c, x)
    relay = heard(draw(st.just(honest) | symbol))
    eps = draw(st.sampled_from([None, 0.05, 0.3, 0.5]))
    return WatchdogObservation(sent[0], coeffs, tuple(map(heard, sent[1:])), relay, spec, eps)


def _pstar(compute, obs):
    try:
        return compute(obs)
    except InferenceError:
        return None


def _trellis_pstar(obs):
    return consistency_probability(build_and_run_trellis(obs), obs)


@settings(max_examples=250, deadline=None)
@given(_observations())
# full rows of 32 candidates at m = 3: 1,024 peer tuples, the widest case the bounds count
@example(WatchdogObservation(
    7, (3, 5, 9), (Overheard(4, 0, Bsc(0.1)), Overheard(30, 0, Bsc(0.1))),
    Overheard(11, 0, Bsc(0.1)), HashSpec("affine", 5, 0, (1, 0)),
))
# a noiseless peer overheard outside its pruned class, and a constant poly hash
@example(WatchdogObservation(
    1, (1, 2), (Overheard(6, 1, Bsc(0.0)),), Overheard(2, 1, Bsc(0.1)),
    HashSpec("affine", 4, 2, (1, 0)), 0.3,
))
@example(WatchdogObservation(
    2, (1, 3), (Overheard(5, 3, Bsc(0.3)),), Overheard(9, 3, Bsc(0.0)),
    HashSpec("poly", 4, 2, (7, 0)),
))
def test_pstar_is_within_its_error_bound_of_the_exact_value(obs):
    """Both raise InferenceError or neither; exact zeros are float zeros, and every other
    p* lies within its operation-count bound of the exact value, relatively."""
    exact = _pstar(exact_pstar, obs)
    for compute, rtol in ((_trellis_pstar, TRELLIS_RTOL), (brute_force_consistency, ORACLE_RTOL)):
        got = _pstar(compute, obs)
        assert (got is None) == (exact is None)
        if exact is None:
            continue
        assert (got == 0.0) == (exact == 0)
        if exact:
            assert abs(Fraction(got) - exact) <= Fraction(rtol) * exact
