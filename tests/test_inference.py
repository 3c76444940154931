import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algwatch import inference
from algwatch.channel import Bsc, _log_likelihood_table, ball_radius, ball_volume
from algwatch.gfield import default_field
from algwatch.hashing import (
    FAMILIES, HashSpec, _class_keys, _hash_rows, _Hashes, _key_of, collision_class, collision_list,
    hash_eval, hash_eval_vec, sample_hash,
)
from algwatch.inference import (
    InferenceError,
    Overheard,
    Verdict,
    WatchdogObservation,
    build_and_run_trellis,
    consistency_probability,
    decide,
    inverse_transition,
    matched_codewords,
    transition_row,
)
from algwatch.sim import TwoHopConfig, brute_force_consistency, run_experiment, simulate_observation

LOW2 = HashSpec("affine", 4, 2, (1, 0))
IDENT = HashSpec("affine", 4, 4, (1, 0))


def test_transition_row_drops_candidates_whose_weight_underflows():
    # at p = 1e-100 a candidate at distance d weighs 1e-100^d against the observed
    # symbol's 1.0, which rounds to 0 from d = 4: 26 of the class's 32 stay
    spec = HashSpec("affine", 6, 1, (1, 0))
    row = transition_row(5, 1, Bsc(1e-100), spec)
    kept = [y for y in range(1, 64, 2) if bin(y ^ 5).count("1") <= 3]
    assert len(kept) == 26 and row.candidates.tolist() == kept
    assert (row.probs > 0).all() and row.probs[kept.index(5)] == 1.0


def test_trellis_matches_the_oracle_where_weights_underflow():
    # every transition row of these observations loses its far candidates to underflow
    cfg = TwoHopConfig(m=3, n=6, delta=1, p_s=1e-100, p_relay=1e-100, p_adv=0.3)
    worst = 0.0
    for trial in range(40):
        for adversarial in (False, True):
            obs = simulate_observation(cfg, adversarial, trial)
            brute = brute_force_consistency(obs)
            trellis = consistency_probability(build_and_run_trellis(obs), obs)
            worst = max(worst, abs(trellis - brute) / max(abs(brute), 1e-300))
    assert worst <= 1e-12  # 5.0e-14 when written; the run contract is 1e-9


def test_transition_row_injective_hash():
    row = transition_row(0b0110, 9, Bsc(0.2), IDENT)
    assert (row.candidates.tolist(), row.probs.tolist()) == ([9], [1.0])


def test_transition_row_uniform_channel():
    row = transition_row(2, 2, Bsc(0.5), LOW2)
    assert row.candidates.tolist() == [2, 6, 10, 14]
    assert row.probs.tolist() == pytest.approx([0.25] * 4)


def test_transition_row_weights_hand_computed():
    # candidates {2, 6, 10, 14} at distances {0, 1, 1, 2} from the observation
    row = transition_row(2, 2, Bsc(0.1), LOW2)
    raw = [0.9**4, 0.9**3 * 0.1, 0.9**3 * 0.1, 0.9**2 * 0.1**2]
    expect = [w / sum(raw) for w in raw]
    assert row.candidates.tolist() == [2, 6, 10, 14]
    assert row.probs.tolist() == pytest.approx(expect, rel=1e-12)
    assert row.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_row_pruning_drops_far_candidates():
    # eps = 0.6 gives radius 0 at p=0.1, n=4: only the observation survives
    row = transition_row(2, 2, Bsc(0.1), LOW2, prune_eps=0.6)
    assert (row.candidates.tolist(), row.probs.tolist()) == ([2], [1.0])
    # pruning away every candidate is a structural error
    with pytest.raises(InferenceError):
        transition_row(3, 2, Bsc(0.1), LOW2, prune_eps=0.6)


@st.composite
def _runs(draw):
    """Run lengths 0-20 mixed in one call, and values spanning 1e-8 to 1e8."""
    lengths = draw(st.lists(st.integers(0, 20), min_size=1, max_size=30))
    magnitude = st.floats(-8, 8).map(lambda e: 10.0**e)
    values = draw(st.lists(
        magnitude | st.floats(1e-8, 1e8), min_size=sum(lengths), max_size=sum(lengths)
    ))
    return np.array(values, dtype=float), np.array(lengths, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_runs())
@example((np.arange(1.0, 25.0) * 1e-3, np.array([3, 0, 7, 8, 1, 5])))
@example((np.arange(1.0, 13.0), np.array([4, 4, 4])))
@example((np.arange(1.0, 28.0), np.array([9, 9, 9])))
def test_segment_reduce_is_each_runs_own_reduce(run):
    # bit for bit what a 1-D reduce of each run gives, empty runs included
    values, lengths = run
    starts = np.cumsum(lengths) - lengths
    for ufunc, empty in ((np.add, 0.0), (np.maximum, -np.inf)):
        got = inference._segment_reduce(ufunc, values, lengths, empty)
        expect = [
            ufunc.reduce(values[lo:lo + size]) if size else empty
            for lo, size in zip(starts.tolist(), lengths.tolist())
        ]
        assert got.tolist() == expect


def test_numpy_adds_in_the_orders_the_bit_exact_contract_reads():
    def left_to_right(values):  # not sum(): Python 3.12 compensates float sums
        total = 0.0
        for value in values.tolist():
            total += value
        return total

    # each order below changes this sum: left to right from 0.0 it is 3.0
    values = np.array([1e16, 1, -1e16, 1, 1, 1])
    assert left_to_right(values) == 3.0
    at = np.zeros(1)
    np.add.at(at, np.zeros(len(values), np.int64), values)  # one repeated index
    assert at.tolist() == [3.0]
    assert np.bincount(np.zeros(len(values), np.int64), values).tolist() == [3.0]
    assert np.add.reduce(values) == 3.0  # fewer than 8 values: one by one
    # from 8 values on, numpy's pairwise sum may regroup the additions
    nine = np.array([1e16, 1, 1, 1, 1, 1, 1, 1, -1e16])
    assert left_to_right(nine) == 0.0
    assert np.add.reduce(nine) == 6.0


# Pruning levels from radius 0 to radius n; rate 0 always gives radius 0, and
# rate 0.5 with a tiny eps radius n.
_EPS = [None, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9]
_ROW_RATES = [0.0, 0.01, 0.1, 0.3, 0.5]


@st.composite
def _row_batches(draw):
    """A batch of rows: (n, delta, family, hash seeds, observed, targets, rates, eps)."""
    n = draw(st.integers(1, 10))
    delta = draw(st.integers(0, n))
    count, peers = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    symbol, target = st.integers(0, (1 << n) - 1), st.integers(0, (1 << delta) - 1)
    return (
        n, delta, draw(st.sampled_from(FAMILIES)),
        draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count)),
        [draw(st.lists(symbol, min_size=peers, max_size=peers)) for _ in range(count)],
        [draw(st.lists(target, min_size=peers, max_size=peers)) for _ in range(count)],
        draw(st.lists(st.sampled_from(_ROW_RATES), min_size=peers, max_size=peers)),
        draw(st.sampled_from(_EPS)),
    )


def _reference_row(spec, observed, target, ch, eps):
    """One row from its collision class: distance filter, then a 1-D normalization."""
    cands = np.array(collision_list(spec, target), dtype=np.int64)
    d = np.bitwise_count(cands ^ observed)
    if eps is not None:
        near = d <= ball_radius(ch, spec.n, eps)
        cands, d = cands[near], d[near]
    logw = _log_likelihood_table((ch,), spec.n)[0, d]
    cands, logw = cands[logw > -np.inf], logw[logw > -np.inf]
    if len(cands) == 0:
        return [], []
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return cands[w > 0.0].tolist(), w[w > 0.0].tolist()


@settings(max_examples=300, deadline=None)
@given(_row_batches())
# the ball side (11 <= 2^8) and the class side (V(10, 6) = 848 > 2^8), pruned
@example((10, 2, "poly", [1, 2], [[3, 700], [0, 1023]], [[1, 2], [3, 0]], [0.1, 0.1], 0.5))
@example((10, 2, "affine", [5, 6], [[3, 700], [0, 1023]], [[1, 2], [3, 0]], [0.1, 0.1], 1e-6))
# columns of different radii on the ball side, one of them a rate-0 channel
@example((10, 2, "poly", [7], [[3, 700, 5]], [[1, 2, 0]], [0.1, 0.0, 0.01], 0.05))
# no peers at all (m = 1)
@example((6, 2, "affine", [1, 2], [[], []], [[], []], [], 0.5))
def test_transition_rows_match_class_filter_normalize(batch):
    n, delta, family, seeds, observed, targets, rates, eps = batch
    specs = [sample_hash(np.random.default_rng(s), family, n, delta) for s in seeds]
    channels = [Bsc(p) for p in rates]
    observed = np.array(observed, dtype=np.int64).reshape(len(specs), len(rates))
    targets = np.array(targets, dtype=np.int64).reshape(observed.shape)
    coeffs = np.array([spec.coefficients for spec in specs])
    hashes = _Hashes(family, n, delta, coeffs)
    cands, probs, lengths = inference._transition_rows(hashes, observed, targets, channels, eps)
    expect_cands, expect_probs, expect_lengths = [], [], []
    for k, spec in enumerate(specs):
        for j, ch in enumerate(channels):
            row_cands, row_probs = _reference_row(spec, observed[k, j], targets[k, j], ch, eps)
            expect_cands += row_cands
            expect_probs += row_probs
            expect_lengths.append(len(row_cands))
    assert lengths.ravel().tolist() == expect_lengths
    assert cands.tolist() == expect_cands
    assert probs.tolist() == expect_probs


def test_transition_row_examples_sit_on_both_sides_of_the_ball_rule():
    # the rule that picks ball enumeration: V(n, r) <= 2^(n - delta)
    radius = [ball_radius(Bsc(0.1), 10, eps) for eps in (0.5, 1e-6, 0.05)]
    assert ball_volume(10, radius[0]) <= 1 << 8 < ball_volume(10, radius[1])
    assert ball_volume(10, radius[2]) <= 1 << 8
    assert len({radius[2], *(ball_radius(Bsc(p), 10, 0.05) for p in (0.0, 0.01))}) == 3


def _obs(m, coeffs, x1, peers, relay, spec, prune=None):
    return WatchdogObservation(
        own_symbol=x1,
        coeffs=coeffs,
        overheard=peers,
        relay_overheard=relay,
        hash_spec=spec,
        prune_eps=prune,
    )


def test_trellis_single_source():
    relay = Overheard(0, hash_eval(IDENT, 0), Bsc(0.1))
    obs = _obs(1, (3,), 9, (), relay, IDENT)
    trellis = build_and_run_trellis(obs)
    f = default_field(4)
    assert trellis.layers == [{f.mul(3, 9): 1.0}]


def test_trellis_injective_hash_collapses():
    f = default_field(4)
    x1, x2, a = 5, 11, (1, 1)
    peer = Overheard(x2, hash_eval(IDENT, x2), Bsc(0.2))
    relay = Overheard(x1 ^ x2, hash_eval(IDENT, x1 ^ x2), Bsc(0.2))
    trellis = build_and_run_trellis(_obs(2, a, x1, (peer,), relay, IDENT))
    assert trellis.layers[1] == {x1 ^ x2: pytest.approx(1.0)}


def test_trellis_layer_two_hand_computed():
    # peer row {2, 6, 10, 14}; unit coefficients xor with a_1 x_1 = 5
    peer = Overheard(2, 2, Bsc(0.1))
    relay = Overheard(0, 0, Bsc(0.1))
    trellis = build_and_run_trellis(_obs(2, (1, 1), 5, (peer,), relay, LOW2))
    raw = [0.9**4, 0.9**3 * 0.1, 0.9**3 * 0.1, 0.9**2 * 0.1**2]
    expect = {5 ^ c: w / sum(raw) for c, w in zip([2, 6, 10, 14], raw)}
    got = trellis.layers[1]
    assert set(got) == set(expect)
    for s, w in expect.items():
        assert got[s] == pytest.approx(w, rel=1e-12)


def test_trellis_layer_mass_conserved():
    rng = np.random.default_rng(17)
    for n in (4, 6, 8):
        f = default_field(n)
        for _ in range(10):
            spec = sample_hash(rng, "affine", n, int(rng.integers(0, 3)))
            m = int(rng.integers(1, 5))
            coeffs = tuple(1 + int(c) for c in rng.integers(0, f.order - 1, size=m))
            peers = tuple(
                Overheard(
                    int(rng.integers(0, f.order)),
                    hash_eval(spec, int(rng.integers(0, f.order))),
                    Bsc(0.15),
                )
                for _ in range(m - 1)
            )
            relay = Overheard(0, 0, Bsc(0.1))
            obs = _obs(m, coeffs, int(rng.integers(0, f.order)), peers, relay, spec)
            trellis = build_and_run_trellis(obs)
            for layer in trellis.layers:
                assert sum(layer.values()) == pytest.approx(1.0, abs=1e-9)


def test_trellis_shift_is_permutation():
    # extending a layer by one candidate maps distinct states to distinct states
    f = default_field(4)
    for a in (1, 7, 15):
        for x in range(16):
            shift = f.mul(a, x)
            assert len({s ^ shift for s in range(16)}) == 16


def _gather_loop_layers(obs):
    """Reference forward pass: one dense XOR-gather-accumulate per candidate."""
    f = obs.field
    vec = np.zeros(f.order)
    vec[f.mul(obs.coeffs[0], obs.own_symbol)] = 1.0
    arrays = [vec]
    idx = np.arange(f.order)
    for coeff, peer in zip(obs.coeffs[1:], obs.overheard):
        row = transition_row(
            peer.symbol, peer.hash_value, peer.channel, obs.hash_spec, obs.prune_eps
        )
        shifts = f.mul_vec(coeff, row.candidates)
        acc = np.zeros(f.order)
        for c, t in zip(shifts.tolist(), row.probs.tolist()):
            acc += t * vec[idx ^ c]
        vec = acc
        arrays.append(vec)
    return arrays


def _random_observation(rng, n, m, delta, family, prune, p):
    f = default_field(n)
    spec = sample_hash(rng, family, n, delta)
    symbols = [int(x) for x in rng.choice(f.order, size=m)]
    coeffs = tuple(1 + int(c) for c in rng.integers(0, f.order - 1, size=m))
    ch = Bsc(p)

    def overhear(x):  # any symbol is possible on a noisy channel, only x on a clean one
        heard = x ^ int(rng.integers(0, f.order)) if p > 0 else x
        return Overheard(heard, hash_eval(spec, x), ch)

    peers = tuple(overhear(x) for x in symbols[1:])
    relay = overhear(f.lincomb(coeffs, symbols))
    return WatchdogObservation(
        own_symbol=symbols[0], coeffs=coeffs, overheard=peers, relay_overheard=relay,
        hash_spec=spec, prune_eps=prune,
    )


def _assert_matches_gather_loop(obs):
    try:
        ref = _gather_loop_layers(obs)
    except InferenceError:
        with pytest.raises(InferenceError):
            build_and_run_trellis(obs)
        return
    trellis = build_and_run_trellis(obs)
    assert len(trellis.layers) == len(ref)
    for vec, layer in zip(ref, trellis.layers):
        support = np.flatnonzero(vec > 0.0)
        assert list(layer) == support.tolist()
        assert np.array_equal(list(layer.values()), vec[support])
    assert np.array_equal(trellis.final_weights, ref[-1])
    spec, relay_hash = obs.hash_spec, obs.relay_overheard.hash_value
    support = np.flatnonzero(ref[-1] > 0.0)
    expect = support[hash_eval_vec(spec, support) == relay_hash].tolist()
    assert matched_codewords(trellis, relay_hash, spec) == expect


def _row_is_pruned(obs, peer):
    """True iff the peer's pruned transition row is smaller than its class."""
    try:
        row = transition_row(
            peer.symbol, peer.hash_value, peer.channel, obs.hash_spec, obs.prune_eps
        )
    except InferenceError:
        return False
    return len(row.candidates) < len(collision_class(obs.hash_spec, peer.hash_value))


@pytest.mark.parametrize("n", range(4, 13))
def test_trellis_bit_identical_to_gather_loop(n):
    rng = np.random.default_rng(1000 + n)
    pruned_rows = 0
    for _ in range(6):
        m = int(rng.integers(2, 6))
        delta = int(rng.choice([0, 2, n]))
        if n >= 11 and delta == 0:
            m = 2  # keep the dense reference loop quick at 2^n candidates
        family = str(rng.choice(["affine", "poly"]))
        prune = 0.5 if rng.random() < 0.3 else None
        p = float(rng.choice([0.0, 0.05, 0.2]))
        obs = _random_observation(rng, n, m, delta, family, prune, p)
        if prune is not None:
            pruned_rows += sum(_row_is_pruned(obs, peer) for peer in obs.overheard)
        _assert_matches_gather_loop(obs)
    # sparse rows are exercised, not assumed: some pruned row drops part of its class
    assert pruned_rows > 0


def test_trellis_bit_identical_across_many_chunks():
    # 1024 candidates per row at n=12, delta=2: the last layer scatters
    # about 10^6 contributions, summed over many bincount chunks
    rng = np.random.default_rng(12)
    for _ in range(2):
        obs = _random_observation(rng, 12, 3, 2, "affine", None, 0.1)
        peer = obs.overheard[0]
        row = transition_row(peer.symbol, peer.hash_value, peer.channel, obs.hash_spec)
        assert len(row.candidates) == 1024
        _assert_matches_gather_loop(obs)


@pytest.mark.parametrize("call, name", [
    (lambda spec: transition_row(5000, 0, Bsc(0.1), spec), "observed"),
    (lambda spec: transition_row(2047, 0, Bsc(0.1), spec), "observed"),
    (lambda spec: transition_row(-1, 0, Bsc(0.1), spec, prune_eps=0.5), "observed"),
    (lambda spec: inverse_transition(3, 5000, 3, Bsc(0.1), spec), "observed"),
    (lambda spec: inverse_transition(3, 3, 9, Bsc(0.1), spec), "relay_hash"),
], ids=["row-13-bit-symbol", "row-11-bit-symbol", "row-negative-pruned", "inverse-13-bit-symbol",
        "inverse-4-bit-hash"])
def test_impossible_symbol_or_hash_is_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call(HashSpec("affine", 10, 2, (1, 0)))


def test_inverse_transition_hash_mismatch_is_zero():
    assert inverse_transition(3, 2, 2, Bsc(0.1), LOW2) == 0.0


def test_inverse_transition_injective_hash():
    assert inverse_transition(9, 2, 9, Bsc(0.1), IDENT) == pytest.approx(1.0)


def test_inverse_transition_hand_computed():
    norm = 0.9**4 + 2 * (0.9**3 * 0.1) + 0.9**2 * 0.1**2
    got = inverse_transition(6, 2, 2, Bsc(0.1), LOW2)
    assert got == pytest.approx(0.9**3 * 0.1 / norm, rel=1e-12)


def test_consistency_probability_noiseless_honest():
    f = default_field(4)
    x1, x2, a = 5, 11, (2, 7)
    true = f.lincomb(a, [x1, x2])
    peer = Overheard(x2, hash_eval(IDENT, x2), Bsc(0.0))
    relay = Overheard(true, hash_eval(IDENT, true), Bsc(0.0))
    obs = _obs(2, a, x1, (peer,), relay, IDENT)
    assert consistency_probability(build_and_run_trellis(obs), obs) == pytest.approx(1.0)


def test_consistency_probability_no_matched_state():
    f = default_field(4)
    x1, x2 = 5, 11
    true = f.lincomb((1, 1), [x1, x2])
    peer = Overheard(x2, hash_eval(IDENT, x2), Bsc(0.1))
    # relay announces a hash no reachable state carries
    relay = Overheard(true, hash_eval(IDENT, true ^ 1), Bsc(0.1))
    obs = _obs(2, (1, 1), x1, (peer,), relay, IDENT)
    assert consistency_probability(build_and_run_trellis(obs), obs) == 0.0


def test_consistency_probability_structural_error_when_class_empty():
    # a constant poly hash maps every symbol to 1, so the class of 2 is empty
    const = HashSpec("poly", 4, 2, (1, 0))
    peer = Overheard(3, 1, Bsc(0.1))
    relay = Overheard(2, 2, Bsc(0.1))
    obs = _obs(2, (1, 1), 1, (peer,), relay, const)
    trellis = build_and_run_trellis(obs)
    with pytest.raises(InferenceError):
        consistency_probability(trellis, obs)


@pytest.mark.parametrize("case", ["empty class", "noiseless mismatch"])
def test_relay_faults_name_their_cause(case):
    if case == "empty class":
        # a constant poly hash maps every symbol to 1, so the class of 2 is empty
        spec, relay = HashSpec("poly", 4, 2, (1, 0)), Overheard(2, 2, Bsc(0.1))
        message, candidate = "relay hash matches no symbol", 2
    else:
        # 3 hashes to 3 under LOW2; a noiseless channel cannot have turned a 2 into it
        spec, relay = LOW2, Overheard(3, 2, Bsc(0.0))
        message, candidate = "observation impossible under a noiseless relay channel", 6
    peer = Overheard(3, hash_eval(spec, 3), Bsc(0.1))
    obs = _obs(2, (1, 1), 1, (peer,), relay, spec)
    trellis = build_and_run_trellis(obs)
    with pytest.raises(InferenceError, match=f"^{message}$"):
        consistency_probability(trellis, obs)
    if case == "noiseless mismatch":  # the oracle refuses the observation with the same words
        with pytest.raises(InferenceError, match=f"^{message}$"):
            brute_force_consistency(obs)
    for cand in (candidate, candidate ^ 1):  # whether or not cand hashes to the value
        with pytest.raises(InferenceError, match=f"^{message}$"):
            inverse_transition(cand, relay.symbol, relay.hash_value, relay.channel, spec)


def test_matched_codewords():
    f = default_field(4)
    x1, x2, a = 5, 11, (1, 1)
    true = f.lincomb(a, [x1, x2])
    # delta = 0: every positive-weight final state is matched
    zero = HashSpec("affine", 4, 0, (1, 0))
    peer = Overheard(x2, 0, Bsc(0.1))
    relay = Overheard(true, 0, Bsc(0.1))
    obs = _obs(2, a, x1, (peer,), relay, zero)
    trellis = build_and_run_trellis(obs)
    support = sorted(trellis.layers[-1])
    assert matched_codewords(trellis, 0, zero) == support
    # honest noiseless chain: the true combination is always matched
    peer = Overheard(x2, hash_eval(LOW2, x2), Bsc(0.1))
    relay = Overheard(true, hash_eval(LOW2, true), Bsc(0.1))
    obs = _obs(2, a, x1, (peer,), relay, LOW2)
    assert true in matched_codewords(build_and_run_trellis(obs), relay.hash_value, LOW2)


@pytest.mark.parametrize("relay_hash", [2, -1])
def test_matched_codewords_rejects_a_hash_outside_delta_bits(relay_hash):
    one_bit = HashSpec("affine", 4, 1, (1, 0))
    peer, relay = Overheard(11, 1, Bsc(0.1)), Overheard(14, 0, Bsc(0.1))
    trellis = build_and_run_trellis(_obs(2, (1, 1), 5, (peer,), relay, one_bit))
    assert matched_codewords(trellis, 0, one_bit) != []  # a valid hash still reads states
    with pytest.raises(ValueError, match=rf"^relay_hash {relay_hash} "):
        matched_codewords(trellis, relay_hash, one_bit)


def test_decide():
    assert decide(0.0, 0.0) is Verdict.MALICIOUS
    assert decide(0.3, 0.0) is Verdict.WELL_BEHAVING
    assert decide(0.5, 1.0) is Verdict.MALICIOUS
    assert decide(0.3, 0.25) is Verdict.WELL_BEHAVING
    with pytest.raises(ValueError):
        decide(0.5, 1.5)


def test_observation_validation():
    peer = Overheard(2, 2, Bsc(0.1))
    relay = Overheard(0, 0, Bsc(0.1))
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1,), (peer,), relay, LOW2)  # coeff count off
    with pytest.raises(ValueError, match="^coding coefficients must be nonzero$"):
        WatchdogObservation(1, (1, 0), (peer,), relay, LOW2)  # zero coeff
    # -3 would read the log table from its end and score as 13; 16 is past it
    for coeffs in ((1, -3), (1, 16)):
        with pytest.raises(ValueError, match=rf"^coeffs \({coeffs[0]}, {coeffs[1]}\) "):
            WatchdogObservation(1, coeffs, (peer,), relay, LOW2)
    with pytest.raises(ValueError):
        WatchdogObservation(99, (1, 1), (peer,), relay, LOW2)  # symbol too wide
    # the width comes from the hash spec: 2^n itself is out of range
    wide = Overheard(1 << LOW2.n, 0, Bsc(0.1))
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1, 1), (peer,), wide, LOW2)
    for hashed in (Overheard(2, 4, Bsc(0.1)), Overheard(2, -1, Bsc(0.1))):  # LOW2 hashes to 2 bits
        with pytest.raises(ValueError, match="^hash values must be delta-bit values$"):
            WatchdogObservation(1, (1, 1), (hashed,), relay, LOW2)
        with pytest.raises(ValueError, match="^hash values must be delta-bit values$"):
            WatchdogObservation(1, (1, 1), (peer,), hashed, LOW2)


@st.composite
def _watch_blocks(draw):
    """A block of uses: (n, delta, family, peers, uses, arms, rates, eps, seed, emptied use).

    rates holds each peer column's rate, then the relay's. With an emptied
    use, peer 0 is noiseless and that use overhears it as a symbol of
    another hash: its first row comes up empty. A trellis with a summed
    layer (two peers or more) has rows of at most 2^8 candidates, delta >=
    n - 8: at n = 12, delta = 0, a dense layer takes 16M contributions.
    """
    n = draw(st.integers(1, 12))
    peers = draw(st.integers(0, 3))
    count = draw(st.integers(1, 5))
    return (
        n, draw(st.integers(max(0, n - 8) if peers >= 2 else 0, n)),
        draw(st.sampled_from(FAMILIES)), peers, count,
        draw(st.integers(1, 3)),
        draw(st.lists(st.sampled_from(_ROW_RATES), min_size=peers + 1, max_size=peers + 1)),
        draw(st.sampled_from(_EPS)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.none() | st.integers(0, count - 1)) if peers else None,
    )


def _block_holdings(n, delta, family, peers, count, arms, rates, eps, seed, emptied):
    """The block drawn from seed: what its watchdogs hold, as ``inference._watch`` takes it."""
    rng = np.random.default_rng(seed)
    order, rows = 1 << n, np.arange(count)[:, None]
    coeffs = np.array([sample_hash(rng, family, n, delta).coefficients for _ in range(count)])
    tables = _hash_rows(family, n, delta, coeffs, np.arange(order))
    rates = [0.0, *rates[1:]] if emptied is not None else rates

    def overheard(sent, rate):  # every bit of sent flipped with its column's probability
        bits = rng.random((*sent.shape, n)) < np.reshape(rate, (-1, 1))
        return sent ^ (bits << np.arange(n)).sum(axis=-1)

    symbols = rng.integers(0, order, (count, peers + 1))
    codes = rng.integers(1, order, (count, peers + 1))
    heard = overheard(symbols[:, 1:], np.array(rates[:peers]))
    peer_hashes = tables[rows, symbols[:, 1:]]
    if emptied is not None:
        others = np.flatnonzero(tables[emptied] != peer_hashes[emptied, 0])
        heard[emptied, 0] = others[0] if len(others) else heard[emptied, 0]
    field = default_field(n)
    honest = np.bitwise_xor.reduce(field.mul_elementwise(codes, symbols), axis=1)
    payloads = np.concatenate((honest[:, None], rng.integers(0, order, (count, arms - 1))), axis=1)
    return inference._Holdings(
        _Hashes(family, n, delta, coeffs), symbols[:, 0], codes, heard, peer_hashes,
        overheard(payloads, rates[-1]), tables[rows, payloads],
        tuple(Bsc(p) for p in rates[:peers]), Bsc(rates[-1]), eps,
    )


def _one_use(h, k):
    """Use k's first arm as a WatchdogObservation."""
    spec = HashSpec(h.hashes.family, h.hashes.n, h.hashes.delta, tuple(h.hashes.coeffs[k].tolist()))
    peers = tuple(map(Overheard, h.heard[k].tolist(), h.peer_hashes[k].tolist(), h.peer_channels))
    relay = Overheard(int(h.relay_symbols[k, 0]), int(h.relay_hashes[k, 0]), h.relay_channel)
    coeffs = tuple(h.coeffs[k].tolist())
    return WatchdogObservation(int(h.own[k]), coeffs, peers, relay, spec, h.prune_eps)


def _public_calls(obs):
    """The public one-observation results, an InferenceError as its message."""
    try:
        trellis = build_and_run_trellis(obs)
    except InferenceError as exc:
        return str(exc)
    got = [trellis.layers, trellis.final_weights.tolist(),
           matched_codewords(trellis, obs.relay_overheard.hash_value, obs.hash_spec)]
    try:
        got.append(consistency_probability(trellis, obs))
    except InferenceError as exc:
        got.append(str(exc))
    return got


def _as_lists(result):
    return [a.tolist() if isinstance(a, np.ndarray) else a for a in result]


@settings(max_examples=150, deadline=None)
@given(_watch_blocks(), st.sampled_from([1, 40, inference._SCATTER_CHUNK]))
# the criterion-08 point, pruning on, with a use emptied mid-block
@example((10, 2, "poly", 3, 5, 2, [0.1, 0.1, 0.1, 0.1], 0.5, 7, 2), inference._SCATTER_CHUNK)
# one peer, no pruning, and small fields where states collect many terms
@example((6, 1, "affine", 1, 4, 1, [0.3, 0.1], None, 3, None), 40)
@example((4, 0, "poly", 3, 3, 2, [0.5, 0.3, 0.0, 0.1], None, 11, 1), 1)
# states of four terms each: a state-major layout, or terms summed in sorted
# key order, changes the last bit of a weight here
@example((2, 0, "affine", 2, 1, 1, [0.01, 0.01, 0.0], None, 0, None), 1)
# three arms over full rows, 128 * 2^n paths: dense when scored, keyed and cut when counted
@example((5, 1, "affine", 3, 2, 3, [0.1, 0.1, 0.1, 0.1], None, 1, None), 40)
def test_keyed_pass_equals_dense_pass(block, chunk):
    """Every layer, support, matched count and p* of the keyed pass ==, the dense pass's."""
    h = _block_holdings(*block)
    n, emptied = block[0], block[-1]
    # 1/64 runs keyed every trellis whose row lengths bound its layers to 64 * 2^n
    # states, so that states collect many terms; 2^64 runs none keyed
    runs, keyed_share, dense_share = {}, 1 / 64, 2**64
    for share in (keyed_share, dense_share):
        with (
            mock.patch.object(inference, "_KEYED_SHARE", share),
            mock.patch.object(inference, "_SCATTER_CHUNK", chunk),
        ):
            lengths, built, keyed, passes = inference._trellises(h)
            layers = [None] * len(built)  # each use's layers, as (states, weights) lists
            for uses, got, _ in passes:
                for g, k in enumerate(uses.tolist()):
                    layers[k] = [(s[t == g].tolist(), w[t == g].tolist()) for t, s, w in got]
            run = runs[share] = {
                "lengths": lengths.tolist(), "built": built.tolist(), "layers": layers,
                "scored": _as_lists(inference._watch(h)),
                "unscored": _as_lists(inference._watch(h, score=False)),
                "public": [_public_calls(_one_use(h, k)) for k in range(len(built))],
            }
            bounds = np.prod(lengths, axis=1, dtype=float)
            for result, arms in (("scored", h.relay_hashes.shape[1]), ("unscored", 1)):
                # only the forward paths differ; a keyed last layer cut to one announced
                # value (a sum, delta > 0) runs keyed up to 8 times the paths
                cut = arms == 1 and lengths.shape[1] > 1 and h.hashes.delta > 0
                ran = built & (bounds * share <= (8 if cut else 1) << n)
                forward = {"dense": int((built & ~ran).sum()), "keyed": int(ran.sum())}
                assert run[result][1].forward == forward
                run[result][1].forward = None
            run["keyed"] = keyed
    keyed, dense = runs[keyed_share].pop("keyed"), runs[dense_share].pop("keyed")
    assert keyed.tolist() == (built & (bounds <= 64 << n)).tolist() and not dense.any()
    assert runs[keyed_share] == runs[dense_share]
    family, _, delta, coeffs = h.hashes
    table = (_hash_rows(family, n, delta, coeffs[emptied:emptied + 1], np.arange(1 << n))[0]
             if emptied is not None else np.zeros(1))
    if (table != table[0]).any():  # a symbol of another hash was overheard noiselessly
        assert lengths[emptied, 0] == 0 and not built[emptied]
        assert inference._watch(h)[0][emptied].tolist() == [0.0] * h.relay_hashes.shape[1]
        assert runs[keyed_share]["public"][emptied] == inference._FAULTS[inference._EMPTY_ROW]


@st.composite
def _cut_blocks(draw):
    """A ``_watch_blocks`` block with 1-7 arms: (block, forged arms, constant use, seed).

    A forged arm announces a value drawn from seed instead of its payload's
    hash: overheard noiselessly it cannot be scored, and its class may hold
    no final state. The constant use's poly hash becomes a_0 + 0 x.
    """
    block = list(draw(_watch_blocks()))
    block[5] = arms = draw(st.integers(1, 7))
    forged = draw(st.lists(st.integers(0, arms - 1), max_size=3, unique=True))
    constant = draw(st.none() | st.integers(0, block[4] - 1)) if block[2] == "poly" else None
    return tuple(block), forged, constant, draw(st.integers(0, 2**32 - 1))


def _forged_holdings(block, forged, constant, seed):
    """``_block_holdings(*block)`` with the forged arms' values and the constant use applied."""
    h = _block_holdings(*block)
    hashes, mask = h.hashes, (1 << h.hashes.delta) - 1
    coeffs = hashes.coeffs.copy()
    peer_hashes, relay_hashes = h.peer_hashes.copy(), h.relay_hashes.copy()
    if constant is not None:  # every symbol hashes to a_0's low bits
        coeffs[constant, 1] = 0
        peer_hashes[constant] = coeffs[constant, 0] & mask
        relay_hashes[constant] = coeffs[constant, 0] & mask
    rng = np.random.default_rng(seed)
    relay_hashes[:, forged] = rng.integers(0, mask + 1, (len(h.own), len(forged)))
    return h._replace(
        hashes=hashes._replace(coeffs=coeffs), peer_hashes=peer_hashes,
        relay_hashes=relay_hashes,
    )


def _cut_run(h, announced):
    """Every use's final layer, the support it was summed from and whether it ran keyed, each
    arm's (p*, fault) read through announced's arms, and each use's final states hashing to a
    value of announced."""
    lengths, built, keyed, passes = inference._trellises(h, announced)
    passes = list(passes)  # run lazily: read twice below
    finals = [(uses[t], s, w) for uses, layers, _ in passes for t, s, w in layers[-1:]]
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    use, states, _ = final = [np.concatenate(parts) for parts in zip(empty, *finals)]
    layers = [{} for _ in built]  # each use's final layer, state -> weight
    for t, s, w in zip(*(a.tolist() for a in final)):
        layers[t][s] = w
    arms = h._replace(relay_symbols=h.relay_symbols[:, :announced.shape[1]], relay_hashes=announced)
    match = np.take(announced.T, use, axis=1) == h.hashes.at(use, states)
    read = match.any(axis=0)
    norms = inference._relay_normalizers(h.hashes, arms.relay_symbols, announced, h.relay_channel)
    pstars = np.zeros(announced.size)
    # every arm scored as a relay of its own: use k's slot a is arm a
    relays = np.arange(len(built)) * announced.shape[1], arms.relay_symbols.ravel(), norms
    inference._score_arms(arms, relays, final, match, pstars)
    return {
        "lengths": lengths.tolist(), "built": built.tolist(), "keyed": keyed.tolist(),
        "layers": layers,
        "before": {int(uses[0]): len(got[-2][1]) for uses, got, _ in passes if len(got) > 2},
        "scores": [pstars.reshape(announced.shape).tolist(),
                   norms[2].reshape(announced.shape).tolist()],
        "reads": np.bincount(use[read], minlength=len(built)).tolist(),
    }


def _cut_runs(h):
    """``_cut_run`` announcing every arm (scoring) and arm 0 (counting), and both ``_watch``
    results."""
    runs = [_cut_run(h, announced) for announced in (h.relay_hashes, h.relay_hashes[:, :1])]
    return runs, _as_lists(inference._watch(h)), _as_lists(inference._watch(h, score=False))


def _whole_keys(hashes, announced):
    """``_class_keys`` with one class a use (lam = 0): no last layer is cut.

    Patched as inference's own name for it, which only the cut reads: the
    class enumerator (``hashing._classes``) reads hashing's, so rows and
    relay normalizers are untouched.
    """
    return np.zeros(len(announced), np.int64), np.zeros_like(announced)


@settings(max_examples=120, deadline=None)
@given(_cut_blocks(), st.sampled_from([40, inference._SCATTER_CHUNK]))
# a constant poly hash, two forged arms and two peers: one kept class, faults on noiseless arms
@example(((8, 3, "poly", 2, 3, 4, [0.1, 0.1, 0.0], None, 5, None), [1, 3], 1, 9), 40)
# m = 1 and m = 2: no summed last layer
@example(((6, 2, "affine", 0, 2, 7, [0.0], 0.3, 1, None), [2], None, 4), 40)
@example(((6, 2, "poly", 1, 3, 2, [0.1, 0.1], None, 2, None), [0], 0, 4), 40)
# seven arms over the four classes of an affine hash, pruning on; then full rows, cut
@example(((10, 2, "affine", 2, 2, 7, [0.1, 0.1, 0.1], 0.05, 3, None), [0, 6], None, 11), 40)
@example(((10, 2, "affine", 2, 2, 1, [0.1, 0.1, 0.1], None, 3, None), [], None, 11),
         inference._SCATTER_CHUNK)
def test_cut_last_layer_scores_what_the_whole_layer_scores(drawn, chunk):
    """Each p*, fault, count and record == the whole last layer's; a cut keeps its classes.

    Trellises run keyed where their paths fit in 64 * 2^n (share 1/64), then all dense
    (2^64), each announcing every arm (scoring) and arm 0 (counting). A dense last layer of
    more than ``_SCATTER_CHUNK`` contributions (40 here in some runs, to cut small trellises
    too) is cut to the announced classes; a smaller one is kept whole. A keyed last layer is
    cut when it is a sum and every use announces one value, and kept whole for several arms.
    """
    h = _forged_holdings(*drawn)
    hashes = h.hashes
    for share in (1 / 64, 2**64):
        with (
            mock.patch.object(inference, "_SCATTER_CHUNK", chunk),
            mock.patch.object(inference, "_KEYED_SHARE", share),
        ):
            cuts, *cut_watch = _cut_runs(h)
            with mock.patch.object(inference, "_class_keys", _whole_keys):
                wholes, *whole_watch = _cut_runs(h)
        assert cut_watch == whole_watch
        for announced, cut, whole in zip((h.relay_hashes, h.relay_hashes[:, :1]), cuts, wholes):
            assert {k: v for k, v in cut.items() if k != "layers"} == {
                k: v for k, v in whole.items() if k != "layers"
            }
            before, one_value = cut["before"], announced.shape[1] == 1
            for k, (kept, full) in enumerate(zip(cut["layers"], whole["layers"])):
                one_class = hashes.delta == 0 or hashes.family == "poly" and not hashes.coeffs[k, 1]
                if cut["keyed"][k]:  # every summed last layer (m >= 3), with one announced value
                    split = one_value and len(cut["lengths"][k]) > 1
                else:  # a summed last layer (m >= 3) of more contributions than the chunk
                    split = k in before and cut["lengths"][k][-1] * before[k] > chunk
                if one_class or not split:
                    assert kept == full
                else:  # exactly the states hashing to an announced value, the whole layer's weights
                    states = np.array(sorted(full), dtype=np.int64)
                    hashed = hashes.at(np.full(len(states), k), states)
                    announced_states = states[np.isin(hashed, announced[k])].tolist()
                    assert kept == {s: full[s] for s in announced_states}


def test_constant_hash_last_layer_is_built_whole_in_layer_memory():
    """A poly hash with a_1 = 0 (lam = 0) has one class: its large dense last layer is not cut.

    Every symbol hashes to a_0 here, so each peer row is a whole pruning ball and the last
    layer scatters 79 * 2068 terms, over ``_SCATTER_CHUNK``. A cut's grid would be 2^delta
    rows of the whole layer (8.8 MB traced peak at delta = 8, about 2^delta times the layer);
    the whole-layer pass peaks near 0.5 MB. Its floats are the unchunked pass's.
    """
    spec, ch = HashSpec("poly", 12, 8, (5, 0)), Bsc(0.05)
    peers = tuple(Overheard(x, 5, ch) for x in (1234, 3001, 77))
    obs = WatchdogObservation(7, (1, 3, 5, 9), peers, Overheard(11, 5, ch), spec, 0.05)
    tracemalloc.start()
    try:
        trellis = build_and_run_trellis(obs)
        p_star = consistency_probability(trellis, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [len(layer) for layer in trellis.layers]
    assert sizes[2] * 79 > inference._SCATTER_CHUNK and sizes[-1] == 1 << 12
    assert peak < 2 << 20
    with mock.patch.object(inference, "_SCATTER_CHUNK", 1 << 40):  # one chunk, never cut
        whole = build_and_run_trellis(obs)
        assert consistency_probability(whole, obs) == p_star
    assert np.array_equal(whole.final_weights, trellis.final_weights)


_TRELLISES, _HASHES_AT = inference._trellises, inference._Hashes.at


def _uncut(h, announced=None):
    """``inference._trellises`` flagging no use as cut: ``_watch_block`` then hashes every
    final state, the reference the skipped hash is checked against."""
    *got, passes = _TRELLISES(h, announced)
    return (*got, ((uses, layers, False) for uses, layers, _ in passes))


def _flagging(cuts):
    """``inference._trellises`` appending to cuts, a call at a time, its uses' cut flags as its
    passes yield them."""

    def trellises(h, announced=None):
        *got, passes = _TRELLISES(h, announced)
        cut = np.zeros(len(h.own), bool)
        cuts.append(cut)

        def flagged():
            for uses, layers, flags in passes:
                cut[uses] = flags
                yield uses, layers, flags

        return (*got, flagged())

    return trellises


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("delta", [0, 1, 2, "n"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("eps", [None, 0.5])
def test_cut_uses_read_what_hashing_every_final_state_reads(family, delta, m, eps):
    """Counts, p* and records == the hash-everything reference's, with cut uses' hashes skipped.

    Eight uses, a constant poly hash (a_1 = 0) among them, counted, scored with one arm and
    with three; a chunk of 40 cuts the small dense last layers too. Uses are cut wherever a
    summed last layer (m >= 3) of a hash of several classes reads one value.
    """
    n = 6
    delta = n if delta == "n" else delta
    block = (n, delta, family, m - 1, 8, 3, [0.05] * m, eps, 100 * m + delta, None)
    h = _forged_holdings(block, [], 2 if family == "poly" else None, 5)
    one = h._replace(relay_symbols=h.relay_symbols[:, :1], relay_hashes=h.relay_hashes[:, :1])
    cuts = []
    for chunk in (40, inference._SCATTER_CHUNK):
        with mock.patch.object(inference, "_SCATTER_CHUNK", chunk):
            runs = {}
            for name, trellises in (("skipped", _flagging(cuts)), ("hashed", _uncut)):
                with mock.patch.object(inference, "_trellises", trellises):
                    runs[name] = [
                        _as_lists(inference._watch(x, score))
                        for x, score in ((h, False), (one, True), (h, True))
                    ]
            assert runs["skipped"] == runs["hashed"]
    cut = np.concatenate(cuts)
    assert cut.any() == (m >= 3 and delta > 0)
    if family == "poly":  # the constant use is never flagged: its one class holds every state
        assert not cut.reshape(-1, len(h.own))[:, 2].any()


def test_a_cut_counting_block_never_hashes_its_final_states(monkeypatch):
    """``_Hashes.at`` is called on no final state of a cut use, and on every other use's.

    The criterion-08 point (poly hash, median-ball pruning): every built use is cut, save
    the constant one (a_1 = 0), whose final states alone are hashed.
    """
    block = (10, 2, "poly", 3, 40, 1, [0.1] * 4, 0.5, 7, None)
    passes_done, hashed, cuts = [], [], []
    flagging = _flagging(cuts)

    def trellises(h, announced=None):
        got = flagging(h, announced)
        passes_done[:] = [True]
        return got

    def at(self, rows, xs):  # a 1-D xs is hashed as a column: count the 2-D call
        if passes_done and xs.ndim == 2:
            hashed.append(rows.tolist())
        return _HASHES_AT(self, rows, xs)

    monkeypatch.setattr(inference, "_trellises", trellises)
    monkeypatch.setattr(inference._Hashes, "at", at)
    for constant in (None, 3):
        passes_done.clear()
        hashed.clear()
        h = _forged_holdings(block, [], constant, 5)
        rows = inference._transition_rows(h.hashes, h.heard, h.peer_hashes, h.peer_channels, 0.5)
        cut = (rows[2] > 0).all(axis=1)  # every built use
        counts, record = inference._watch(h, score=False)
        assert record.fallbacks["trellis"] == 40 - cut.sum()
        if constant is not None:
            cut[constant] = False
        assert cuts[-1].tolist() == cut.tolist()
        # only the uncut use's final states, each hashed once
        assert hashed == ([] if constant is None else [[constant] * int(counts[constant, 0])])


def test_a_scored_block_normalizes_its_relays_once(monkeypatch):
    """One ``_relay_normalizers`` call per scored block, however many batches it reads.

    The scored pruned point m 3, n 12, delta 6, p 0.05, eps 0.05, 100 trials of two arms,
    makes more than one block, and a block's last layers fill ``_BLOCK_ELEMENTS`` more than
    once: it reads them in two or more batches (``_read_finals``).
    """
    calls = []  # per _watch_block call: [normalizer calls, batches read]
    block, normalizers, read = (inference._watch_block, inference._relay_normalizers,
                                inference._read_finals)

    def counted(at, real):
        def call(*args):
            calls[-1][at] += 1
            return real(*args)
        return call

    def watched(h, score):
        calls.append([0, 0])
        return block(h, score)

    monkeypatch.setattr(inference, "_watch_block", watched)
    monkeypatch.setattr(inference, "_relay_normalizers", counted(0, normalizers))
    monkeypatch.setattr(inference, "_read_finals", counted(1, read))
    cfg = TwoHopConfig(m=3, n=12, delta=6, p_s=0.05, p_relay=0.05, iterations=100,
                       pruning_eps=0.05)
    run_experiment(cfg)
    assert len(calls) > 1
    assert [c[0] for c in calls] == [1] * len(calls)
    assert max(c[1] for c in calls) >= 2


@pytest.mark.parametrize("delta", range(17))
def test_class_keys_invert_every_drawn_hash(delta):
    """Each announced value's class is ``pow(a, -1, 2^delta)`` (r - b) (affine) or r ^ a_0 (poly).

    Every odd affine multiplier a at this delta, with b and the announced values drawn;
    poly hashes of every a_1 below 16, 0 included, whose one class is class 0. A poly
    hash of other than 2 coefficients has no such form, and no spec holds one.
    """
    rng, mask = np.random.default_rng(delta), (1 << delta) - 1
    n = max(delta, 4)
    odd = np.arange(1, mask + 2, 2)
    coeffs = np.stack([odd, rng.integers(0, mask + 1, len(odd))], axis=1)
    announced = rng.integers(0, mask + 1, (len(odd), 2))
    lam, keys = _class_keys(_Hashes("affine", n, delta, coeffs), announced)
    assert lam.tolist() == [1] * len(odd)
    assert keys.tolist() == [[(r - b) * pow(a, -1, mask + 1) & mask for r in rs]
                             for (a, b), rs in zip(coeffs.tolist(), announced.tolist())]
    coeffs = np.stack([rng.integers(0, 1 << n, 16), np.arange(16)], axis=1)
    announced = rng.integers(0, mask + 1, (16, 3))
    lam, keys = _class_keys(_Hashes("poly", n, delta, coeffs), announced)
    assert lam.tolist() == list(range(16))
    assert keys[0].tolist() == [0] * 3  # a_1 = 0
    drawn = zip(coeffs[1:, 0].tolist(), announced[1:].tolist())
    assert keys[1:].tolist() == [[(r ^ a0) & mask for r in rs] for a0, rs in drawn]
    with pytest.raises(ValueError, match="coefficients"):
        HashSpec("poly", n, delta, (1, 1, 1))  # quadratic


@st.composite
def _public_observations(draw):
    """(obs, another announced value, another relay symbol) at n 3-6, delta 0-n.

    Both families; a poly hash has a_1 = 0 (lam = 0: one class, nothing cut)
    half the time. A last layer can be cut from m = 3 on, so m = 3 and 4 are
    drawn twice as often as 1 and 2. Peers are overheard at rates that may
    be 0, so a row may come up empty and a relay may not be scorable.
    """
    n = draw(st.integers(3, 6))
    delta, family = draw(st.integers(0, n)), draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = sample_hash(rng, family, n, delta)
    if family == "poly" and draw(st.booleans()):
        spec = HashSpec("poly", n, delta, (spec.coefficients[0], 0))
    m, order = draw(st.sampled_from([1, 2, 3, 3, 4, 4])), 1 << n
    symbols = rng.integers(0, order, m).tolist()
    coeffs = tuple(rng.integers(1, order, m).tolist())
    rates = draw(st.lists(st.sampled_from(_ROW_RATES), min_size=m, max_size=m))

    def overheard(x, rate):
        flips = int((rng.random(n) < rate) @ (1 << np.arange(n)))
        return Overheard(x ^ flips, hash_eval(spec, x), Bsc(rate))

    relay = overheard(default_field(n).lincomb(coeffs, symbols), rates[-1])
    obs = WatchdogObservation(
        symbols[0], coeffs, tuple(map(overheard, symbols[1:], rates)), relay, spec,
        draw(st.sampled_from([None, 0.05, 0.3])),
    )
    other_hash = draw(st.integers(0, (1 << delta) - 1))
    other_symbol = draw(st.integers(0, order - 1))
    return obs, other_hash, other_symbol


def _whole_pstar(obs, final):
    """p* of obs scored on a whole final layer, as the whole-layer pair scores it, else the
    InferenceError message."""
    h = inference._holdings(obs)
    norms = inference._relay_normalizers(h.hashes, h.relay_symbols, h.relay_hashes,
                                         h.relay_channel)
    use, states, _ = final
    match = h.hashes.at(use, states)[None] == obs.relay_overheard.hash_value
    pstar = np.zeros(1)
    inference._score_arms(h, (np.zeros(1, np.int64), h.relay_symbols[0], norms), final, match,
                          pstar)
    return inference._FAULTS[norms[2][0]] if norms[2][0] else float(pstar[0])


def _public_pstar(trellis, obs):
    try:
        return consistency_probability(trellis, obs)
    except InferenceError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_public_observations(), st.sampled_from([40, inference._SCATTER_CHUNK]))
def test_public_trellis_completes_to_the_whole_trellis(drawn, chunk):
    """The public pair's trellis, built over the announced class, reads as the whole trellis.

    p* of the build observation, of one that differs only in its relay symbol
    and of one that differs only in its announced value equals p* scored on
    the whole final layer, fault for fault; then layers, final_weights and
    matched_codewords of every delta-bit value equal the whole pass's. A
    chunk of 40 cuts dense last layers at these small n too.
    """
    obs, other_hash, other_symbol = drawn
    relay = obs.relay_overheard
    variants = [obs, replace(obs, relay_overheard=replace(relay, symbol=other_symbol)),
                replace(obs, relay_overheard=replace(relay, hash_value=other_hash))]
    with mock.patch.object(inference, "_SCATTER_CHUNK", chunk):
        _, built, _, passes = inference._trellises(inference._holdings(obs))
        if not built[0]:
            with pytest.raises(InferenceError, match=inference._FAULTS[inference._EMPTY_ROW]):
                build_and_run_trellis(obs)
            return
        (_, whole, _), = passes
        trellis = build_and_run_trellis(obs)
        assert [_public_pstar(trellis, o) for o in variants] == [
            _whole_pstar(o, whole[-1]) for o in variants
        ]
    assert trellis.layers == [dict(zip(s.tolist(), w.tolist())) for _, s, w in whole]
    vec = np.zeros(1 << obs.hash_spec.n)
    vec[whole[-1][1]] = whole[-1][2]
    assert np.array_equal(trellis.final_weights, vec)
    spec, states = obs.hash_spec, whole[-1][1]
    for value in range(1 << spec.delta):
        expect = states[hash_eval_vec(spec, states) == value].tolist()
        assert matched_codewords(trellis, value, spec) == expect


@pytest.mark.parametrize("n", range(1, 17))
def test_key_of_is_the_field_product_masked(n):
    """``_key_of`` equals the low delta bits of lam * x in GF(2^n), for lam of 1, other
    than 1 and 0, one per x or one for all, at every delta from 1 to n."""
    rng, order = np.random.default_rng(n), 1 << n
    xs = rng.integers(0, order, 64)
    drawn = rng.integers(2, order, 64) if order > 2 else np.zeros(64, np.int64)
    lams = [np.ones(64, np.int64), np.ones(1, np.int64), drawn, drawn[:1],
            np.zeros(64, np.int64), np.zeros(1, np.int64), np.where(xs & 1, 1, drawn)]
    for delta in range(1, n + 1):
        mask = (1 << delta) - 1
        for lam in lams:
            expect = default_field(n).mul_elementwise(lam, xs) & mask
            assert _key_of(lam, xs, n, mask).tolist() == expect.tolist()


# Contributions one example's forward passes may make, counted from its row bounds
# (``_memory_work``): it keeps the memory test within about 5 s of Tier-1.
_MEMORY_WORK = 1 << 19
# The memory bound's multiples of 2^n and of a block, derived in the test's docstring.
_C_WORDS, _D_WORDS = 80, 74


def _row_bound(n, delta, peers, rates, eps, constant):
    """The candidates a transition row can hold: a class (all 2^n symbols for a constant
    hash), or the ball ``_pruning`` finds them in."""
    reach = None if eps is None else inference._pruning(
        tuple(Bsc(p) for p in rates[:peers]), n, delta, eps)[1]
    return ball_volume(n, reach) if reach is not None else 1 << (n if constant else n - delta)


def _memory_work(n, peers, rows):
    """A use's forward-pass contributions at most: each layer's row times the layer before."""
    work, paths = rows, rows
    for _ in range(peers - 1):
        work += rows * min(1 << n, paths)
        paths *= rows
    return work


@st.composite
def _memory_blocks(draw):
    """(``_block_holdings`` arguments, every use's poly hash constant): uses of m = 2-5
    sources at n 1-14, both families, pruning on and off, 1-3 arms.

    delta is drawn from those whose pair and scored and counted blocks stay within
    ``_MEMORY_WORK`` contributions, and a constant hash only where it does too. Without
    pruning the cap leaves out low delta at large n (at n = 14, delta below 6, 9 and 10
    for m = 3, 4 and 5; m = 2 keeps every delta), constant hashes of two peers or more
    above n = 8 (m = 5: above n = 7), and blocks of more uses than it allows, at most 64.
    """
    n, peers = draw(st.integers(1, 14)), draw(st.integers(1, 4))
    family = draw(st.sampled_from(FAMILIES))
    rates = draw(st.lists(st.sampled_from(_ROW_RATES), min_size=peers + 1, max_size=peers + 1))
    eps = draw(st.sampled_from([None, 0.05, 0.5]))

    def work(delta, constant):
        return _memory_work(n, peers, _row_bound(n, delta, peers, rates, eps, constant))

    delta = draw(st.sampled_from(
        [d for d in range(n + 1) if 3 * work(d, False) <= _MEMORY_WORK] or [n]))
    constant = (family == "poly" and delta > 0 and 3 * work(delta, True) <= _MEMORY_WORK
                and draw(st.booleans()))
    uses = draw(st.integers(1, max(1, min(64, _MEMORY_WORK // work(delta, constant) // 2 - 1))))
    block = (n, delta, family, peers, uses, draw(st.integers(1, 3)), rates, eps,
             draw(st.integers(0, 2**32 - 1)), None)
    return block, constant


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=60, deadline=None)
@given(_memory_blocks())
# 200 uses of constant poly hashes: each row's class is all 2^12 symbols, 2^10 times
# what a block counted for a use before constant hashes were counted so
@example(((12, 10, "poly", 1, 200, 1, [0.1, 0.1], None, 5, None), True))
# 85 dense uses a block of 3 arms, each last layer up to 2^10 states and uncut (32 x 32
# terms): a block held every use's layers until it had run them all
@example(((10, 5, "affine", 2, 85, 3, [0.1, 0.1, 0.1], None, 5, None), False))
def test_memory_is_bounded_in_n(drawn):
    """Traced peaks of the public pair and of ``_watch`` are at most c 2^n + d B words.

    A word is 8 bytes, N = 2^n and B = ``_BLOCK_ELEMENTS`` = ``_SCATTER_CHUNK`` = 8,192.
    c = 80 and d = 74 come from the code, for at most 4 peers and 3 arms, with the
    field's tables built (``default_field``, once per process). Every array a block
    makes is sized by one of:

    - its row candidates R <= max(B, 4N): a block's uses count at most B elements
      together (``_use_elements``), and a use that counts more runs alone, with at most
      4 rows of one class each, at most 2^n symbols (a pruning ball is searched only
      where it is no larger than a class); its normalizer members M <= max(B, 3N) alike;
    - a dense layer's states, at most N; a keyed layer's contributions C <= max(B, N),
      since a keyed group's path bounds sum to at most B, or one use's to at most N;
    - a dense chunk of at most max(B, N) terms (``_SCATTER_CHUNK // width`` grid rows);
    - a batch of last-layer states F <= max(B, N) (``_watch_block``), and its matched
      (arm, state) pairs P <= 3F.

    The peak is the largest of four phases, each with what lives across it: the rows'
    shifts and probabilities (2R <= 2B + 8N) and the batch so far (3F <= 3B + 3N):

    - rows: ``_transition_rows`` holds at most 8 arrays of R at once (items, candidates,
      peers, log weights and four ``_segment_reduce`` temporaries), and a first
      ``_ball_masks`` 2N: 8B + 34N;
    - a dense pass: its kept layers (3 of 3N), the dense vector (N), the cut's keys,
      classes, members, columns, row keys and class grid of at most 2^n entries (7N),
      two chunk temporaries (2B + 2N) and the new layer (3N + N/8): 33.2N + 7B with 2R
      and 3F;
    - a keyed pass: its kept layers (9C), the last layer's keys, terms, distinct keys,
      ids and sums (5C), and ``_contributions``' own peak (8C: candidate and source
      indices, keys, and their copies where a cut filters them): 33N + 27B;
    - reading a batch: the batch and its concatenation (6F), the match array (3F / 8)
      and ``_score_arms``: 8 arrays of P and 3 Python lists of up to P ints, 4.5 words
      each (13.5P): 2R + 70.9F <= 78.9N + 72.9B.
    """
    block, constant = drawn
    h = _block_holdings(*block)
    if constant:  # every symbol hashes to a_0's low bits
        coeffs = h.hashes.coeffs * [1, 0]
        value = coeffs[:, :1] & (1 << h.hashes.delta) - 1
        h = h._replace(hashes=h.hashes._replace(coeffs=coeffs),
                       peer_hashes=np.broadcast_to(value, h.peer_hashes.shape).copy(),
                       relay_hashes=np.broadcast_to(value, h.relay_hashes.shape).copy())
    obs = _one_use(h, 0)
    default_field(h.hashes.n)
    bound = 8 * ((_C_WORDS << h.hashes.n) + _D_WORDS * inference._BLOCK_ELEMENTS)

    def pair():
        try:
            consistency_probability(build_and_run_trellis(obs), obs)
        except InferenceError:
            pass

    for call in (pair, lambda: inference._watch(h), lambda: inference._watch(h, score=False)):
        assert _traced_peak(call) <= bound
