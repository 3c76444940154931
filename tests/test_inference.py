from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algwatch import inference
from algwatch.channel import Bsc, _log_likelihood_table, ball_radius, ball_volume
from algwatch.gfield import default_field
from algwatch.hashing import (
    FAMILIES, HashSpec, _Hashes, _tables, collision_class, hash_eval, hash_eval_vec, sample_hash,
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

LOW2 = HashSpec("affine", 4, 2, (1, 0))
IDENT = HashSpec("affine", 4, 4, (1, 0))


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
    cands = collision_class(spec, target)
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
    hashes = _Hashes(family, n, delta, coeffs, _tables(family, n, delta, coeffs))
    cands, probs, lengths = inference._transition_rows(hashes, observed, targets, channels, eps)
    if eps is not None and inference._pruning(tuple(channels), n, delta, eps)[1] is not None:
        # the ball side: rows read no table
        tableless = inference._transition_rows(
            hashes._replace(tables=None), observed, targets, channels, eps
        )
        assert [a.tolist() for a in tableless] == [cands.tolist(), probs.tolist(), lengths.tolist()]
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
    const = HashSpec("poly", 4, 2, (1,))
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
        spec, relay = HashSpec("poly", 4, 2, (1,)), Overheard(2, 2, Bsc(0.1))
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
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1, 0), (peer,), relay, LOW2)  # zero coeff
    with pytest.raises(ValueError):
        WatchdogObservation(99, (1, 1), (peer,), relay, LOW2)  # symbol too wide
    # the width comes from the hash spec: 2^n itself is out of range
    wide = Overheard(1 << LOW2.n, 0, Bsc(0.1))
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1, 1), (peer,), wide, LOW2)


@st.composite
def _watch_blocks(draw):
    """A block of uses: (n, delta, family, peers, uses, arms, rates, eps, seed, emptied use).

    rates holds each peer column's rate, then the relay's. With an emptied
    use, peer 0 is noiseless and that use overhears it as a symbol of
    another hash: its first row comes up empty.
    """
    n = draw(st.integers(1, 12))
    peers = draw(st.integers(0, 3))
    count = draw(st.integers(1, 5))
    return (
        n, draw(st.integers(0, n)), draw(st.sampled_from(FAMILIES)), peers, count,
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
    tables = _tables(family, n, delta, coeffs)
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
        _Hashes(family, n, delta, coeffs, tables), symbols[:, 0], codes, heard, peer_hashes,
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
            for uses, got in passes:
                for g, k in enumerate(uses.tolist()):
                    layers[k] = [(s[t == g].tolist(), w[t == g].tolist()) for t, s, w in got]
            run = runs[share] = {
                "lengths": lengths.tolist(), "built": built.tolist(), "layers": layers,
                "scored": _as_lists(inference._watch(h)),
                "unscored": _as_lists(inference._watch(h, score=False)),
                "public": [_public_calls(_one_use(h, k)) for k in range(len(built))],
            }
            for result in ("scored", "unscored"):  # only the forward paths differ
                forward = {"dense": int((built & ~keyed).sum()), "keyed": int(keyed.sum())}
                assert run[result][2].forward == forward
                run[result][2].forward = None
            run["keyed"] = keyed
    keyed, dense = runs[keyed_share].pop("keyed"), runs[dense_share].pop("keyed")
    bounds = np.prod(lengths, axis=1)
    assert keyed.tolist() == (built & (bounds <= 64 << n)).tolist() and not dense.any()
    assert runs[keyed_share] == runs[dense_share]
    table = h.hashes.tables[emptied] if emptied is not None else np.zeros(1)
    if (table != table[0]).any():  # a symbol of another hash was overheard noiselessly
        assert lengths[emptied, 0] == 0 and not built[emptied]
        assert inference._watch(h)[0][emptied].tolist() == [0.0] * h.relay_hashes.shape[1]
        assert runs[keyed_share]["public"][emptied] == inference._EMPTY_ROW
