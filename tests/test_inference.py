import numpy as np
import pytest

from algwatch.channel import Bsc
from algwatch.gfield import default_field
from algwatch.hashing import HashSpec, hash_eval, hash_eval_vec, sample_hash
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
from algwatch.packet import Codebook

LOW2 = HashSpec("affine", 4, 2, (1, 0))
IDENT = HashSpec("affine", 4, 4, (1, 0))


def test_transition_row_injective_hash():
    row = transition_row(0b0110, 9, Bsc(0.2), IDENT)
    assert row.items() == [(9, 1.0)]


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


def test_transition_row_restricted_codebook_can_be_empty():
    cb = Codebook(4, frozenset({3, 7}))  # nothing hashing to 2 mod 4
    with pytest.raises(InferenceError):
        transition_row(2, 2, Bsc(0.1), LOW2, codebook=cb)


def test_transition_row_pruning_drops_far_candidates():
    # eps = 0.6 gives radius 0 at p=0.1, n=4: only the observation survives
    row = transition_row(2, 2, Bsc(0.1), LOW2, prune_eps=0.6)
    assert row.items() == [(2, 1.0)]
    # pruning away every candidate is a structural error
    with pytest.raises(InferenceError):
        transition_row(3, 2, Bsc(0.1), LOW2, prune_eps=0.6)


def _obs(m, coeffs, x1, peers, relay, spec, n=4, prune=None):
    f = default_field(n)
    return WatchdogObservation(
        own_symbol=x1,
        coeffs=coeffs,
        overheard=peers,
        relay_overheard=relay,
        hash_spec=spec,
        field=f,
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
            obs = _obs(m, coeffs, int(rng.integers(0, f.order)), peers, relay, spec, n=n)
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
            peer.symbol, peer.hash_value, peer.channel,
            obs.hash_spec, obs.codebook, obs.prune_eps,
        )
        shifts = f.mul_vec(coeff, row.candidates)
        acc = np.zeros(f.order)
        for c, t in zip(shifts.tolist(), row.probs.tolist()):
            acc += t * vec[idx ^ c]
        vec = acc
        arrays.append(vec)
    return arrays


def _random_observation(rng, n, m, delta, family, codebook, prune, p):
    f = default_field(n)
    spec = sample_hash(rng, family, n, delta)
    pool = np.array(sorted(codebook.members)) if codebook else np.arange(f.order)
    symbols = [int(x) for x in rng.choice(pool, size=m)]
    coeffs = tuple(1 + int(c) for c in rng.integers(0, f.order - 1, size=m))
    ch = Bsc(p)

    def overhear(x):  # any symbol is possible on a noisy channel, only x on a clean one
        heard = x ^ int(rng.integers(0, f.order)) if p > 0 else x
        return Overheard(heard, hash_eval(spec, x), ch)

    peers = tuple(overhear(x) for x in symbols[1:])
    relay = overhear(f.lincomb(coeffs, symbols))
    return WatchdogObservation(
        own_symbol=symbols[0], coeffs=coeffs, overheard=peers, relay_overheard=relay,
        hash_spec=spec, field=f, codebook=codebook, prune_eps=prune,
    )


def _assert_matches_gather_loop(obs):
    try:
        ref = _gather_loop_layers(obs)
    except InferenceError:
        with pytest.raises(InferenceError):
            build_and_run_trellis(obs)
        return
    trellis = build_and_run_trellis(obs)
    assert trellis.depth == len(ref)
    for vec, layer in zip(ref, trellis.layers):
        support = np.flatnonzero(vec > 0.0)
        assert list(layer) == support.tolist()
        assert np.array_equal(list(layer.values()), vec[support])
    assert np.array_equal(trellis.final_weights, ref[-1])
    spec, relay_hash = obs.hash_spec, obs.relay_overheard.hash_value
    support = np.flatnonzero(ref[-1] > 0.0)
    expect = support[hash_eval_vec(spec, support) == relay_hash].tolist()
    assert matched_codewords(trellis, relay_hash, spec) == expect


@pytest.mark.parametrize("n", range(4, 13))
def test_trellis_bit_identical_to_gather_loop(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(6):
        m = int(rng.integers(2, 6))
        delta = int(rng.choice([0, 2, n]))
        if n >= 11 and delta == 0:
            m = 2  # keep the dense reference loop quick at 2^n candidates
        family = str(rng.choice(["affine", "poly"]))
        codebook = None
        if rng.random() < 0.3:
            members = rng.choice(1 << n, size=max(2, (1 << n) // 4), replace=False)
            codebook = Codebook(n, frozenset(int(x) for x in members))
        prune = 0.5 if rng.random() < 0.3 else None
        p = float(rng.choice([0.0, 0.05, 0.2]))
        obs = _random_observation(rng, n, m, delta, family, codebook, prune, p)
        _assert_matches_gather_loop(obs)


def test_trellis_bit_identical_across_many_chunks():
    # 1024 candidates per row at n=12, delta=2: the last layer scatters
    # about 10^6 contributions, summed over many bincount chunks
    rng = np.random.default_rng(12)
    for _ in range(2):
        obs = _random_observation(rng, 12, 3, 2, "affine", None, None, 0.1)
        peer = obs.overheard[0]
        row = transition_row(peer.symbol, peer.hash_value, peer.channel, obs.hash_spec)
        assert len(row.candidates) == 1024
        _assert_matches_gather_loop(obs)


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
    cb = Codebook(4, frozenset({3, 7}))
    peer = Overheard(3, hash_eval(LOW2, 3), Bsc(0.1))
    relay = Overheard(2, 2, Bsc(0.1))
    f = default_field(4)
    obs = WatchdogObservation(
        own_symbol=1, coeffs=(1, 1), overheard=(peer,), relay_overheard=relay,
        hash_spec=LOW2, field=f, codebook=cb,
    )
    trellis = build_and_run_trellis(obs)
    with pytest.raises(InferenceError):
        consistency_probability(trellis, obs)


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
    f = default_field(4)
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1,), (peer,), relay, LOW2, f)  # coeff count off
    with pytest.raises(ValueError):
        WatchdogObservation(1, (1, 0), (peer,), relay, LOW2, f)  # zero coeff
    with pytest.raises(ValueError):
        WatchdogObservation(99, (1, 1), (peer,), relay, LOW2, f)  # symbol too wide
