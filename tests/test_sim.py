import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algwatch import hashing, inference, packet, sim
from algwatch.channel import Bsc, ball_radius, hamming_vec
from algwatch.gfield import default_field
from algwatch.hashing import FAMILIES, HashSpec, collision_class, hash_eval, sample_hash
from algwatch.inference import (
    InferenceError,
    Overheard,
    WatchdogObservation,
    build_and_run_trellis,
    consistency_probability,
    inverse_transition,
    matched_codewords,
    transition_row,
)
from algwatch.sim import (
    ExperimentStats,
    TwoHopConfig,
    brute_force_consistency,
    calibrate_threshold,
    matched_count_trial,
    mean_matched_count,
    run_experiment,
    run_sweep,
    run_trial,
    simulate_observation,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TwoHopConfig(m=0)
    with pytest.raises(ValueError):
        TwoHopConfig(delta=11)
    with pytest.raises(ValueError):
        TwoHopConfig(p_adv=1.5)
    with pytest.raises(ValueError):
        TwoHopConfig(p_s=0.7)
    with pytest.raises(ValueError):
        TwoHopConfig(iterations=0)
    with pytest.raises(ValueError):
        TwoHopConfig(hash_family="md5")


def test_noiseless_injective_honest_trial():
    cfg = TwoHopConfig(m=3, n=6, delta=6, p_s=0.0, p_relay=0.0, p_adv=0.0, seed=3)
    for trial in range(10):
        assert run_trial(cfg, False, trial) == pytest.approx(1.0)


def test_observation_headers_are_exact():
    cfg = TwoHopConfig(m=3, n=8, delta=2, p_s=0.3, p_relay=0.3, seed=5)
    obs = simulate_observation(cfg, False, 0)
    assert len(obs.overheard) == 2 and len(obs.coeffs) == 3
    # header hash fields are untouched by channel noise: regenerate the
    # symbol stream and compare against the true peer symbols
    sym_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 1)))
    symbols = [int(s) for s in sym_rng.integers(0, 256, size=3)]
    for peer, true_symbol in zip(obs.overheard, symbols[1:]):
        assert peer.hash_value == hash_eval(obs.hash_spec, true_symbol)
    field = default_field(8)
    true_payload = field.lincomb(obs.coeffs, symbols)
    assert obs.relay_overheard.hash_value == hash_eval(obs.hash_spec, true_payload)


_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7, 2**130]
_EDGE_TRIALS = [0, 1, 2**31, 2**32 - 1]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**130)),
    st.one_of(st.sampled_from(_EDGE_TRIALS), st.integers(0, 2**32 - 1)),
    st.integers(1, 3),
)
def test_seed_words_are_numpys_seed_sequence_streams(seed, trial, count):
    lo = min(trial, 2**32 - count)
    words = sim._seed_words(seed, lo, lo + count)
    assert words.shape == (count, len(sim._TAGS), 4) and words.dtype == np.uint64
    for k in range(count):
        for tag in sim._TAGS:
            seq = np.random.SeedSequence((seed, lo + k, tag))
            assert words[k, tag].tolist() == seq.generate_state(4, np.uint64).tolist()
            ref = np.random.PCG64(seq).random_raw(3).tolist()
            assert sim._raw(words[k:k + 1, tag], 3).tolist() == [ref]


@st.composite
def _draw_points(draw):
    """A config over the whole width range, with hash widths 0, 1 and >= 2 all likely."""
    n = draw(st.integers(1, 16))
    return TwoHopConfig(
        m=draw(st.integers(1, 5)),
        n=n,
        delta=draw(st.sampled_from(sorted({0, 1, min(2, n), n})) | st.integers(0, n)),
        p_s=draw(_RATES),
        p_relay=draw(_RATES),
        seed=draw(st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**130))),
        hash_family=draw(st.sampled_from(FAMILIES)),
    )


def _mask(uniforms, p):
    return sum(1 << i for i, u in enumerate(uniforms) if u < p)


@settings(max_examples=200, deadline=None)
@given(
    _draw_points(),
    st.one_of(st.sampled_from(_EDGE_TRIALS), st.integers(0, 2**32 - 1)),
    st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), max_size=2),
)
def test_draws_are_numpys_generator_draws(cfg, trial, p_advs):
    # every tag's values are what default_rng(SeedSequence((seed, trial, tag))) draws,
    # and every field of the holdings is made from those values
    lo, m, n = min(trial, 2**32 - 2), cfg.m, cfg.n
    words = sim._seed_words(cfg.seed, lo, lo + 2)
    h = sim._draw(cfg, p_advs, words)
    field = default_field(n)
    for k in range(2):
        def rng(tag):
            return np.random.default_rng(np.random.SeedSequence((cfg.seed, lo + k, tag)))

        spec = sample_hash(rng(sim._HASH), cfg.hash_family, n, cfg.delta)
        assert tuple(h.hashes.coeffs[k].tolist()) == spec.coefficients
        sym = rng(sim._SYMBOLS)
        symbols = sym.integers(0, 1 << n, size=m).tolist()
        coeffs = (sym.integers(0, (1 << n) - 1, size=m) + 1).tolist()
        ours = sim._integers(words[k:k + 1, sim._SYMBOLS], [1 << n] * m + [(1 << n) - 1] * m)
        assert ours.tolist() == [symbols + [c - 1 for c in coeffs]]
        assert (int(h.own[k]), h.coeffs[k].tolist()) == (symbols[0], coeffs)
        uniforms = rng(sim._CHANNELS).random((m, n))
        ours = sim._uniforms(words[k:k + 1, sim._CHANNELS], m * n)
        assert ours.tolist() == [uniforms.ravel().tolist()]
        rates = [cfg.p_s] * (m - 1) + [cfg.p_relay]
        noise = [_mask(u, p) for u, p in zip(uniforms, rates)]
        assert h.heard[k].tolist() == [s ^ e for s, e in zip(symbols[1:], noise[:-1])]
        assert h.peer_hashes[k].tolist() == [hash_eval(spec, s) for s in symbols[1:]]
        adversary = rng(sim._ADVERSARY).random(n)
        ours = sim._uniforms(words[k:k + 1, sim._ADVERSARY], n)
        assert ours.tolist() == [adversary.tolist()]
        honest = field.lincomb(coeffs, symbols)
        arms = [honest] + [honest ^ _mask(adversary, p) for p in p_advs]
        assert h.relay_symbols[k].tolist() == [a ^ noise[-1] for a in arms]
        assert h.relay_hashes[k].tolist() == [hash_eval(spec, a) for a in arms]
    assert h.peer_channels == (Bsc(cfg.p_s),) * (m - 1) and h.relay_channel == Bsc(cfg.p_relay)
    assert h.prune_eps == cfg.pruning_eps


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = (1 << 64) - 1


def _pcg64(state: int, inc: int) -> np.random.PCG64:
    stream = np.random.PCG64()
    stream.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return stream


def _stepped_back(state: int, inc: int, steps: int) -> int:
    for _ in range(steps):
        state = (state - inc) * pow(_PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    return state


def _stream_whose_output(k: int, word: int, inc: int = 0x1234567 << 64 | 0xABCDEF1):
    """A PCG64 whose (k + 1)-th raw output is word: a state that outputs it, stepped back."""
    high = 0x0123_4567_89AB_CDEF  # the top 6 state bits are 0: the output is not rotated
    return _pcg64(_stepped_back(high << 64 | (high ^ word), inc, k + 1), inc)


def _seeding_words(stream: np.random.PCG64) -> np.ndarray:
    """The 4 words that numpy's pcg64_set_seed takes to stream's state.

    Seeding sets inc = words[2:4] << 1 | 1 and state M * (init + inc) + inc,
    with init = words[0:2]: undo the step, then subtract inc.
    """
    state, inc = stream.state["state"]["state"], stream.state["state"]["inc"]
    init = ((state - inc) * pow(_PCG64_MULTIPLIER, -1, 1 << 128) - inc) % (1 << 128)
    return np.array([init >> 64, init & _WORD, inc >> 65, inc >> 1 & _WORD], dtype=np.uint64)


@pytest.mark.parametrize("n", [2, 3, 10, 11, 16])
def test_coefficient_draw_rejects_a_word_as_numpy_does(n):
    # the second raw word's low half is 0, which every range 2^n - 1 rejects:
    # its threshold (2^32 - range) % range = 2^(32 mod n) is at least 1
    order, m, word = 1 << n, 2, 0xDEADBEEF << 32
    highs = [order] * m + [order - 1] * m

    def numpys(stream):
        rng = np.random.Generator(stream)
        return rng.integers(0, order, size=m).tolist() + rng.integers(0, order - 1, size=m).tolist()

    # row 0 is seeded to the crafted stream's state, row 1 is an ordinary stream
    crafted = _seeding_words(_stream_whose_output(1, word))
    words = np.stack((crafted, sim._seed_words(7, 0, 1)[0, sim._SYMBOLS]))
    raw = _stream_whose_output(1, word).random_raw(3).tolist()
    assert sim._raw(words[:1], 3).tolist() == [raw]
    ours = sim._integers(words, highs)
    expect = numpys(_stream_whose_output(1, word))
    ordinary = np.random.PCG64(np.random.SeedSequence((7, 0, sim._SYMBOLS)))
    assert ours.tolist() == [expect, numpys(ordinary)]
    # the symbols take the first raw word; the coefficients skip the second's
    # low half and take its high half, then a third word's low half
    halves = [h for r in raw for h in (r & 0xFFFFFFFF, r >> 32)]
    assert halves[2] == 0
    assert expect == [(h * r) >> 32 for h, r in zip(halves[:2] + halves[3:5], highs)]


def test_a_stream_that_runs_out_of_words_draws_more():
    # a range of 3 rejects only the half 0 (threshold 2^32 % 3 = 1). The first
    # two raw words are 0 and 0xDEADBEEF << 32: three rejected halves, where
    # _rejecting first takes 2 words for its 2 draws, so it takes more
    high = 0x0123_4567_89AB_CDEF  # odd, with the top 6 bits 0: no rotation
    first = high << 64 | high  # outputs high ^ high = 0
    second = (high - 1) << 64 | ((high - 1) ^ 0xDEADBEEF << 32)
    inc = (second - _PCG64_MULTIPLIER * first) % (1 << 128)  # odd: first is odd, second even
    start = _stepped_back(first, inc, 1)
    assert _pcg64(start, inc).random_raw(2).tolist() == [0, 0xDEADBEEF << 32]
    words = _seeding_words(_pcg64(start, inc))
    expect = np.random.Generator(_pcg64(start, inc)).integers(0, np.array([3, 3])).tolist()
    with mock.patch.object(sim, "_raw", wraps=sim._raw) as raw:
        assert sim._rejecting(words, [3, 3]) == expect
    assert [c.args[1] for c in raw.call_args_list] == [2, 4]
    assert sim._integers(words[None], [3, 3]).tolist() == [expect]


@pytest.mark.parametrize("call, name", [
    (lambda: TwoHopConfig(seed=-1), "seed"),
    (lambda: TwoHopConfig(iterations=2**32 + 1), "iterations"),
    (lambda: simulate_observation(TwoHopConfig(), False, trial=-1), "trial"),
    (lambda: run_trial(TwoHopConfig(), True, trial=2**32), "trial"),
    (lambda: matched_count_trial(8, 2, 2, 0.1, trial=2**40), "trial"),
    (lambda: mean_matched_count(8, 2, 2, 0.1, trials=2**32 + 1), "trials"),
    (lambda: mean_matched_count(8, 2, 2, 0.6, trials=5), "p"),
    (lambda: matched_count_trial(8, 2, 2, -0.1), "p"),
    (lambda: matched_count_trial(8, -1, 2, 0.1), "peer_count"),
    (lambda: TwoHopConfig(n=0), "n"),
    (lambda: TwoHopConfig(n=17, delta=2), "n"),
    (lambda: run_experiment(TwoHopConfig(iterations=8), workers=0), "workers"),
    (lambda: run_sweep(TwoHopConfig(iterations=8), "p_adv", [0.1], workers=-3), "workers"),
    (lambda: calibrate_threshold(TwoHopConfig(iterations=8), 0.1, workers=0), "workers"),
], ids=["config-seed", "config-iterations", "simulate_observation", "run_trial",
        "matched_count_trial", "mean_matched_count", "mean_matched_count-p",
        "matched_count_trial-p", "matched_count_trial-peer_count", "config-n-0", "config-n-17",
        "run_experiment-workers", "run_sweep-workers", "calibrate_threshold-workers"])
def test_seeds_and_trial_indices_out_of_range_name_the_field(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("cfg", [
    TwoHopConfig(m=3, n=6, delta=2, iterations=9, seed=4, hash_family="poly"),
    TwoHopConfig(m=3, n=6, delta=0, iterations=9, seed=4),
], ids=["poly", "affine-delta-0"])
def test_trial_streams_build_no_seed_sequence(monkeypatch, cfg):
    # every stream is stepped in array arithmetic from precomputed words:
    # no SeedSequence, no default_rng and no PCG64 is ever built
    made = []

    def counted(real):
        def make(*args, **kwargs):
            made.append((real.__name__, args))
            return real(*args, **kwargs)
        return make

    for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    sim._samples(cfg, [0.1, 0.3], 1)
    mean_matched_count(6, 2, 2, 0.1, trials=5, seed=3)
    simulate_observation(cfg, True, trial=2**32 - 1)
    assert made == []


def _run_fresh(script: str) -> None:
    """Run script in a fresh interpreter that imports this checkout's algwatch: it must exit 0."""
    src = Path(sim.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# What a one-worker run must leave unimported, as a line of a fresh-process script.
_NO_POOL = (
    "assert not {'concurrent.futures', 'multiprocessing'} & set(sys.modules), 'pool imported'\n"
)


def test_trial_path_leaves_numpy_random_unimported(tmp_path):
    # no draw imports numpy.random: not a matched-count run, not a default two-hop run;
    # and neither one-worker run imports the process pool or multiprocessing
    script = (
        "import sys\n"
        "from algwatch import cli, sim\n"
        "sim.mean_matched_count(10, 3, 2, 0.1, trials=1000)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        + _NO_POOL +
        f"out = {str(tmp_path / 'out.csv')!r}\n"
        "assert cli.main(['two-hop', '--workers', '1', '--out', out]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        + _NO_POOL
    )
    _run_fresh(script)


def test_a_pooled_run_loads_the_pool_and_writes_the_one_worker_run(tmp_path):
    script = (
        "import sys\n"
        "from algwatch import cli\n"
        "flags = ['two-hop', '--iterations', '40', '--seed', '3', '--values', '0.0,0.2']\n"
        f"one, two = {str(tmp_path / 'one.csv')!r}, {str(tmp_path / 'two.csv')!r}\n"
        "assert cli.main([*flags, '--workers', '1', '--out', one]) == 0\n"
        + _NO_POOL +
        "assert cli.main([*flags, '--workers', '2', '--out', two]) == 0\n"
        "assert {'concurrent.futures', 'multiprocessing'} <= set(sys.modules), 'no pool'\n"
    )
    _run_fresh(script)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    one, two = (json.loads((tmp_path / f"{k}.json").read_text()) for k in ("one", "two"))
    assert (one.pop("workers"), two.pop("workers")) == (1, 2) and one == two


@st.composite
def _quantile_cases(draw):
    """1-64 finite samples with ties, and q at 0, 1, 0.5, a grid point k/(n - 1) or a float
    next to one, or anywhere in [0, 1]. No sample is -0.0 (``sim._quantile``)."""
    values = st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: v + 0.0)  # -0.0 + 0.0 is 0.0
    pool = draw(st.lists(values, min_size=1, max_size=3))
    count = draw(st.integers(1, 64))
    samples = draw(st.lists(st.sampled_from(pool) | values, min_size=count, max_size=count))
    grid = draw(st.integers(0, count - 1)) / (count - 1) if count > 1 else 0.5
    near = [0.0, 1.0, 0.5, grid, math.nextafter(grid, 0.0), math.nextafter(grid, 1.0)]
    return np.array(samples), draw(st.sampled_from(near) | st.floats(0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(_quantile_cases())
@example((np.array([0.25]), 0.5))
@example((np.array([0.0, 1.0, 1.0, 3.0]), 2 / 3))
@example((np.array([3.0, 1.0, 1.0, 0.0]), math.nextafter(1 / 3, 1.0)))
def test_quantile_is_numpys_linear_quantile_bit_for_bit(case):
    samples, q = case
    got, want = sim._quantile(samples, q), np.quantile(samples, q)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("count", range(1, 65))
def test_raw_words_are_numpys_pcg64_words(count):
    # every tag's stream, multi-word seeds, the last trial index, and row
    # counts that fill one chunk exactly and spill one row into a second
    seed = (2**32 + 5, 2**100 + 7)[count % 2]
    step = sim._RAW_CHUNK // count  # rows a chunk takes
    trials = -(-(step + 1) // len(sim._TAGS))
    words = sim._seed_words(seed, 2**32 - trials, 2**32).reshape(-1, 4)[-(step + 1):]
    streams = [
        np.random.PCG64(np.random.SeedSequence((seed, 2**32 - trials + k // 4, k % 4)))
        for k in range(trials * len(sim._TAGS))
    ][-(step + 1):]
    assert len(words) == len(streams) == step + 1
    seeded = [stream.state["state"] for stream in streams]
    expect = [stream.random_raw(count).tolist() for stream in streams]
    assert sim._raw(words, count).tolist() == expect
    assert sim._raw(words[:step], count).tolist() == expect[:step]
    # some outputs come from states whose top 6 bits are 0, so are not rotated:
    # a rotation by 0 that shifted by 64 would get them wrong
    unrotated = 0
    for state in seeded:
        word = state["state"]
        for _ in range(count):
            word = (word * _PCG64_MULTIPLIER + state["inc"]) % (1 << 128)
            unrotated += word >> 122 == 0
    assert unrotated > 0


def test_draw_slices_equal_one_draw():
    # a run drawn a few trials at a time gives, with ==, what one draw gives;
    # pooled, the worker bounds (0, 5, 11) and slice bounds interleave
    cfg = TwoHopConfig(m=3, n=6, delta=1, iterations=11, seed=9, pruning_eps=0.5)
    args = (6, 2, 1, 0.1)
    with sim.collect_diagnostics() as whole:
        pstars = sim._samples(cfg, [0.2, 0.5], 1)
        matched = mean_matched_count(*args, trials=11, seed=9)
    for workers, draws in ((1, 2 * 4), (2, 4)):  # a forked worker's draws are its own
        with (
            mock.patch.object(sim, "_DRAW_TRIALS", 3),
            mock.patch.object(sim, "_draw", wraps=sim._draw) as draw,
            sim.collect_diagnostics() as sliced,
        ):
            assert sim._samples(cfg, [0.2, 0.5], workers).tolist() == pstars.tolist()
            assert mean_matched_count(*args, trials=11, seed=9) == matched
        assert draw.call_count == draws and sliced == whole


def test_every_run_reports_its_own_trials():
    # one-trial and matched-count runs report as sweeps do, to every open block
    cfg = TwoHopConfig(m=3, n=6, delta=1, seed=9)
    with sim.collect_diagnostics() as outer:
        with sim.collect_diagnostics() as inner:
            mean_matched_count(6, 2, 1, 0.1, trials=11, seed=9)
        assert inner.trials == 11 and outer == inner
        with sim.collect_diagnostics() as one:
            run_trial(cfg, True, trial=4)
        assert one.trials == 1
        with sim.collect_diagnostics() as one:
            matched_count_trial(6, 2, 1, 0.1, seed=9, trial=4)
        assert one.trials == 1
    assert outer.trials == 11 + 1 + 1


def test_trial_path_raises_no_warnings():
    # numpy warns on overflowing uint32 scalar arithmetic but wraps arrays
    # silently; the stream seeding and the draws' word products must stay
    # array arithmetic throughout. n = 1 and delta <= 1 draw ranges of 1,
    # which take no word; n = 16 makes the widest products.
    sim._hash_constants.cache_clear()
    sim._lemire_columns.cache_clear()
    for n, delta, family in [
        (8, 2, "poly"), (1, 1, "poly"), (16, 16, "poly"),
        (1, 0, "affine"), (1, 1, "affine"), (8, 0, "affine"), (8, 1, "affine"), (16, 16, "affine"),
    ]:
        cfg = TwoHopConfig(m=3, n=n, delta=delta, iterations=10, seed=2**64 + 5, hash_family=family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim._samples(cfg, [0.0, 0.2, 1.0], 1)
            mean_matched_count(n, 2, delta, 0.1, trials=10, seed=2**32 - 1)
            simulate_observation(cfg, True, trial=2**32 - 1)


def test_seed_determinism_and_stream_isolation():
    cfg = TwoHopConfig(m=3, n=8, delta=2, iterations=20, seed=12)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.relay_samples.tolist() == b.relay_samples.tolist()
    assert a.adv_samples.tolist() == b.adv_samples.tolist()
    other = dataclasses.replace(cfg, seed=13)
    c = run_experiment(other)
    assert a.relay_samples.tolist() != c.relay_samples.tolist()


def test_null_adversary_is_bit_identical():
    cfg = TwoHopConfig(m=3, n=10, delta=2, p_adv=0.0, iterations=30, seed=21)
    honest = [run_trial(cfg, False, t) for t in range(cfg.iterations)]
    adv = [run_trial(cfg, True, t) for t in range(cfg.iterations)]
    assert honest == adv


def test_workers_do_not_change_results():
    cfg = TwoHopConfig(m=2, n=6, delta=1, iterations=16, seed=9)
    st1 = run_experiment(cfg, workers=1)
    st2 = run_experiment(cfg, workers=2)
    assert st1.relay_samples.tolist() == st2.relay_samples.tolist()
    assert st1.adv_samples.tolist() == st2.adv_samples.tolist()


def test_oracle_matches_trellis():
    for seed in range(3):
        cfg = TwoHopConfig(m=3, n=5, delta=1, p_s=0.1, p_relay=0.1, p_adv=0.3, seed=seed)
        for trial in range(20):
            for adv in (False, True):
                obs = simulate_observation(cfg, adv, trial)
                p_trellis = consistency_probability(build_and_run_trellis(obs), obs)
                p_brute = brute_force_consistency(obs)
                assert p_trellis == pytest.approx(p_brute, rel=1e-9, abs=1e-15)


def test_oracle_matches_trellis_with_pruning():
    cfg = TwoHopConfig(
        m=3, n=5, delta=1, p_s=0.1, p_relay=0.1, p_adv=0.3, seed=4, pruning_eps=0.3
    )
    from algwatch.inference import InferenceError

    for trial in range(30):
        obs = simulate_observation(cfg, True, trial)
        try:
            p_trellis = consistency_probability(build_and_run_trellis(obs), obs)
        except InferenceError:
            with pytest.raises(InferenceError):
                brute_force_consistency(obs)
            continue
        assert p_trellis == pytest.approx(brute_force_consistency(obs), rel=1e-9, abs=1e-15)


def test_oracle_single_source_reduces_to_inverse_transition():
    cfg = TwoHopConfig(m=1, n=5, delta=2, p_s=0.1, p_relay=0.1, seed=2)
    obs = simulate_observation(cfg, False, 0)
    field = default_field(5)
    start = field.mul(obs.coeffs[0], obs.own_symbol)
    expect = inverse_transition(
        start,
        obs.relay_overheard.symbol,
        obs.relay_overheard.hash_value,
        obs.relay_overheard.channel,
        obs.hash_spec,
    )
    assert brute_force_consistency(obs) == pytest.approx(expect, rel=1e-12)


def test_oracle_rejects_wide_fields():
    cfg = TwoHopConfig(m=2, n=8, delta=2, seed=0)
    obs = simulate_observation(cfg, False, 0)
    with pytest.raises(ValueError):
        brute_force_consistency(obs)


def test_separation_appears_under_attack():
    cfg = TwoHopConfig(m=3, n=10, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.4,
                       iterations=300, seed=6)
    st = run_experiment(cfg)
    assert st.mean_p_adv < st.mean_p_relay
    assert st.separation > 0


def test_run_sweep_validates_axis_and_orders():
    cfg = TwoHopConfig(iterations=2, n=6, delta=1, seed=0)
    with pytest.raises(ValueError):
        run_sweep(cfg, "bogus", [1, 2])
    with pytest.raises(ValueError):
        run_sweep(cfg, "p_adv", [0.3, 0.2])
    with pytest.raises(ValueError, match="sweep values"):
        run_sweep(cfg, "p_adv", [])
    rows = run_sweep(cfg, "delta", [0, 1])
    assert [v for v, _ in rows] == [0, 1]
    assert all(isinstance(st, ExperimentStats) for _, st in rows)


def test_calibrate_threshold_flags_at_target_rate():
    cfg = TwoHopConfig(m=2, n=8, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.0,
                       iterations=4000, seed=31)
    t = calibrate_threshold(cfg, 0.05)
    recheck = dataclasses.replace(cfg, seed=32)
    samples = [run_trial(recheck, False, i) for i in range(4000)]
    freq = np.mean([s <= t for s in samples])
    assert abs(freq - 0.05) < 0.02


def test_calibrate_threshold_validation():
    cfg = TwoHopConfig(iterations=10, n=6, delta=1)
    with pytest.raises(ValueError):
        calibrate_threshold(cfg, 0.0)
    with pytest.raises(ValueError):
        calibrate_threshold(cfg, 0.05, window=11)


def test_calibrate_window_means():
    cfg = TwoHopConfig(m=2, n=8, delta=2, iterations=500, seed=3)
    t1 = calibrate_threshold(cfg, 0.1)
    t25 = calibrate_threshold(cfg, 0.1, window=25)
    # window means concentrate: their low quantile sits above the single-sample one
    assert t25 >= t1


def test_matched_count_trial_counts():
    c = matched_count_trial(10, 3, 2, 0.1, seed=0, trial=0)
    assert isinstance(c, int) and c >= 0
    avg = mean_matched_count(8, 2, 2, 0.1, trials=40, seed=1)
    assert avg >= 0.0
    with pytest.raises(ValueError):
        mean_matched_count(8, 2, 2, 0.1, trials=0)


_RATES = st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.5])


@st.composite
def _oracle_instances(draw):
    """A small observation: hash, channels, pruning and relay symbol all drawn."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 4))
    f = default_field(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = sample_hash(rng, draw(st.sampled_from(FAMILIES)), n, draw(st.integers(0, n)))
    symbols = [int(x) for x in rng.integers(0, f.order, size=m)]
    coeffs = tuple(1 + int(c) for c in rng.integers(0, f.order - 1, size=m))

    def overhear(x, p):  # any symbol is possible on a noisy channel, only x on a clean one
        heard = x ^ int(rng.integers(0, f.order)) if p > 0 else x
        return Overheard(heard, hash_eval(spec, x), Bsc(p))

    p_s, p_relay = draw(_RATES), draw(_RATES)
    sent = f.lincomb(coeffs, symbols) if draw(st.booleans()) else int(rng.integers(0, f.order))
    return WatchdogObservation(
        own_symbol=symbols[0],
        coeffs=coeffs,
        overheard=tuple(overhear(x, p_s) for x in symbols[1:]),
        relay_overheard=overhear(sent, p_relay),
        hash_spec=spec,
        prune_eps=draw(st.none() | st.sampled_from([0.05, 0.3, 0.6])),
    )


def _enumeration_size(obs):
    """Peer-symbol tuples the oracle enumerates for obs."""
    size = 1
    for o in obs.overheard:
        cands = collision_class(obs.hash_spec, o.hash_value)
        if obs.prune_eps is not None:
            r = ball_radius(o.channel, obs.field.n, obs.prune_eps)
            cands = cands[hamming_vec(o.symbol, cands) <= r]
        size *= len(cands)
    return size


@settings(max_examples=400, deadline=None)
@given(_oracle_instances())
def test_trellis_matches_oracle_on_random_instances(obs):
    if _enumeration_size(obs) > 4096:
        return  # too slow for the oracle
    try:
        expect = brute_force_consistency(obs)
    except InferenceError:
        with pytest.raises(InferenceError):
            consistency_probability(build_and_run_trellis(obs), obs)
        return
    got = consistency_probability(build_and_run_trellis(obs), obs)
    assert (got == 0.0) == (expect == 0.0)
    assert got == pytest.approx(expect, rel=1e-9, abs=0.0)


@st.composite
def _configs(draw):
    n = draw(st.integers(4, 8))
    return TwoHopConfig(
        m=draw(st.integers(1, 4)),
        n=n,
        delta=draw(st.integers(0, n)),
        p_s=draw(_RATES),
        p_relay=draw(_RATES),
        seed=draw(st.integers(0, 2**16)),
        pruning_eps=draw(st.none() | st.sampled_from([0.05, 0.2, 0.5])),
        hash_family=draw(st.sampled_from(["affine", "poly"])),
    )


def _arm_pstar(cfg, adversarial, trial):
    obs = simulate_observation(cfg, adversarial, trial)
    try:
        return consistency_probability(build_and_run_trellis(obs), obs)
    except InferenceError:
        return 0.0


_P_ADVS = st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]), max_size=4)


@settings(max_examples=120, deadline=None)
@given(_configs(), st.integers(0, 50), _P_ADVS)
def test_shared_trellis_scores_every_arm_as_its_own_pipeline(cfg, trial, p_advs):
    # three trials in one block: each arm of each is its own public pipeline
    expect = [
        [_arm_pstar(cfg, False, t)]
        + [_arm_pstar(dataclasses.replace(cfg, p_adv=p), True, t) for p in p_advs]
        for t in range(trial, trial + 3)
    ]
    words = sim._seed_words(cfg.seed, trial, trial + 3)
    pstars, _ = inference._watch(sim._draw(cfg, p_advs, words))
    assert pstars.tolist() == expect


def test_inference_errors_zero_the_arms_they_reach(monkeypatch):
    # eps = 0.9 prunes to radius 1 at n = 8: some trellises come up empty
    cfg = TwoHopConfig(m=3, n=8, delta=2, seed=5, pruning_eps=0.9)
    p_advs = [0.3, 0.6]
    trials = range(12)

    def trellis_fails(t):
        try:
            build_and_run_trellis(simulate_observation(cfg, False, t))
        except InferenceError:
            return True
        return False

    failed = [trellis_fails(t) for t in trials]
    assert any(failed) and not all(failed)
    drawn = sim._draw(cfg, p_advs, sim._seed_words(cfg.seed, 0, len(trials)))
    clean_pstars, clean = inference._watch(drawn)
    assert clean.fallbacks == Counter(trellis=sum(failed))
    for t in trials:
        expect = [_arm_pstar(cfg, False, t)] + [
            _arm_pstar(dataclasses.replace(cfg, p_adv=p), True, t) for p in p_advs
        ]
        assert clean_pstars[t].tolist() == ([0.0] * 3 if failed[t] else expect)

    real = inference._relay_normalizers
    scored = next(t for t in trials if (clean_pstars[t] > 0.0).all())

    def second_arm_fails(*args):
        top, denom, fault = real(*args)
        fault[scored * (1 + len(p_advs)) + 1] = inference._IMPOSSIBLE
        return top, denom, fault

    monkeypatch.setattr(inference, "_relay_normalizers", second_arm_fails)
    got_pstars, got = inference._watch(drawn)
    expect = clean_pstars.copy()
    expect[scored, 1] = 0.0
    assert got_pstars.tolist() == expect.tolist()
    assert got.fallbacks == Counter(trellis=sum(failed), scoring=1)


def test_one_trellis_per_trial(monkeypatch):
    calls = []
    real = inference._forward_pass

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(inference, "_forward_pass", counted)
    cfg = TwoHopConfig(m=3, n=6, delta=1, iterations=7, seed=2)
    run_sweep(cfg, "p_adv", [0.0, 0.1, 0.3, 0.5])
    assert len(calls) == cfg.iterations
    calls.clear()
    run_experiment(cfg)
    assert len(calls) == cfg.iterations


def test_one_hash_table_per_trial(monkeypatch):
    """No path makes a hash table: no hash row of all 2^n symbols, classes are cosets."""
    tables, scalar, blocks = [], [], []
    real_rows, real_block = hashing._hash_rows, inference._watch_block

    def counted(family, n, delta, coeffs, xs):  # a row of 2^n symbols would be a table
        tables.append(np.shape(xs)[-1] >= 1 << n)
        return real_rows(family, n, delta, coeffs, xs)

    def block(h, score):
        blocks.append(len(h.own))
        return real_block(h, score)

    monkeypatch.setattr(hashing, "_hash_rows", counted)
    monkeypatch.setattr(inference, "_watch_block", block)
    cfg = TwoHopConfig(m=3, n=6, delta=2, iterations=7, seed=2, hash_family="poly")
    for obs in (simulate_observation(cfg, True), simulate_observation(cfg, True, trial=3)):
        relay, peer = obs.relay_overheard, obs.overheard[0]
        trellis = build_and_run_trellis(obs)
        consistency_probability(trellis, obs)
        matched_codewords(trellis, relay.hash_value, obs.hash_spec)
        transition_row(peer.symbol, peer.hash_value, peer.channel, obs.hash_spec)
        transition_row(peer.symbol, peer.hash_value, peer.channel, obs.hash_spec, prune_eps=0.5)
        inverse_transition(relay.symbol, relay.symbol, relay.hash_value, relay.channel,
                           obs.hash_spec)
    assert tables and True not in tables
    tables.clear()
    for module in (hashing, inference, packet):  # sim imports no hash_eval
        monkeypatch.setattr(module, "hash_eval", lambda spec, x: scalar.append(x))
    run_sweep(cfg, "p_adv", [0.0, 0.1, 0.3, 0.5])
    # each trial's sent symbols hashed as drawn, and its final states: never the whole field
    assert tables and True not in tables and scalar == []
    tables.clear()
    pruned = dataclasses.replace(cfg, n=10, iterations=20, pruning_eps=0.5)
    run_sweep(pruned, "p_adv", [0.0, 0.1])
    blocks.clear()
    run_experiment(pruned)
    # scored and pruned: blocks are sized by the classes they read, not by 2^n tables
    assert tables and True not in tables and scalar == [] and blocks[0] > 8
    tables.clear()
    mean_matched_count(6, 2, 2, 0.1, trials=5)
    # ball-pruned and unscored: only the symbols read are hashed
    assert tables and True not in tables and scalar == []


def test_a_drawn_piece_is_watched_in_one_call(monkeypatch):
    watched, blocks = [], []
    real_watch, real_block = sim._watch, inference._watch_block

    def watch(h, score=True):
        watched.append(len(h.own))
        return real_watch(h, score)

    def block(h, score):
        blocks.append(len(h.own))
        return real_block(h, score)

    monkeypatch.setattr(sim, "_watch", watch)
    monkeypatch.setattr(inference, "_watch_block", block)
    mean_matched_count(10, 3, 2, 0.1, trials=300)
    # one piece, which _watch cuts itself: 124 trials a block at the criterion-08 point
    assert watched == [300] and blocks == [124, 124, 52]


def _relay_faults_when_divisible_by_3(real):
    """A relay normalizer that also faults on every relay symbol divisible by 3."""

    def faulty(hashes, symbols, announced, ch):
        top, denom, fault = real(hashes, symbols, announced, ch)
        fault[symbols.ravel() % 3 == 0] = inference._IMPOSSIBLE
        return top, denom, fault

    return faulty


@st.composite
def _block_runs(draw):
    """A config, p_adv arms and block size that mix block boundaries and faults."""
    n = draw(st.integers(4, 10))
    m = draw(st.integers(1, 5 if n <= 8 else 3))
    cfg = TwoHopConfig(
        m=m,
        n=n,
        delta=draw(st.integers(0 if m <= 3 else 1, n)),
        p_s=draw(_RATES),
        p_relay=draw(_RATES),
        iterations=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**16)),
        pruning_eps=draw(st.none() | st.sampled_from([0.05, 0.5, 0.9])),
        hash_family=draw(st.sampled_from(["affine", "poly"])),
    )
    p_advs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), max_size=2))
    # sizes near a trial's classes (2^(n - delta) a peer or arm) and balls (2 x peers x V(n, r))
    per_trial = inference._use_elements(_held_run(_matched(cfg), []), score=False)
    block_elements = draw(st.sampled_from(
        [1, 1 << (n + 1), 5 << n, inference._BLOCK_ELEMENTS, 2 * per_trial, 5 * per_trial]
    ))
    return cfg, p_advs, block_elements, draw(st.sampled_from([1, 1, 2]))


def _matched(cfg):
    """The matched-count run at cfg's width, peers, hash width, rate, seed and iterations."""
    matched = sim._matched_config(cfg.n, cfg.m - 1, cfg.delta, cfg.p_s, cfg.seed)
    return dataclasses.replace(matched, iterations=cfg.iterations)


def _held_run(cfg, p_advs):
    """What the watchdogs of cfg's run with p_advs arms hold, as ``sim._run`` hands it to _watch."""
    return sim._draw(cfg, p_advs, sim._seed_words(cfg.seed, 0, cfg.iterations))



# Explicit runs: long pruned rows of mixed lengths; and both kinds of
# fallback with a noiseless relay channel. Both end in a short block.
_LONG_ROWS_RUN = (
    TwoHopConfig(m=4, n=10, delta=3, p_s=0.3, p_relay=0.1, iterations=11, seed=3,
                 pruning_eps=0.5, hash_family="poly"),
    [0.1], 3 << 10, 1,
)
_FAULTY_RUN = (
    TwoHopConfig(m=3, n=8, delta=2, p_s=0.1, p_relay=0.0, iterations=11, seed=5,
                 pruning_eps=0.9),
    [0.1, 1.0], 3 << 8, 2,
)
# The criterion-08 point: its matched-count blocks hold no hash tables and run
# keyed, 5 trials each, and trial 7's trellis, mid-block, is emptied by pruning.
_CRITERION_08_RUN = (
    TwoHopConfig(m=4, n=10, delta=2, p_s=0.1, p_relay=0.1, iterations=12, seed=5,
                 pruning_eps=0.5, hash_family="poly"),
    [0.1], 5 * 2 * 3 * 11, 1,
)


@settings(max_examples=100, deadline=None)
@given(_block_runs())
@example(_LONG_ROWS_RUN)
@example(_FAULTY_RUN)
@example(_CRITERION_08_RUN)
def test_blocks_equal_per_trial_pipelines(run):
    """Trials run in blocks give, with ==, what each trial gives alone, and the same record."""
    cfg, p_advs, block_elements, workers = run
    faulty = _relay_faults_when_divisible_by_3(inference._relay_normalizers)
    records = []
    with mock.patch.object(inference, "_relay_normalizers", faulty):
        expect = [
            [_arm_pstar(cfg, False, t)]
            + [_arm_pstar(dataclasses.replace(cfg, p_adv=p), True, t) for p in p_advs]
            for t in range(cfg.iterations)
        ]
        for elements in (block_elements, 1):  # then one trial a block
            with (
                mock.patch.object(inference, "_BLOCK_ELEMENTS", elements),
                sim.collect_diagnostics() as record,
            ):
                assert sim._samples(cfg, p_advs, workers).tolist() == expect
            records.append(record)
    args = (cfg.n, cfg.m - 1, cfg.delta, cfg.p_s)
    counts = [matched_count_trial(*args, seed=cfg.seed, trial=t) for t in range(cfg.iterations)]
    for elements in (block_elements, 1):
        with (
            mock.patch.object(inference, "_BLOCK_ELEMENTS", elements),
            sim.collect_diagnostics() as record,
        ):
            got = mean_matched_count(*args, trials=cfg.iterations, seed=cfg.seed)
        assert got == float(np.mean(counts))
        records.append(record)
    assert records[0] == records[1] and records[2] == records[3]


def _row_lengths(cfg, p_advs):
    """(trials, peers): each transition row's candidate count in cfg's run."""
    h = _held_run(cfg, p_advs)
    _, _, lengths = inference._transition_rows(
        h.hashes, h.heard, h.peer_hashes, h.peer_channels, cfg.pruning_eps
    )
    return lengths


def test_explicit_block_runs_cover_what_they_claim():
    cfg, p_advs, block_elements, _ = _LONG_ROWS_RUN
    lengths = set(_row_lengths(cfg, p_advs).ravel().tolist())
    assert max(lengths) >= 8 and len(lengths) > 3
    per_block = block_elements // inference._use_elements(_held_run(cfg, p_advs), score=True)
    assert cfg.iterations % per_block != 0
    cfg, p_advs, block_elements, workers = _FAULTY_RUN
    assert 0 in _row_lengths(cfg, p_advs)
    per_block = block_elements // inference._use_elements(_held_run(cfg, p_advs), score=True)
    assert cfg.iterations % per_block != 0 and workers == 2
    faulty = _relay_faults_when_divisible_by_3(inference._relay_normalizers)
    with (
        mock.patch.object(inference, "_relay_normalizers", faulty),
        sim.collect_diagnostics() as record,
    ):
        sim._samples(cfg, p_advs)
    assert record.fallbacks["trellis"] > 0 and record.fallbacks["scoring"] > 0
    cfg, p_advs, block_elements, _ = _CRITERION_08_RUN
    matched = _matched(cfg)
    assert matched == dataclasses.replace(cfg, p_adv=0.0)
    held = _held_run(matched, [])
    per_block = block_elements // inference._use_elements(held, score=False)
    # the blocks find their candidates in the balls
    assert inference._pruning(held.peer_channels, cfg.n, cfg.delta, cfg.pruning_eps)[1] is not None
    assert 1 < per_block < cfg.iterations  # the run crosses block boundaries
    emptied = np.flatnonzero((_row_lengths(matched, []) == 0).any(axis=1))
    assert any(0 < t % per_block < per_block - 1 for t in emptied.tolist())  # mid-block
    with (
        mock.patch.object(inference, "_BLOCK_ELEMENTS", block_elements),
        sim.collect_diagnostics() as record,
    ):
        sim._samples(matched, [], score=False)
    assert record.forward["keyed"] > 0 and record.fallbacks["trellis"] == len(emptied)


def test_p_adv_sweep_workers_do_not_change_results():
    cfg = TwoHopConfig(m=3, n=6, delta=1, iterations=12, seed=8)
    values = [0.0, 0.2, 0.6]
    one = run_sweep(cfg, "p_adv", values, workers=1)
    two = run_sweep(cfg, "p_adv", values, workers=2)
    for (v1, st1), (v2, st2) in zip(one, two):
        assert v1 == v2
        assert st1.relay_samples.tolist() == st2.relay_samples.tolist()
        assert st1.adv_samples.tolist() == st2.adv_samples.tolist()


def test_trial_path_leaves_numpy_ma_unimported():
    # np.unique, and np.quantile through it, import numpy.ma, about 1.2 MiB of resident
    # set that the benchmark's peak_rss_mb would absorb without any other test failing:
    # not on the two-hop path, in a threshold's calibration or in a scenario
    script = (
        "import sys\n"
        "from algwatch import sim\n"
        "cfg = sim.TwoHopConfig(n=8, iterations=20, pruning_eps=0.5, hash_family='poly')\n"
        "sim.run_sweep(cfg, 'p_adv', [0.0, 0.2])\n"
        "sim.mean_matched_count(10, 3, 2, 0.1, trials=20)\n"
        "sim.calibrate_threshold(sim.TwoHopConfig(p_adv=0.0, iterations=50), 0.05, window=5)\n"
        "from algwatch import multihop\n"
        "multihop.mincut_scenario('one-honest-path', instances=1, policed_samples=3,\n"
        "                         calibration_iterations=50)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    _run_fresh(script)
