import math

import numpy as np
import pytest

from algwatch.channel import (
    Bsc,
    ball_radius,
    ball_volume,
    flip_bits,
    hamming,
    hamming_vec,
    log_likelihood,
    log_likelihood_vec,
    transmit,
)


def test_bsc_range():
    Bsc(0.0)
    Bsc(0.5)
    with pytest.raises(ValueError):
        Bsc(0.6)
    with pytest.raises(ValueError):
        Bsc(-0.1)


def test_transmit_noiseless_and_deterministic():
    ch = Bsc(0.0)
    rng = np.random.default_rng(0)
    assert all(transmit(ch, x, 10, rng) == x for x in (0, 5, 1023))
    noisy = Bsc(0.3)
    a = [transmit(noisy, 77, 10, np.random.default_rng(4)) for _ in range(5)]
    b = [transmit(noisy, 77, 10, np.random.default_rng(4)) for _ in range(5)]
    assert a == b


def test_transmit_flip_rate_half():
    ch = Bsc(0.5)
    rng = np.random.default_rng(12)
    trials, n = 100_000, 10
    flips = sum(hamming(0, transmit(ch, 0, n, rng)) for _ in range(trials))
    assert abs(flips / (trials * n) - 0.5) < 0.01


def test_transmit_distance_distribution_binomial():
    # chi-square of the empirical Hamming distance pmf against Binomial(10, 0.1)
    ch, n, trials = Bsc(0.1), 10, 5000
    rng = np.random.default_rng(99)
    counts = np.zeros(n + 1)
    for _ in range(trials):
        counts[hamming(0, transmit(ch, 0, n, rng))] += 1
    expected = np.array(
        [math.comb(n, k) * 0.1**k * 0.9 ** (n - k) * trials for k in range(n + 1)]
    )
    # merge the sparse tail so every cell expects at least ~5
    cut = int(np.argmax(np.cumsum(expected[::-1])[::-1] < 5.0))
    obs = np.append(counts[:cut], counts[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < 30.0


def test_flip_bits_extremes():
    rng = np.random.default_rng(0)
    assert flip_bits(37, 0.0, 10, rng) == 37
    assert flip_bits(37, 1.0, 10, rng) == 37 ^ 0b1111111111
    with pytest.raises(ValueError):
        flip_bits(0, 1.5, 10, rng)
    with pytest.raises(ValueError):
        flip_bits(0, 0.5, 64, rng)  # masks are int64


def _flip_bits_loop(x, p, n, rng):
    """Reference: set bit i of the mask for each draw i below p, one bit at a time."""
    mask = 0
    for i in np.flatnonzero(rng.random(n) < p):
        mask |= 1 << int(i)
    return x ^ mask


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_flip_bits_matches_per_bit_loop(p):
    for n in range(1, 17):
        for seed in range(20):
            x = (seed * 2654435761) % (1 << n)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert flip_bits(x, p, n, ours) == _flip_bits_loop(x, p, n, ref)
            assert ours.random() == ref.random()  # the same n draws were consumed


def test_likelihood_examples():
    ch = Bsc(0.1)
    assert math.exp(log_likelihood(ch, 5, 5, 4)) == pytest.approx(0.9**4)
    assert math.exp(log_likelihood(ch, 0b1111, 0b0000, 4)) == pytest.approx(1e-4)
    half = Bsc(0.5)
    for pair in ((0, 0), (3, 12), (9, 9)):
        assert math.exp(log_likelihood(half, *pair, 4)) == pytest.approx(2.0**-4)


def test_log_likelihood_degenerate_channel():
    ch = Bsc(0.0)
    assert log_likelihood(ch, 9, 9, 4) == 0.0
    assert log_likelihood(ch, 9, 8, 4) == -math.inf


def test_likelihood_sums_to_one():
    for p in (0.05, 0.2, 0.5):
        ch, n = Bsc(p), 6
        total = sum(math.exp(log_likelihood(ch, 41, y, n)) for y in range(1 << n))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5])
def test_log_likelihood_vec_is_log_likelihood_elementwise(p):
    ch, n = Bsc(p), 6
    cands = np.arange(1 << n)
    expect = [log_likelihood(ch, 41, int(y), n) for y in cands]
    assert log_likelihood_vec(ch, 41, cands, n).tolist() == expect


def test_ball_volume():
    assert ball_volume(7, 0) == 1
    assert ball_volume(7, 7) == 2**7
    assert ball_volume(4, 1) == 5
    with pytest.raises(ValueError):
        ball_volume(4, 5)
    for n in range(65):
        for r in range(n + 1):
            assert ball_volume(n, r) == sum(math.comb(n, k) for k in range(r + 1))


def test_ball_radius_examples():
    assert ball_radius(Bsc(0.1), 10, 0.05) == 3
    assert ball_radius(Bsc(0.0), 10, 0.3) == 0
    # when (1-p)^n already clears the bound the radius is zero
    assert ball_radius(Bsc(0.01), 4, 0.9) == 0
    with pytest.raises(ValueError):
        ball_radius(Bsc(0.1), 10, 0.0)
    # the pmf sums to 0.9999999999999999, short of 1 - 1e-17 = 1.0: no r reaches it, so n
    assert ball_radius(Bsc(0.3), 2, 1e-17) == 2


def test_ball_radius_monotone():
    n = 12
    for eps in (0.01, 0.1, 0.3):
        radii = [ball_radius(Bsc(p), n, eps) for p in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5)]
        assert radii == sorted(radii)
    for p in (0.05, 0.2, 0.45):
        radii = [ball_radius(Bsc(p), n, eps) for eps in (0.01, 0.05, 0.2, 0.5, 0.9)]
        assert radii == sorted(radii, reverse=True)


@pytest.mark.parametrize("x", [0, 1, 0x5A5A, 0xFFFF])
def test_hamming_vec_matches_hamming(x):
    ys = np.arange(1 << 16, dtype=np.int64)
    d = hamming_vec(x, ys)
    assert d.dtype == np.int64
    assert d.tolist() == [hamming(x, y) for y in range(1 << 16)]
