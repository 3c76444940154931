import math
from fractions import Fraction

import numpy as np
import pytest

from algwatch.analysis import (
    TwoHopGeometry,
    algebraic_check,
    binary_entropy,
    geometry_from_eps,
    matched_count_expected,
    matched_count_exponent_eps,
    misdetection_probability,
    undetected_prob_peer,
    undetected_prob_watchdog,
)
from algwatch.channel import Bsc, ball_radius, ball_volume, transmit
from algwatch.gfield import default_field
from algwatch.hashing import HashSpec, hash_eval, sample_hash


def _h01_series():
    # H(0.1) from the log series ln(1/(1-x)) = sum x^k / k, independent of log2
    ln_inv_09 = sum(0.1**k / k for k in range(1, 40))
    ln_10 = math.log(10)  # anchor; the series for ln is about the 0.9 term
    return (0.1 * ln_10 + 0.9 * ln_inv_09) / math.log(2)


def test_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(_h01_series(), abs=1e-12)
    assert binary_entropy(0.1) == pytest.approx(0.46899559358928)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_geometry_validation():
    with pytest.raises(ValueError):
        TwoHopGeometry(4, 2, 5, 0, 0, 0)
    with pytest.raises(ValueError):
        TwoHopGeometry(4, -1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="^n must be >= 1"):
        TwoHopGeometry(0, 2, 0, 0, 0, 0)


def test_misdetection_zero_radii_no_hash():
    for n in (4, 8, 12):
        g = TwoHopGeometry(n, 0, 0, 0, 0, 0)
        assert undetected_prob_watchdog(g) == pytest.approx(4.0**-n)
        assert undetected_prob_peer(g) == pytest.approx(4.0**-n)


def test_misdetection_hand_reduced():
    # all radii maximal: (2^4/2^6)^2 * (2^4/2^2) = 0.25
    g = TwoHopGeometry(4, 2, 4, 4, 4, 4)
    assert undetected_prob_watchdog(g) == pytest.approx(0.25)
    assert undetected_prob_peer(g) == pytest.approx(0.25)
    assert misdetection_probability(g) == pytest.approx(0.25)


def test_misdetection_monotone_in_radii():
    base = TwoHopGeometry(6, 2, 2, 2, 2, 2)
    b0 = undetected_prob_watchdog(base)
    for field_name in ("peer_hears_watchdog", "watchdog_hears_peer", "watchdog_hears_relay"):
        import dataclasses

        grown = dataclasses.replace(base, **{field_name: 4})
        assert undetected_prob_watchdog(grown) >= b0


def test_misdetection_is_min_of_perspectives():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        g = TwoHopGeometry(
            n,
            int(rng.integers(0, 9)),
            *(int(rng.integers(0, n + 1)) for _ in range(4)),
        )
        assert misdetection_probability(g) == pytest.approx(
            min(undetected_prob_watchdog(g), undetected_prob_peer(g))
        )


def test_no_overhearing_reduction_exact():
    # with both source radii maxed the bound reduces to sum(C(n,k)) / 8^h
    for n in (4, 10, 16):
        for h in (0, 1, 2, 5):
            for r in range(0, n + 1, 2):
                g = TwoHopGeometry(n, h, n, n, r, n)
                expect = min(1.0, sum(math.comb(n, k) for k in range(r + 1)) / 8.0**h)
                assert misdetection_probability(g) == expect


def test_misdetection_matches_exact_rationals():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        n = int(rng.integers(1, 17))
        h = int(rng.integers(0, 13))
        radii = [int(rng.integers(0, n + 1)) for _ in range(4)]
        g = TwoHopGeometry(n, h, *radii)
        exact = min(
            Fraction(1),
            Fraction(ball_volume(n, radii[0]), 1 << (h + n))
            * Fraction(ball_volume(n, radii[1]), 1 << (h + n))
            * Fraction(ball_volume(n, min(radii[2], radii[3])), 1 << h),
        )
        assert misdetection_probability(g) == pytest.approx(float(exact), rel=1e-12)


def test_matched_count_uniform_channel():
    # H(0.5) = 1 everywhere, delta = 0: full ambiguity, 2^(n*m)
    for n, m in ((4, 1), (6, 2), (10, 3)):
        got = matched_count_expected(n, m, 0, [0.5] * (m + 1))
        assert got == pytest.approx(2.0 ** (n * m))


def test_matched_count_quiet_channels():
    got = matched_count_expected(10, 3, 2, [1e-12] * 4)
    assert got < 2.0**-15  # unique matched codeword regime


def test_matched_count_operating_point():
    h = _h01_series()
    expect = 2.0 ** (10 * (4 * h - 1) - 6)
    got = matched_count_expected(10, 3, 2, [0.1] * 4)
    assert got == pytest.approx(expect, rel=1e-9)
    assert got == pytest.approx(6.77, abs=0.01)


def test_matched_count_validation():
    with pytest.raises(ValueError):
        matched_count_expected(10, 3, 2, [0.1] * 3)


@pytest.mark.parametrize("evaluator", [matched_count_expected, matched_count_exponent_eps])
def test_matched_count_evaluators_check_peers_and_rates(evaluator):
    with pytest.raises(ValueError, match="^m must be >= 1"):
        evaluator(10, 0, 2, [0.1])
    for bad in (-0.1, 0.7):
        with pytest.raises(ValueError, match=rf"must be in \[0, 0.5\], got {bad}"):
            evaluator(10, 3, 2, [0.1, 0.1, bad, 0.1])
    evaluator(10, 3, 2, [0.0, 0.5, 0.1, 0.1])  # the range's ends are accepted


@pytest.mark.parametrize("evaluator", [matched_count_expected, matched_count_exponent_eps])
@pytest.mark.parametrize("n", [0, -3])
def test_matched_count_evaluators_check_the_symbol_width(evaluator, n):
    with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
        evaluator(n, 3, 2, [0.1] * 4)
    evaluator(1, 3, 2, [0.1] * 4)  # the smallest width is accepted


def test_exponent_eps_form_matches():
    # delta = eps * n: both forms agree
    n, m, delta = 10, 3, 2
    eps = delta / n
    exponent = matched_count_exponent_eps(n, m, eps, [0.1] * (m + 1))
    assert 2.0**exponent == pytest.approx(matched_count_expected(n, m, delta, [0.1] * 4))


def _honest_two_hop(rng, spec, field, p=0.1):
    n = field.n
    x1, x2 = (int(v) for v in rng.integers(0, field.order, size=2))
    a = tuple(1 + int(v) for v in rng.integers(0, field.order - 1, size=2))
    x3 = field.lincomb(a, [x1, x2])
    ch = Bsc(p)
    x2t = transmit(ch, x2, n, rng)
    x3t = transmit(ch, x3, n, rng)
    return x1, a, (x2t, hash_eval(spec, x2)), (x3t, hash_eval(spec, x3)), x2, x3


def test_algebraic_check_noiseless_honest_passes():
    field = default_field(10)
    rng = np.random.default_rng(5)
    spec = sample_hash(rng, "affine", 10, 2)
    x1, a, _, _, x2, x3 = _honest_two_hop(rng, spec, field, p=0.1)
    assert algebraic_check(
        x1, a, (x2, hash_eval(spec, x2)), (x3, hash_eval(spec, x3)), (0, 0), spec
    )


def test_algebraic_check_detects_with_injective_hash():
    field = default_field(10)
    ident = HashSpec("affine", 10, 10, (1, 0))
    rng = np.random.default_rng(6)
    x1, x2 = 5, 700
    a = (3, 9)
    x3 = field.lincomb(a, [x1, x2]) ^ 0b1  # corrupted payload, consistent hash
    assert not algebraic_check(
        x1, a, (x2, hash_eval(ident, x2)), (x3, hash_eval(ident, x3)), (0, 0), ident
    )


def test_algebraic_check_false_detection_bounded():
    # honest chain with radii at eps=0.05 passes at least 1 - 2*eps of the time
    field = default_field(10)
    rng = np.random.default_rng(7)
    r = ball_radius(Bsc(0.1), 10, 0.05)
    passes = 0
    trials = 1500
    for _ in range(trials):
        spec = sample_hash(rng, "affine", 10, 2)
        x1, a, peer, relay, _, _ = _honest_two_hop(rng, spec, field)
        passes += algebraic_check(x1, a, peer, relay, (r, r), spec)
    assert passes / trials >= 0.90


def _misdetect_freq(n, delta, trials, seed, p=0.1, p_adv=0.3, radius=None):
    """Frequency at which the ball check passes a corrupted transmission."""
    field = default_field(n)
    rng = np.random.default_rng(seed)
    ch = Bsc(p)
    r = ball_radius(ch, n, 0.05) if radius is None else radius
    passes = 0
    for _ in range(trials):
        spec = sample_hash(rng, "poly", n, delta)
        x1, x2 = (int(v) for v in rng.integers(0, field.order, size=2))
        a = tuple(1 + int(v) for v in rng.integers(0, field.order - 1, size=2))
        x3 = field.lincomb(a, [x1, x2])
        corrupted = x3
        while corrupted == x3:
            corrupted = int(
                x3 ^ sum(1 << i for i in np.flatnonzero(rng.random(n) < p_adv))
            )
        peer = (transmit(ch, x2, n, rng), hash_eval(spec, x2))
        relay = (transmit(ch, corrupted, n, rng), hash_eval(spec, corrupted))
        passes += algebraic_check(x1, a, peer, relay, (r, r), spec)
    return passes / trials


def test_misdetection_frequency_shrinks_with_hash():
    by_hash = [_misdetect_freq(10, d, trials=500, seed=11) for d in (0, 2, 4)]
    assert by_hash == sorted(by_hash, reverse=True)
    assert by_hash[0] > by_hash[-1]


def test_misdetection_bound_shrinks_with_width_at_small_radius():
    # the width trend needs the ball volume to lose to the 2^n dilution:
    # at a small fixed radius the bound falls steadily as n grows
    values = [
        misdetection_probability(TwoHopGeometry(n, 2, 1, 1, 1, 1))
        for n in (8, 12, 16)
    ]
    assert values == sorted(values, reverse=True)
    assert values[0] > 10 * values[-1]


def test_undetected_bounds_cap_at_one_beyond_float_range():
    # every ball is the whole space: the ratio is 2^(3n - 3h - 2n) = 2^1094, beyond a float
    g = TwoHopGeometry(1100, 2, 1100, 1100, 1100, 1100)
    assert undetected_prob_watchdog(g) == undetected_prob_peer(g) == 1.0
    assert misdetection_probability(g) == 1.0


def test_geometry_from_eps_composes_ball_radius():
    g = geometry_from_eps(10, 2, 0.05, Bsc(0.1), Bsc(0.2))
    assert g.watchdog_hears_peer == ball_radius(Bsc(0.1), 10, 0.05)
    assert g.peer_hears_watchdog == g.watchdog_hears_peer
    assert g.watchdog_hears_relay == ball_radius(Bsc(0.2), 10, 0.05)
