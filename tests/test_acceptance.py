"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them live) and then asserts. Criteria with stated runtime budgets measure
and enforce them.
"""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from algwatch.analysis import (
    TwoHopGeometry,
    algebraic_check,
    binary_entropy,
    matched_count_expected,
    misdetection_probability,
)
from algwatch.channel import Bsc, ball_radius, ball_volume, transmit
from algwatch.gfield import GF2n, default_field
from algwatch.hashing import hash_eval, hash_partition, sample_hash
from algwatch.inference import build_and_run_trellis, consistency_probability
from algwatch.multihop import mincut_scenario
from algwatch.sim import (
    TwoHopConfig,
    brute_force_consistency,
    mean_matched_count,
    run_experiment,
    run_sweep,
    run_trial,
    simulate_observation,
)

SEED = 0


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


# --- criterion 1: trellis p* equals brute-force enumeration ----------------


def test_01_trellis_matches_brute_force_enumeration():
    t0 = time.monotonic()
    worst = 0.0
    cells = 0
    for n, m, delta, p in itertools.product((4, 5, 6), (2, 3), (0, 1, 2), (0.05, 0.1, 0.3)):
        cfg = TwoHopConfig(
            m=m, n=n, delta=delta, p_s=p, p_relay=p, p_adv=0.3, iterations=1, seed=SEED
        )
        for trial in range(200):
            obs = simulate_observation(cfg, trial % 2 == 1, trial)
            p_trellis = consistency_probability(build_and_run_trellis(obs), obs)
            p_brute = brute_force_consistency(obs)
            worst = max(worst, abs(p_trellis - p_brute) / max(abs(p_brute), 1e-300))
        cells += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, "oracle equivalence", ok,
            f"max rel err {worst:.2e} over {cells * 200} instances in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


# --- criteria 2 + 3 share the main operating-point sweep -------------------


@pytest.fixture(scope="module")
def padv_sweep():
    base = TwoHopConfig(
        m=3, n=10, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.1,
        iterations=1000, seed=SEED,
    )
    t0 = time.monotonic()
    rows = run_sweep(base, "p_adv", [0.1, 0.2, 0.3, 0.4, 0.5])
    return rows, time.monotonic() - t0


def test_02_separation_grows_with_injection_rate(padv_sweep):
    rows, elapsed = padv_sweep
    below = all(st.mean_p_adv < st.mean_p_relay for _, st in rows)
    gaps = [st.separation for _, st in rows]
    monotone = all(b >= a for a, b in zip(gaps, gaps[1:]))
    ok = below and monotone and elapsed < 300.0
    _report(2, "honest/adversarial separation", ok,
            f"gaps {['%.4f' % g for g in gaps]}, sweep ran {elapsed:.0f}s")
    assert below, "mean p*_adv must stay below mean p*_relay at every injection rate"
    assert monotone, f"separation must be non-decreasing in p_adv, got {gaps}"
    assert elapsed < 300.0


def test_03_variance_levels_and_trend(padv_sweep):
    rows, _ = padv_sweep
    stats = dict(rows)
    var_relay = [st.var_relay for st in stats.values()]
    relay_in_band = all(0.12 <= v <= 0.24 for v in var_relay)
    adv_at_half = stats[0.5].var_adv
    adv_in_band = 0.03 <= adv_at_half <= 0.13
    trend = stats[0.5].var_adv < stats[0.1].var_adv
    ok = relay_in_band and adv_in_band and trend
    _report(
        3, "variance levels and trend", ok,
        f"var_relay {['%.4f' % v for v in var_relay]} (band [0.12, 0.24]), "
        f"var_adv(0.5) {adv_at_half:.4f} (band [0.03, 0.13]), "
        f"var_adv(0.5) < var_adv(0.1): {trend}",
    )
    assert trend, "var_adv must shrink as the injection rate grows"
    assert relay_in_band, f"var_relay outside 0.18 +/- 0.06: {var_relay}"
    assert adv_in_band, f"var_adv(0.5) outside 0.08 +/- 0.05: {adv_at_half}"


# --- criterion 4: hash-length sweep still separates at delta = 0 -----------


def test_04_separation_positive_at_every_hash_length():
    base = TwoHopConfig(
        m=3, n=10, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.3,
        iterations=1000, seed=SEED,
    )
    rows = run_sweep(base, "delta", [0, 1, 2, 4])
    seps = {d: st.separation for d, st in rows}
    ok = all(s > 0 for s in seps.values())
    _report(4, "separation across hash lengths", ok,
            " ".join(f"delta={d}:{s:.5f}" for d, s in seps.items()))
    assert ok, f"separation must be positive at every delta, got {seps}"


# --- criterion 5: degradation with worse overhearing and more sources ------


def sign_test_pvalue(diffs) -> float:
    """Exact one-sided sign test p-value on paired differences.

    Tests the null that positive and negative differences are equally
    likely against positive differences dominating; ties are discarded.
    """
    pos = sum(1 for d in diffs if d > 0)
    total = pos + sum(1 for d in diffs if d < 0)
    tail = sum(math.comb(total, j) for j in range(pos, total + 1))
    return tail / 2.0**total


def test_sign_test_pvalue():
    assert sign_test_pvalue([1, 1, 1, 1, 1]) == pytest.approx(1 / 32)
    assert sign_test_pvalue([-1, -1, -1]) == pytest.approx(1.0)
    assert sign_test_pvalue([]) == 1.0
    assert sign_test_pvalue([1, -1]) == pytest.approx(0.75)
    # ties are discarded
    assert sign_test_pvalue([0, 0, 1]) == pytest.approx(0.5)


def test_05_separation_shrinks_with_p_s_and_m():
    base = TwoHopConfig(
        m=3, n=10, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.1,
        iterations=1000, seed=SEED,
    )
    ps_rows = run_sweep(base, "p_s", [0.05, 0.1, 0.2, 0.3, 0.4])
    m_rows = run_sweep(base, "m", [2, 3, 4, 5])
    ps_seps = [st.separation for _, st in ps_rows]
    m_seps = [st.separation for _, st in m_rows]
    diffs = [a - b for a, b in zip(ps_seps, ps_seps[1:])]
    diffs += [a - b for a, b in zip(m_seps, m_seps[1:])]
    strict = all(d > 0 for d in diffs)
    pvalue = sign_test_pvalue(diffs)
    ok = strict and pvalue < 0.05
    _report(5, "degradation with p_s and m", ok,
            f"p_s seps {['%.5f' % s for s in ps_seps]}, "
            f"m seps {['%.5f' % s for s in m_seps]}, sign test p={pvalue:.4f}")
    assert strict, f"separation must strictly shrink along both sweeps: {ps_seps} / {m_seps}"
    assert pvalue < 0.05


# --- criterion 6: false-detection bound of the ball-intersection check -----


def test_06_false_detection_bounded_by_radius_budget():
    n, p, eps, trials = 10, 0.1, 0.05, 10_000
    field = default_field(n)
    ch = Bsc(p)
    r = ball_radius(ch, n, eps)
    rng = np.random.default_rng(SEED)
    passes = 0
    for _ in range(trials):
        spec = sample_hash(rng, "affine", n, 2)
        x1, x2 = (int(v) for v in rng.integers(0, field.order, size=2))
        coeffs = tuple(1 + int(v) for v in rng.integers(0, field.order - 1, size=2))
        x3 = field.lincomb(coeffs, [x1, x2])
        peer = (transmit(ch, x2, n, rng), hash_eval(spec, x2))
        relay = (transmit(ch, x3, n, rng), hash_eval(spec, x3))
        passes += algebraic_check(x1, coeffs, peer, relay, (r, r), spec)
    freq = passes / trials
    ok = freq >= 0.90
    _report(6, "false-detection bound", ok,
            f"honest pass frequency {freq:.4f} >= 0.90 at radius {r} (eps {eps})")
    assert ok, f"honest pass frequency {freq} below 1 - 2*eps budget"


# --- criterion 7: closed-form evaluators against exact rationals -----------


def test_07_misdetection_evaluator_exact():
    # no-overhearing reduction: both source radii at n collapse to C-sums / 8^h
    reduction_ok = True
    for n in (4, 10, 16):
        for h in (0, 1, 3, 6):
            for r in range(n + 1):
                g = TwoHopGeometry(n, h, n, n, r, n)
                expect = min(1.0, sum(math.comb(n, k) for k in range(r + 1)) / 8.0**h)
                reduction_ok &= misdetection_probability(g) == expect

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
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
        got = misdetection_probability(g)
        scale = max(float(exact), 1e-300)
        worst = max(worst, abs(got - float(exact)) / scale)
    ok = reduction_ok and worst <= 1e-12
    _report(7, "misdetection evaluator exactness", ok,
            f"no-overhearing reduction exact: {reduction_ok}, "
            f"max rel err vs rationals {worst:.2e}")
    assert reduction_ok
    assert worst <= 1e-12


# --- criterion 8: expected matched-codeword count order check --------------


def test_08_matched_count_order():
    peers, n, delta, p = 3, 10, 2, 0.1
    expected = matched_count_expected(n, peers, delta, [p] * (peers + 1))
    # independent pin of the evaluator value at this point
    h = binary_entropy(p)
    assert expected == pytest.approx(2.0 ** (n * (4 * h - 1) - peers * delta), rel=1e-12)
    assert expected == pytest.approx(6.77, abs=0.01)
    empirical = mean_matched_count(n, peers, delta, p, trials=1000, seed=SEED)
    ratio = empirical / expected
    ok = 0.25 <= ratio <= 4.0
    _report(8, "matched-codeword count order", ok,
            f"empirical mean {empirical:.2f} vs expected {expected:.2f} (ratio {ratio:.2f})")
    assert ok, f"empirical mean {empirical} not within 4x of {expected}"


# --- criterion 9: corollary scenarios ---------------------------------------


def test_09_corollary_scenarios():
    honest_path = mincut_scenario(
        "one-honest-path", seed=SEED, instances=40, policed_samples=50,
        p_adv=0.5, gamma=0.05, window=25,
    )
    parents = mincut_scenario("all-parents-malicious", seed=SEED)
    children = mincut_scenario("all-children-malicious", seed=SEED)
    detect_ok = honest_path.detection_frequency > 0.9
    parents_ok = (
        parents.corrupted_delivered
        and not parents.honest_watcher_exists
        and not parents.detected
    )
    children_ok = (
        children.corrupted_delivered
        and not children.honest_watcher_exists
        and not children.detected
    )
    ok = detect_ok and parents_ok and children_ok
    _report(9, "min-cut corollary scenarios", ok,
            f"one-honest-path detection freq {honest_path.detection_frequency:.2f}, "
            f"colluding parents undetected: {parents_ok}, "
            f"colluding children undetected: {children_ok}")
    assert detect_ok, f"detection frequency {honest_path.detection_frequency} <= 0.9"
    assert parents_ok
    assert children_ok


# --- criterion 10: invariant suites -----------------------------------------


def test_10_invariant_suites():
    t0 = time.monotonic()

    # field axioms, exhaustive for n <= 6
    axioms_ok = True
    for n in range(1, 7):
        f = GF2n(n)
        elems = range(f.order)
        for a in elems:
            for b in elems:
                axioms_ok &= f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    axioms_ok &= f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    axioms_ok &= f.mul(a, b ^ c) == (f.mul(a, b) ^ f.mul(a, c))
        for a in range(1, f.order):
            axioms_ok &= any(f.mul(a, b) == 1 for b in range(1, f.order))

    # hash partition property across families and widths
    partition_ok = True
    rng = np.random.default_rng(SEED)
    for family in ("affine", "poly"):
        for n, delta in ((6, 0), (8, 2), (10, 3)):
            part = hash_partition(sample_hash(rng, family, n, delta))
            members = np.concatenate(list(part.values()))
            partition_ok &= len(members) == 1 << n
            partition_ok &= sorted(members.tolist()) == list(range(1 << n))

    # transition-row normalization and layer-mass conservation
    mass_ok = True
    for trial in range(60):
        cfg = TwoHopConfig(m=4, n=8, delta=2, p_s=0.2, p_relay=0.2, seed=SEED + 1)
        obs = simulate_observation(cfg, trial % 2 == 1, trial)
        trellis = build_and_run_trellis(obs)
        for layer in trellis.layers:
            mass_ok &= abs(sum(layer.values()) - 1.0) < 1e-9

    # seed determinism
    cfg = TwoHopConfig(m=3, n=10, delta=2, iterations=40, seed=SEED + 2)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    determinism_ok = (
        a.relay_samples.tolist() == b.relay_samples.tolist()
        and a.adv_samples.tolist() == b.adv_samples.tolist()
    )

    # null-adversary equivalence, exact
    null_cfg = TwoHopConfig(m=3, n=10, delta=2, p_adv=0.0, iterations=40, seed=SEED + 3)
    null_ok = [run_trial(null_cfg, False, t) for t in range(40)] == [
        run_trial(null_cfg, True, t) for t in range(40)
    ]

    elapsed = time.monotonic() - t0
    ok = axioms_ok and partition_ok and mass_ok and determinism_ok and null_ok and elapsed < 120
    _report(10, "invariant suites", ok,
            f"field axioms {axioms_ok}, hash partition {partition_ok}, "
            f"layer mass {mass_ok}, determinism {determinism_ok}, "
            f"null adversary {null_ok}, {elapsed:.0f}s")
    assert axioms_ok
    assert partition_ok
    assert mass_ok
    assert determinism_ok
    assert null_ok
    assert elapsed < 120.0
