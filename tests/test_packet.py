import numpy as np
import pytest

from algwatch.channel import hamming
from algwatch.hashing import HashSpec, hash_eval, sample_hash
from algwatch.packet import (
    corrupt_payload,
    destination_check,
    make_packet,
    search_corruption,
)


def _spec(n=4, delta=2):
    return HashSpec("affine", n, delta, (1, 0))


def test_make_packet_forwarding():
    pkt = make_packet({7: 9}, {7: 1}, _spec())
    assert pkt.payload == 9
    assert pkt.own_hash == hash_eval(_spec(), 9)
    assert pkt.input_hashes == {7: hash_eval(_spec(), 9)}


def test_make_packet_zero_inputs():
    pkt = make_packet({1: 0, 2: 0}, {1: 3, 2: 5}, _spec())
    assert pkt.payload == 0
    assert pkt.own_hash == hash_eval(_spec(), 0)


def test_make_packet_lincomb_example():
    pkt = make_packet({1: 8, 2: 1}, {1: 2, 2: 3}, _spec())
    assert pkt.payload == 0


def test_make_packet_validation():
    with pytest.raises(ValueError):
        make_packet({1: 2}, {2: 1}, _spec())
    with pytest.raises(ValueError):
        make_packet({1: 2}, {1: 0}, _spec())
    with pytest.raises(ValueError):
        make_packet({}, {}, _spec())


def test_corrupt_payload_null_rate():
    spec = HashSpec("affine", 10, 2, (1, 0))
    pkt = make_packet({1: 700}, {1: 1}, spec)
    assert corrupt_payload(pkt, 0.0, spec, np.random.default_rng(0)) == pkt


def test_corrupt_payload_keeps_hash_consistent():
    spec = HashSpec("affine", 10, 3, (5, 2))
    pkt = make_packet({1: 123, 2: 456}, {1: 3, 2: 9}, spec)
    rng = np.random.default_rng(1)
    for _ in range(50):
        out = corrupt_payload(pkt, 0.4, spec, rng)
        assert destination_check(out, spec)
        assert out.coeffs == pkt.coeffs and out.input_hashes == pkt.input_hashes


def test_corrupt_payload_mean_distance():
    # expected Hamming damage is n * p_adv = 10 * 0.1 = 1
    spec = HashSpec("affine", 10, 2, (1, 0))
    pkt = make_packet({1: 37}, {1: 1}, spec)
    rng = np.random.default_rng(8)
    trials = 100_000
    total = sum(
        hamming(pkt.payload, corrupt_payload(pkt, 0.1, spec, rng).payload)
        for _ in range(trials)
    )
    assert abs(total / trials - 1.0) < 0.05


def test_destination_check_catches_stale_hash():
    from dataclasses import replace

    ident = HashSpec("affine", 4, 4, (1, 0))
    pkt = make_packet({1: 5, 2: 2}, {1: 1, 2: 1}, ident)
    assert destination_check(pkt, ident)
    stale = replace(pkt, payload=pkt.payload ^ 0b0100)
    assert not destination_check(stale, ident)


def test_search_corruption_small_fields_only():
    spec = HashSpec("affine", 10, 2, (1, 0))
    pkt = make_packet({1: 3}, {1: 1}, spec)
    with pytest.raises(ValueError):
        search_corruption(pkt, spec, 0.1)


def test_search_corruption_stays_in_collision_class():
    spec = HashSpec("affine", 6, 2, (3, 1))
    pkt = make_packet({1: 20, 2: 33}, {1: 5, 2: 7}, spec)
    out = search_corruption(pkt, spec, 0.1)
    assert out.payload != pkt.payload
    assert destination_check(out, spec)
    # evasion keeps the announced hash equal to the honest one
    assert out.own_hash == pkt.own_hash
    # deterministic
    again = search_corruption(pkt, spec, 0.1)
    assert again == out


def test_search_corruption_injective_hash_falls_back():
    ident = HashSpec("affine", 4, 4, (1, 0))
    pkt = make_packet({1: 9}, {1: 1}, ident)
    out = search_corruption(pkt, ident, 0.2)
    assert out.payload != pkt.payload
    assert hamming(out.payload, pkt.payload) == 1
    assert destination_check(out, ident)


@pytest.mark.parametrize("p_overhear", [0.0, 1.0, -0.2])
def test_search_corruption_names_a_rate_outside_0_1(p_overhear):
    pkt = make_packet({1: 9}, {1: 1}, _spec())
    with pytest.raises(ValueError, match=r"^p_overhear must be in \(0, 1\)$"):
        search_corruption(pkt, _spec(), p_overhear)
