import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatch import hashing
from algwatch.gfield import default_field
from algwatch.hashing import (
    FAMILIES,
    HashSpec,
    collision_class,
    collision_list,
    hash_eval,
    hash_eval_vec,
    hash_partition,
    sample_hash,
)


def test_affine_eval_examples():
    # (3*6 + 1) mod 4 = 19 mod 4 = 3
    assert hash_eval(HashSpec("affine", 4, 2, (3, 1)), 6) == 3
    # identity map at delta = n
    ident = HashSpec("affine", 4, 4, (1, 0))
    assert all(hash_eval(ident, x) == x for x in range(16))
    # empty hash
    zero = HashSpec("affine", 4, 0, (1, 0))
    assert all(hash_eval(zero, x) == 0 for x in range(16))


def test_poly_eval_matches_field_arithmetic():
    f = default_field(4)
    spec = HashSpec("poly", 4, 3, (5, 9))
    for x in range(16):
        assert hash_eval(spec, x) == (f.add(5, f.mul(9, x))) & 0b111


def test_eval_vec_matches_scalar():
    rng = np.random.default_rng(0)
    xs = np.arange(1 << 6)
    for _ in range(5):
        for family in ("affine", "poly"):
            spec = sample_hash(rng, family, 6, 2)
            assert hash_eval_vec(spec, xs).tolist() == [hash_eval(spec, int(x)) for x in xs]


def test_spec_validation():
    with pytest.raises(ValueError):
        HashSpec("affine", 4, 2, (2, 1))  # even multiplier
    with pytest.raises(ValueError):
        HashSpec("affine", 4, 5, (1, 0))  # delta > n
    with pytest.raises(ValueError):
        HashSpec("poly", 4, 2, ())  # no coefficient
    with pytest.raises(ValueError):
        HashSpec("poly", 4, 2, (1, 16))  # coefficient outside GF(2^4)
    for n in (0, 17):
        with pytest.raises(ValueError):
            HashSpec("affine", n, 0, (1, 0))  # no GF(2^n) to code over
    with pytest.raises(ValueError):
        hash_eval(HashSpec("affine", 4, 2, (1, 0)), 16)  # symbol too wide


def test_sample_determinism():
    a = sample_hash(np.random.default_rng(7), "affine", 10, 2)
    b = sample_hash(np.random.default_rng(7), "affine", 10, 2)
    assert a == b


def test_sample_delta_zero_is_constant():
    spec = sample_hash(np.random.default_rng(1), "affine", 8, 0)
    assert all(hash_eval(spec, x) == 0 for x in range(256))


def test_sampled_affine_classes_are_balanced():
    # every preimage class over the full 10-bit space has 2^(10-2) members
    for seed in range(10):
        spec = sample_hash(np.random.default_rng(seed), "affine", 10, 2)
        part = hash_partition(spec)
        assert sorted(part) == [0, 1, 2, 3]
        assert all(len(v) == 1 << 8 for v in part.values())


def test_collision_list_examples():
    ident = HashSpec("affine", 4, 4, (1, 0))
    assert collision_list(ident, 11) == [11]
    zero = HashSpec("affine", 4, 0, (1, 0))
    assert collision_list(zero, 0) == list(range(16))
    spec = HashSpec("affine", 4, 2, (1, 0))
    assert collision_list(spec, 2) == [2, 6, 10, 14]
    with pytest.raises(ValueError):
        collision_list(spec, 4)
    # a constant poly hash is not onto: the other classes are empty
    const = HashSpec("poly", 4, 2, (3,))
    assert collision_list(const, 3) == list(range(16))
    assert collision_list(const, 0) == []


def test_collision_class_matches_list():
    rng = np.random.default_rng(5)
    for family in ("affine", "poly"):
        spec = sample_hash(rng, family, 6, 2)
        for t in range(4):
            assert collision_class(spec, t).tolist() == collision_list(spec, t)


@st.composite
def _class_queries(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family, delta = draw(st.sampled_from(FAMILIES)), draw(st.integers(0, n))
    if family == "affine":
        spec = sample_hash(rng, family, n, delta)
    else:  # degrees 0 to 3, not only the drawn hashes' degree
        coefficients = rng.integers(0, 1 << n, draw(st.integers(1, 4)))
        spec = HashSpec(family, n, delta, tuple(coefficients.tolist()))
    targets = draw(st.lists(st.integers(0, (1 << spec.delta) - 1), min_size=1, max_size=4))
    return spec, targets


@settings(max_examples=300, deadline=None)
@given(_class_queries())
def test_table_collision_class_matches_list(query):
    spec, targets = query
    for t in targets:
        cls = collision_class(spec, t)
        assert cls.dtype == np.int64
        assert cls.tolist() == collision_list(spec, t)
    for t in (-1, 1 << spec.delta):
        with pytest.raises(ValueError):
            collision_class(spec, t)


def test_hash_table_is_read_only():
    spec = sample_hash(np.random.default_rng(3), "poly", 6, 2)
    table = hashing._table(spec)
    assert table.tolist() == [hash_eval(spec, x) for x in range(64)]
    with pytest.raises(ValueError):
        table[0] ^= 1
    # what callers get back is their own array, never a view of the table
    cls = collision_class(spec, int(table[0]))
    cls[0] = -1
    assert collision_class(spec, int(table[0]))[0] != -1


def test_partition_property():
    # classes are disjoint and their union is the n-bit space, both families
    rng = np.random.default_rng(9)
    for family in ("affine", "poly"):
        spec = sample_hash(rng, family, 8, 3)
        part = hash_partition(spec)
        seen = np.concatenate(list(part.values()))
        assert len(seen) == 256
        assert sorted(seen.tolist()) == list(range(256))


def test_equal_specs_share_one_table():
    # the poly field follows from n, so a spec is its values alone
    a, b = (HashSpec("poly", 6, 3, (5, 9)) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert hashing._table(a) is hashing._table(b)
