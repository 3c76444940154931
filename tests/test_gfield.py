import numpy as np
import pytest

from algwatch.gfield import MAX_WIDTH, GF2n, REDUCTION_POLYS, default_field


def _reference_mul(a, b, n):
    """Carry-less multiply, then reduce modulo the width's polynomial bit by bit."""
    prod = 0
    for i in range(n):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(2 * n - 2, n - 1, -1):
        if (prod >> bit) & 1:
            prod ^= REDUCTION_POLYS[n] << (bit - n)
    return prod


def test_add_is_xor():
    f = GF2n(4)
    assert f.add(0b1010, 0b0110) == 0b1100
    for a in range(16):
        assert f.add(a, a) == 0
        assert f.add(a, 0) == a


def test_mul_identities():
    f = GF2n(4)
    for a in range(16):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_mul_hand_reduction():
    # x * x^3 = x^4 = x + 1 under x^4 + x + 1
    f = GF2n(4)
    assert f.mul(0b0010, 0b1000) == 0b0011


def test_lincomb():
    f = GF2n(4)
    assert f.lincomb([1], [9]) == 9
    assert f.lincomb([0, 0], [3, 7]) == 0
    assert f.lincomb([2, 3], [8, 1]) == 0  # 2*8 = 3, 3*1 = 3, 3 ^ 3 = 0


def test_lincomb_rejects_bad_lists():
    f = GF2n(4)
    with pytest.raises(ValueError):
        f.lincomb([], [])
    with pytest.raises(ValueError):
        f.lincomb([1, 2], [3])


def test_out_of_range_elements_rejected():
    f = GF2n(4)
    with pytest.raises(ValueError):
        f.add(16, 0)
    with pytest.raises(ValueError):
        f.mul(3, -1)


def test_bad_polynomials_rejected():
    for n in (0, 17):
        with pytest.raises(ValueError):
            GF2n(n)


@pytest.mark.parametrize("poly", [0b1_1111, 0b1_0001])  # x has order 5; x^4 + 1 is reducible
def test_a_polynomial_x_does_not_generate_is_rejected(monkeypatch, poly):
    monkeypatch.setitem(REDUCTION_POLYS, 4, poly)
    with pytest.raises(ValueError, match=rf"^x does not generate GF\(2\^4\)\* modulo 0b{poly:b}$"):
        GF2n(4)


def test_repr_names_width_and_polynomial():
    assert repr(default_field(4)) == "GF2n(n=4, poly=0b10011)"


def test_table_polynomials_all_valid():
    # x generates every multiplicative group, so each width, n = 1 included,
    # multiplies through log tables
    for n in range(1, MAX_WIDTH + 1):
        f = GF2n(n)
        assert f.order == 1 << n
        assert f.poly >> n == 1
        assert sorted(f._exp[: f.order - 1]) == list(range(1, f.order))


@pytest.mark.parametrize("n", range(1, MAX_WIDTH + 1))
def test_products_match_reference(n):
    # every pair for n <= 6, random pairs above
    f = GF2n(n)
    if n <= 6:
        scalars = range(f.order)
        xs = np.arange(f.order)
    else:
        rng = np.random.default_rng(n)
        scalars = [0, 1, *rng.integers(2, f.order, size=6).tolist()]
        xs = rng.integers(0, f.order, size=64)
    for a in scalars:
        expect = [_reference_mul(a, int(x), n) for x in xs]
        assert [f.mul(a, int(x)) for x in xs] == expect
        assert f.mul_vec(a, xs).tolist() == expect
        assert f.mul_elementwise(np.full(len(xs), a), xs).tolist() == expect


def test_field_axioms_small():
    f = GF2n(4)
    elems = range(16)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in (0, 1, 7, 13):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_every_nonzero_element_invertible():
    f = GF2n(4)
    for a in range(1, 16):
        assert any(f.mul(a, b) == 1 for b in range(1, 16))


def test_mul_by_constant_is_bijection():
    f = GF2n(6)
    for a in (1, 5, 33, 63):
        image = {f.mul(a, x) for x in range(64)}
        assert image == set(range(64))


def test_vector_ops_match_scalar():
    rng = np.random.default_rng(3)
    for n in (4, 10):
        f = default_field(n)
        xs = rng.integers(0, f.order, size=50)
        for a in (0, 1, int(rng.integers(1, f.order))):
            assert [f.mul(a, int(x)) for x in xs] == f.mul_vec(a, xs).tolist()
        ys = rng.integers(0, f.order, size=50)
        expect = [f.mul(int(x), int(y)) for x, y in zip(xs, ys)]
        assert expect == f.mul_elementwise(xs, ys).tolist()


def test_default_field_cached():
    assert default_field(10) is default_field(10)
