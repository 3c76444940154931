"""GF(2^n) arithmetic for payload symbols and coding coefficients.

Field elements are plain ints in [0, 2^n). Bit i of the int is the
coefficient of x^i in the polynomial basis, so addition is XOR and
multiplication is carry-less polynomial multiplication reduced modulo the
one fixed primitive polynomial of degree n in ``REDUCTION_POLYS``. Widths
are capped at 16 because the watchdog trellis enumerates up to 2^n states.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_WIDTH = 16

# One primitive polynomial per supported width, bit i = coefficient of x^i.
# Fixing one polynomial per width keeps runs reproducible.
REDUCTION_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b1_0011,              # x^4 + x + 1
    5: 0b10_0101,
    6: 0b100_0011,
    7: 0b1000_1001,
    8: 0b1_0001_1101,         # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b10_0001_0001,
    10: 0b100_0000_1001,      # x^10 + x^3 + 1
    11: 0b1000_0000_0101,
    12: 0b1_0000_0101_0011,
    13: 0b10_0000_0001_1011,
    14: 0b100_0100_0100_0011,
    15: 0b1000_0000_0000_0011,
    16: 0b1_0001_0000_0000_1011,  # x^16 + x^12 + x^3 + x + 1
}


class GF2n:
    """Arithmetic over GF(2^n), n <= 16, modulo ``REDUCTION_POLYS[n]``.

    Products go through log/antilog tables built once at construction.
    Instances are immutable after construction and all operations are pure,
    so a single instance can be shared freely across threads or processes.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_WIDTH:
            raise ValueError(f"n must be in [1, {MAX_WIDTH}], got {n}")
        self.n = n
        self.order = 1 << n
        self.poly = REDUCTION_POLYS[n]
        # Powers of x by shift-and-reduce; x must generate the multiplicative
        # group, i.e. first return to 1 after exactly order - 1 steps.
        size = self.order - 1
        exp = [0] * (2 * size)
        log = [0] * self.order
        v = 1
        for i in range(size):
            exp[i] = exp[i + size] = v
            log[v] = i
            v <<= 1
            if v >> n:
                v ^= self.poly
        if v != 1 or 1 in exp[1:size]:
            raise ValueError(f"x does not generate GF(2^{n})* modulo 0b{self.poly:b}")
        self._exp, self._log = exp, log
        # Array tables for products of arrays: 0's log is 2 * size, past every sum of two
        # nonzero logs, and the antilog table is 0 from there on, so a product with 0 is 0.
        self._exp_np = np.array(exp + [0] * (2 * size + 1), dtype=np.int64)
        self._log_np = np.array([2 * size, *log[1:]], dtype=np.int64)

    def _check(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise ValueError(f"{v} is not a GF(2^{self.n}) element")

    def add(self, a: int, b: int) -> int:
        """a + b, i.e. bitwise XOR. Every element is its own negative."""
        self._check(a)
        self._check(b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced modulo the reduction polynomial."""
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def mul_vec(self, a: int, xs: np.ndarray) -> np.ndarray:
        """Product of the scalar a with every element of xs (``mul_elementwise``)."""
        self._check(a)
        return self.mul_elementwise(np.full(len(xs), a), xs)

    def mul_elementwise(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Elementwise field product of two arrays, broadcast against each other."""
        return self._exp_np[self._log_np[us] + self._log_np[vs]]

    def lincomb(self, coeffs, symbols) -> int:
        """Sum of coeff*symbol over paired lists."""
        coeffs = list(coeffs)
        symbols = list(symbols)
        if not coeffs or len(coeffs) != len(symbols):
            raise ValueError("coeffs and symbols must be equal-length, nonempty")
        acc = 0
        for c, x in zip(coeffs, symbols):
            acc ^= self.mul(c, x)
        return acc

    def __repr__(self) -> str:
        return f"GF2n(n={self.n}, poly=0b{self.poly:b})"


@functools.lru_cache(maxsize=MAX_WIDTH)
def default_field(n: int) -> GF2n:
    """Shared GF(2^n) instance with the table polynomial for width n."""
    return GF2n(n)
