"""Hash families used to police payloads.

Two families of delta-bit hashes over n-bit symbols:

- ``affine``: h(x) = (a*x + b) mod 2^delta on the integer bit pattern,
  with a odd. Odd a makes every preimage class over the full n-bit space
  exactly 2^(n-delta) elements, which the detection analysis assumes.
  This is the family the experiments use.
- ``poly``: evaluate a_0 + a_1 x in GF(2^n) (``default_field(n)``) and
  keep the low delta bits.

delta = 0 is the empty hash: every input maps to 0. ``_draws`` is the one
rule for drawing a hash, from a generator or for a whole run of trials.

Both families are beta(L(x)), L GF(2)-linear and beta a bijection
(``_class_keys``), so each collision class is a coset of ker L, which
``_classes`` enumerates without hashing the whole n-bit space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gfield import MAX_WIDTH, default_field

FAMILIES = ("affine", "poly")


@dataclass(frozen=True)
class HashSpec:
    """Immutable description of one concrete hash function.

    coefficients is (a, b) for the affine family and (a_0, a_1) for the
    poly family.
    """

    family: str
    n: int
    delta: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown hash family {self.family!r}")
        if not 1 <= self.n <= MAX_WIDTH:  # n is also the width of the run's field
            raise ValueError(f"symbol width must be in [1, {MAX_WIDTH}], got {self.n}")
        if not 0 <= self.delta <= self.n:
            raise ValueError("delta must be in [0, n]")
        if self.family == "affine":
            if len(self.coefficients) != 2:
                raise ValueError("affine family takes coefficients (a, b)")
            a, b = self.coefficients
            if self.delta > 0 and a % 2 == 0:
                raise ValueError("affine multiplier a must be odd")
            if not (0 <= a < max(2, 1 << self.delta) and 0 <= b < max(1, 1 << self.delta)):
                raise ValueError("affine coefficients must be delta-bit values")
        else:
            if len(self.coefficients) != 2:
                raise ValueError("poly family takes coefficients (a_0, a_1)")
            if any(not 0 <= c < (1 << self.n) for c in self.coefficients):
                raise ValueError("poly coefficients must be n-bit field elements")

    @property
    def mask(self) -> int:
        return (1 << self.delta) - 1


def hash_eval(spec: HashSpec, x: int) -> int:
    """Hash of one symbol; a delta-bit value."""
    if not 0 <= x < (1 << spec.n):
        raise ValueError(f"{x} is not an {spec.n}-bit symbol")
    if spec.family == "affine":
        a, b = spec.coefficients
        return (a * x + b) & spec.mask
    a_0, a_1 = spec.coefficients
    return (default_field(spec.n).mul(a_1, x) ^ a_0) & spec.mask


def hash_eval_vec(spec: HashSpec, xs: np.ndarray) -> np.ndarray:
    """Vectorized hash_eval over an array of symbols."""
    return _hash_rows(spec.family, spec.n, spec.delta, [spec.coefficients], xs)[0]


def _hash_rows(family: str, n: int, delta: int, coeffs, xs) -> np.ndarray:
    """Row k hashes symbols under coeffs[k]: every symbol of a 1-D xs, or row k of a 2-D xs.

    coeffs[k] is the ``coefficients`` of a family hash of n-bit symbols to
    delta bits; each row is what hash_eval gives symbol by symbol. A 1-D xs
    gives a (len(coeffs), len(xs)) array, a 2-D xs an array of its shape.
    """
    coeffs, xs = np.asarray(coeffs, dtype=np.int64), np.asarray(xs, dtype=np.int64)
    mask = (1 << delta) - 1
    if family == "affine":
        return (coeffs[:, :1] * xs + coeffs[:, 1:]) & mask
    return (default_field(n).mul_elementwise(coeffs[:, 1:], xs) ^ coeffs[:, :1]) & mask


class _Hashes(NamedTuple):
    """The hashes of a block of uses, one per row."""

    family: str
    n: int
    delta: int
    coeffs: np.ndarray  # row k: use k's hash's coefficients

    def at(self, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """xs[i] hashed under use rows[i]'s hash, for xs of 1 or 2 dimensions."""
        if xs.ndim == 1:
            return self.at(rows, xs[:, None])[:, 0]
        return _hash_rows(self.family, self.n, self.delta, self.coeffs[rows], xs)


def _spec_hashes(spec: HashSpec) -> _Hashes:
    """spec as the hashes of a one-use block."""
    return _Hashes(spec.family, spec.n, spec.delta, np.array([spec.coefficients]))


def _class_keys(hashes: _Hashes, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every use's (key multiplier, keys): the classes of the values in its row of targets.

    Every hash is beta(L(x)), L(x) the low delta bits of lam * x in GF(2^n)
    (GF(2)-linear) and beta a bijection: the affine hash has lam = 1,
    beta(c) = a c + b (a odd, inverted mod 2^delta by Newton's iteration,
    which doubles the correct low bits of a^-1 from a's own 3), and the poly
    hash a_0 + a_1 x lam = a_1, beta(c) = c ^ a_0. keys[k, j] is
    beta^-1(targets[k, j]). Where lam = 0 (a_1 = 0) every symbol is in
    class 0, and so is every key.
    """
    family, _, delta, coeffs = hashes
    mask = (1 << delta) - 1
    if family == "affine":
        (a, b), lam = coeffs.T[:, :, None], np.ones(len(coeffs), np.int64)
        inverse, bits = a, 3  # a * a = 1 mod 8 for odd a
        while bits < delta:
            inverse, bits = inverse * (2 - a * inverse) & mask, 2 * bits
        return lam, (targets - b) * inverse & mask
    lam, keys = coeffs[:, 1], (targets ^ coeffs[:, :1]) & mask
    keys[lam == 0] = 0
    return lam, keys


def _key_of(lam, xs: np.ndarray, n: int, mask: int) -> np.ndarray:
    """L(x) for each x of xs: the low bits (mask) of lam * x in GF(2^n), lam broadcast.

    Where every lam is 1 (every affine hash) lam * x is x, and no field
    multiply runs.
    """
    if not np.count_nonzero(lam != 1):
        return xs & mask
    return default_field(n).mul_elementwise(lam, xs) & mask


def _classes(hashes: _Hashes, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collision classes of a batch: target (k, j) under use k's hash, as cosets.

    Returns (item, symbol) pairs, item indexing ``targets.ravel()``, in item
    order and ascending symbol order within an item. The class of key c
    (``_class_keys``) is lam^-1 {c, c + 2^delta, c + 2 * 2^delta, ...}:
    affine classes (lam = 1) come out ascending, and poly ones are sorted
    by the keys ``item << n | symbol``. A poly hash with a_1 = 0 is the
    constant a_0: its class is the whole space or nothing.
    """
    family, n, delta, coeffs = hashes
    lam, keys = _class_keys(hashes, targets)
    items = np.arange(targets.size)
    coset = keys.reshape(-1, 1) | np.arange(1 << (n - delta)) << delta
    if family == "affine":
        return np.repeat(items, coset.shape[1]), coset.ravel()
    f, lam = default_field(n), np.repeat(lam, targets.shape[1])
    live = lam != 0
    inverse = f._exp_np[f.order - 1 - f._log_np[lam[live]]]  # lam^-1 from the log tables
    constant = (coeffs[:, :1] & (1 << delta) - 1) == targets
    whole = np.flatnonzero(~live & constant.ravel())
    found = np.sort(np.concatenate((
        (items[live, None] << n | f.mul_elementwise(inverse[:, None], coset[live])).ravel(),
        (whole[:, None] << n | np.arange(1 << n)).ravel(),
    )))
    return found >> n, found & (1 << n) - 1


def _draws(family: str, n: int, delta: int) -> tuple[list, list, list]:
    """(ranges, scale, shift): coefficient i is scale[i] * integers(0, ranges[i]) + shift[i].

    A range of 1 takes no random word, so the empty affine hash (1, 0) at
    delta = 0 takes none.
    """
    if family == "affine":
        return [max(1, 1 << delta >> 1), 1 << delta], [2, 1], [1, 0]
    if family == "poly":  # a_0 + a_1 x
        return [1 << n] * 2, [1, 1], [0, 0]
    raise ValueError(f"unknown hash family {family!r}")


def sample_hash(rng, family: str, n: int, delta: int) -> HashSpec:
    """Draw a hash uniformly from the admissible set of the family, as ``_draws`` says.

    For the affine family the multiplier is uniform over odd delta-bit
    residues (a=1 when delta=0) and the offset uniform over delta-bit
    values. For the poly family, both coefficients of a_0 + a_1 x are
    drawn uniformly from GF(2^n).
    """
    if not 0 <= delta <= n:
        raise ValueError("delta must be in [0, n]")
    ranges, scale, shift = _draws(family, n, delta)
    coefficients = rng.integers(0, np.array(ranges)) * scale + shift
    return HashSpec(family, n, delta, tuple(coefficients.tolist()))


def collision_list(spec: HashSpec, target: int) -> list[int]:
    """All n-bit symbols hashing to ``target``, ascending, one hash at a time.

    An empty list is a valid result: a poly hash need not be onto.
    """
    if not 0 <= target < (1 << spec.delta):
        raise ValueError(f"target {target} is not a {spec.delta}-bit value")
    return [y for y in range(1 << spec.n) if hash_eval(spec, y) == target]


def collision_class(spec: HashSpec, target: int) -> np.ndarray:
    """Vectorized collision_list: the target's coset (``_classes``)."""
    if not 0 <= target < (1 << spec.delta):
        raise ValueError(f"target {target} is not a {spec.delta}-bit value")
    return _classes(_spec_hashes(spec), np.array([[target]]))[1]


def hash_partition(spec: HashSpec) -> dict[int, np.ndarray]:
    """Map each delta-bit value in the hash's image to its preimage class."""
    return {t: cls for t in range(1 << spec.delta) if len(cls := collision_class(spec, t))}
