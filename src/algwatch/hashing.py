"""Hash families used to police payloads.

Two families of delta-bit hashes over n-bit symbols:

- ``affine``: h(x) = (a*x + b) mod 2^delta on the integer bit pattern,
  with a odd. Odd a makes every preimage class over the full n-bit space
  exactly 2^(n-delta) elements, which the detection analysis assumes.
  This is the family the experiments use.
- ``poly``: evaluate sum a_i x^i in GF(2^n) (``default_field(n)``) and
  keep the low delta bits.

delta = 0 is the empty hash: every input maps to 0. ``_draws`` is the one
rule for drawing a hash, from a generator or for a whole run of trials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gfield import MAX_WIDTH, default_field

FAMILIES = ("affine", "poly")


@dataclass(frozen=True)
class HashSpec:
    """Immutable description of one concrete hash function.

    coefficients is (a, b) for the affine family and (a_0, ..., a_d) for
    the poly family.
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
            if not self.coefficients:
                raise ValueError("poly family needs at least one coefficient")
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
    acc = 0
    f = default_field(spec.n)
    for c in reversed(spec.coefficients):
        acc = f.add(f.mul(acc, x), c)
    return acc & spec.mask


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
    f = default_field(n)
    acc = coeffs[:, -1:]
    for c in coeffs.T[-2::-1]:
        # Horner step: acc = acc*x + c, elementwise over every row (broadcast).
        acc = f.mul_elementwise(acc, xs) ^ c[:, None]
    return np.broadcast_to(acc, np.broadcast_shapes(acc.shape, xs.shape)) & mask


def _tables(family: str, n: int, delta: int, coeffs) -> np.ndarray:
    """Hash of every n-bit symbol under each row of coeffs, one row per hash.

    Made only for a question that reads a whole collision class: a
    transition row that scans the class, or a relay's normalizer. A row is
    2^n int64 values, 8 KiB at n = 10, while a ball-pruned trial reads about
    33 symbols there; ``_Hashes.at`` hashes just the symbols read when a
    block has no tables.
    """
    return _hash_rows(family, n, delta, coeffs, np.arange(1 << n, dtype=np.int64))


class _Hashes(NamedTuple):
    """The hashes of a block of uses, one per row, and their ``_tables`` when made."""

    family: str
    n: int
    delta: int
    coeffs: np.ndarray  # row k: use k's hash's coefficients
    tables: np.ndarray | None

    def at(self, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """xs[i] hashed under use rows[i]'s hash, for xs of 1 or 2 dimensions.

        Looked up in the tables when they are made, else computed.
        """
        if xs.ndim == 1:
            return self.at(rows, xs[:, None])[:, 0]
        if self.tables is not None:
            return self.tables.ravel()[rows[:, None] << self.n | xs]
        return _hash_rows(self.family, self.n, self.delta, self.coeffs[rows], xs)


@functools.lru_cache(maxsize=8)
def _table(spec: HashSpec) -> np.ndarray:
    """Read-only ``_tables`` row of one spec, cached for repeated lookups."""
    table = _tables(spec.family, spec.n, spec.delta, [spec.coefficients])[0]
    table.flags.writeable = False
    return table


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
    """Vectorized collision_list: a lookup into the spec's hash table."""
    if not 0 <= target < (1 << spec.delta):
        raise ValueError(f"target {target} is not a {spec.delta}-bit value")
    return np.flatnonzero(_table(spec) == target)


def hash_partition(spec: HashSpec) -> dict[int, np.ndarray]:
    """Map each delta-bit value in the hash's image to its preimage class."""
    table = _table(spec)
    return {int(t): np.flatnonzero(table == t) for t in np.unique(table)}
