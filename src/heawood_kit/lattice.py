"""Weight-lattice coefficient vectors, signatures, and quotient classes.

Coefficient tuples (a_1, ..., a_{d+1}) act over the basis w_1, ..., w_{d+1},
where w_i is the ambient vector with d in slot i and -1 elsewhere.  The
relation w_1 + ... + w_{d+1} = 0 makes raw tuples ambiguous; the canonical
form subtracts the minimum so at least one entry is zero.

The sublattice of a signature k is spanned (in coefficients, modulo the
all-ones relation) by the rows of the banded matrix of that signature.  The
finitely many classes of the quotient are indexed by the fundamental
vectors: tuples with 0 <= a_i <= k_i and some a_i = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Callable, Sequence

from .intlin import (
    IntMatrix,
    InvalidSignature,
    SnfResult,
    build_mk,
    closed_form_dk,
    integer_span_contains,
    smith_normal_form,
)

REDUCTION_GUARD = 10**6

Reducer = Callable[[tuple[int, ...]], tuple[int, ...]]


class ReductionFailure(RuntimeError):
    """The entry-correction loop did not terminate within the guard."""


class NotInLattice(ValueError):
    """An ambient vector is not a weight-lattice element."""


class InfiniteQuotient(ValueError):
    """A generator matrix spans a sublattice of deficient rank."""


@dataclass(frozen=True)
class KSignature:
    """Parameter vector k = (k_1, ..., k_{d+1}).

    Strict signatures have length >= 3 and all entries positive; zeros are
    admitted only when delta=True, and every derived object carries the flag.
    """

    entries: tuple[int, ...]
    delta: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if len(self.entries) < 3:
            raise InvalidSignature("signature needs at least three entries")
        if any(x < 0 for x in self.entries):
            raise InvalidSignature("signature entries must be nonnegative")
        if not self.delta and any(x == 0 for x in self.entries):
            raise InvalidSignature("zero entries require delta mode")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> IntMatrix:
        return build_mk(self.entries)

    def order(self) -> int:
        return closed_form_dk(self.entries)

    def cyclic_shift(self, s: int) -> "KSignature":
        n = self.n
        s %= n
        return KSignature(self.entries[s:] + self.entries[:s], delta=self.delta)


def canonicalize(a: Sequence[int]) -> tuple[int, ...]:
    """Min-zero normal form of a coefficient tuple (mod the all-ones vector)."""
    m = min(a)
    return tuple(int(x) - m for x in a)


def w_vector(i: int, d: int) -> tuple[int, ...]:
    """Ambient vector of the i-th basis element (1-based index)."""
    if not 1 <= i <= d + 1:
        raise IndexError(f"index {i} out of range for d={d}")
    return tuple(d if j == i - 1 else -1 for j in range(d + 1))


def to_ambient(a: Sequence[int]) -> tuple[int, ...]:
    """Ambient coordinates of a coefficient tuple: (d+1)a_j - sum(a)."""
    n = len(a)
    total = sum(a)
    return tuple(n * x - total for x in a)


def from_ambient(v: Sequence[int]) -> tuple[int, ...]:
    """Canonical coefficient tuple of an ambient weight-lattice vector.

    Requires coordinate sum zero and all pairwise differences divisible by
    the coordinate count.
    """
    n = len(v)
    if sum(v) != 0:
        raise NotInLattice("coordinates do not sum to zero")
    m = min(v)
    shifted = [x - m for x in v]
    if any(x % n != 0 for x in shifted):
        raise NotInLattice("pairwise differences not divisible by d+1")
    return tuple(x // n for x in shifted)


def sublattice_contains(a: Sequence[int], k: KSignature) -> bool:
    """Does the class of a lie in the sublattice of signature k?

    The row sum of the banded matrix is the all-ones vector, so membership
    modulo all-ones coincides with plain integer-span membership.
    """
    return integer_span_contains(k.matrix(), tuple(a))


def reduce_to_fundamental(a: Sequence[int], k: KSignature) -> tuple[int, ...]:
    """Unique fundamental representative of the class of a.

    Phase one repeatedly scans the entries and pulls the first out-of-range
    one into [0, k_i] by adding an integer multiple of row i of the banded
    matrix.  Phase two subtracts min(a) many all-ones vectors so some entry
    becomes zero.  For delta-mode signatures the scan may not terminate, so
    those fall back to a table lookup keyed by the general canonical form.
    """
    if k.delta:
        return _delta_reducer(k)(tuple(int(x) for x in a))
    n = k.n
    kk = k.entries
    vec = list(a)
    if len(vec) != n:
        raise InvalidSignature("coefficient length does not match signature")
    for _ in range(REDUCTION_GUARD):
        for i in range(n):
            if not 0 <= vec[i] <= kk[i]:
                c = -(vec[i] // (kk[i] + 1))
                vec[i] += c * (kk[i] + 1)
                vec[(i + 1) % n] -= c * kk[(i + 1) % n]
                break
        else:
            break
    else:
        raise ReductionFailure("entry correction exceeded iteration guard")
    m = min(vec)
    rep = tuple(x - m for x in vec)
    return rep


def enumerate_fundamental(k: KSignature) -> list[tuple[int, ...]]:
    """All fundamental vectors of k in lexicographic order."""
    out = [
        a
        for a in product(*(range(x + 1) for x in k.entries))
        if min(a) == 0
    ]
    return out


def _quotient_smith_form(rows: IntMatrix) -> SnfResult:
    """Smith form of the rows plus an all-ones row; raises when infinite."""
    n = rows.cols
    snf = smith_normal_form(IntMatrix.from_rows(rows.row_list() + [(1,) * n]))
    diag = snf.diagonal()
    if len(diag) < n or any(x == 0 for x in diag):
        raise InfiniteQuotient("generators span a proper sublattice subspace")
    return snf


def quotient_order_general(rows: IntMatrix) -> int:
    """Order of Z^n / (row span + all-ones line).

    Computed as the product of the nonzero diagonal of the Smith form of
    the matrix augmented with an all-ones row.
    """
    return prod(_quotient_smith_form(rows).diagonal())


def smith_reduction(rows: IntMatrix) -> tuple[Reducer, list[tuple[int, ...]]]:
    """Canonical representative map for Z^n mod (row span + all-ones line).

    Works for any finite quotient, including delta-mode and general census
    matrices.  Reduction happens in Smith coordinates: z = a @ v is reduced
    entrywise mod the diagonal, then mapped back through v^{-1} and min-zero
    normalized.  Equal outputs iff equal classes.  The classes, listed
    second and sorted, are the images of the box 0 <= z_j < diag_j.
    """
    n = rows.cols
    snf = _quotient_smith_form(rows)
    diag, v, v_inv = snf.diagonal(), snf.v, snf.v_inv

    def from_smith(z: Sequence[int]) -> tuple[int, ...]:
        return canonicalize(
            [sum(z[i] * v_inv[i, j] for i in range(n)) for j in range(n)]
        )

    def reduce_class(a: tuple[int, ...]) -> tuple[int, ...]:
        return from_smith(
            [sum(a[i] * v[i, j] for i in range(n)) % diag[j] for j in range(n)]
        )

    classes = sorted(from_smith(z) for z in product(*(range(x) for x in diag)))
    return reduce_class, classes


def class_canonicalizer(rows: IntMatrix) -> Reducer:
    """The representative map of ``smith_reduction`` on its own."""
    return smith_reduction(rows)[0]


def signature_reducer(k: KSignature) -> Reducer:
    """``reduce_to_fundamental`` for k, with any delta-mode table built once."""
    if k.delta:
        return _delta_reducer(k)
    return lambda a: reduce_to_fundamental(a, k)


@dataclass(frozen=True)
class LatticeClass:
    """A class of the quotient, carried by its fundamental representative."""

    rep: tuple[int, ...]
    signature: KSignature = field(compare=False)

    def __post_init__(self) -> None:
        kk = self.signature.entries
        ok = (
            len(self.rep) == len(kk)
            and all(0 <= r <= x for r, x in zip(self.rep, kk))
            and 0 in self.rep
        )
        if not ok:
            raise InvalidSignature("representative is not a fundamental vector")


def _delta_reducer(k: KSignature) -> Reducer:
    """Map general canonical classes onto fundamental vectors for delta k."""
    general = class_canonicalizer(k.matrix())
    table = {general(f): f for f in enumerate_fundamental(k)}
    if len(table) != len(enumerate_fundamental(k)):
        raise ReductionFailure("fundamental vectors collide in delta mode")

    def reduce_class(a: tuple[int, ...]) -> tuple[int, ...]:
        key = general(a)
        try:
            return table[key]
        except KeyError:
            raise ReductionFailure("class without fundamental representative") from None

    return reduce_class
