"""Weight-lattice coefficient vectors, signatures, and quotient classes.

Coefficient tuples (a_1, ..., a_{d+1}) act over the basis w_1, ..., w_{d+1},
where w_i is the ambient vector with d in slot i and -1 elsewhere.  The
relation w_1 + ... + w_{d+1} = 0 makes raw tuples ambiguous; the canonical
form subtracts the minimum so at least one entry is zero.

The sublattice of a signature k is spanned (in coefficients, modulo the
all-ones relation) by the rows of the banded matrix of that signature.  The
finitely many classes of the quotient are indexed by the fundamental
vectors: tuples with 0 <= a_i <= k_i and some a_i = 0.  Zero entries are
plain input; the lattice alone decides whether such a quotient is
degenerate or has a torus.  ``ClassIndex`` names the class of any tuple
by its Hermite key, its reduced vector modulo the Hermite basis of the
sublattice, for signatures and general matrices alike, and answers every
other lattice question of the quotient from the same basis: the class
tables of translations, whether it is a degenerate quotient or a
triangulated torus, which coordinate rotations keep it and whether its
rows span all ones.  A signature keeps its index per object, as
``KSignature.index``, made with its Hermite basis alone: the fundamental
vectors are listed on the first read of its classes, so the order of any
signature is read without them; ``k.index.classes`` lists them, and
``k.index.rep(a)`` is the one in the class of a.  ``to_ambient`` takes
coefficients to ambient coordinates; a tiling point goes back by the
exact division of ``QuotientGraph.number_of``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product, repeat
from math import prod
from operator import add, floordiv, mod, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .intlin import (
    Frozen,
    IntMatrix,
    InvalidSignature,
    ShapeError,
    build_mk,
    closed_form_dk,
    hermite_add,
    hermite_basis,
    hermite_reduce,
)

if TYPE_CHECKING:
    from .quotient import _TilePass


class InfiniteQuotient(ValueError):
    """A generator matrix spans a sublattice of deficient rank."""


class NotATransversal(ValueError):
    """Class representatives that repeat a class or miss one."""


class KSignature(Frozen):
    """Parameter vector k = (k_1, ..., k_{d+1}): at least three entries,
    all nonnegative; zero entries are plain input.

    The ``index`` of a signature is made on first use and kept per
    object, so the builders and reductions that read one signature object
    share one Hermite basis and one tile pass; equal but distinct objects
    each make their own, and a caller that reduces many points passes one
    object.
    """

    _fields = ("entries",)

    # delta is ignored: zero entries need no flag, but older callers pass it
    def __init__(self, entries: Sequence[int], delta: bool = False) -> None:
        entries = tuple(int(x) for x in entries)
        if len(entries) < 3:
            raise InvalidSignature("signature needs at least three entries")
        if any(x < 0 for x in entries):
            raise InvalidSignature("signature entries must be nonnegative")
        object.__setattr__(self, "entries", entries)

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

    @cached_property
    def index(self) -> "ClassIndex":
        """Class index of the signature, its classes the fundamental
        vectors.  Making it makes the Hermite basis alone; the vectors are
        listed on the first read of its ``classes``."""
        return ClassIndex(self.matrix(), _fundamental(self.entries))


def canonicalize(a: Sequence[int]) -> tuple[int, ...]:
    """Min-zero normal form of a coefficient tuple (mod the all-ones vector)."""
    m = min(a)
    return tuple(int(x) - m for x in a)


def to_ambient(a: Sequence[int]) -> tuple[int, ...]:
    """Ambient coordinates of a coefficient tuple: (d+1)a_j - sum(a)."""
    n = len(a)
    total = sum(a)
    return tuple(n * x - total for x in a)


def ambient_columns(classes: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """``to_ambient`` of every class, one list per coordinate j: the column
    of a_j times n minus the column of the sums, in whole-list steps."""
    n = len(classes[0])
    totals = list(map(sum, classes))
    return [list(map(sub, map(n.__mul__, column), totals)) for column in zip(*classes)]


def combine_columns(
    coefficients: Sequence[int], columns: Sequence[Sequence[int]], size: int
) -> Iterator[int]:
    """The sum of c_i times column i, entry by entry over ``size`` entries,
    made lazily and skipping the zero coefficients."""
    total: Iterator[int] = repeat(0, size)
    for c, column in zip(coefficients, columns):
        if c:
            total = map(add, total, map(c.__mul__, column))
    return total


def _fundamental(entries: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The fundamental vectors of a signature's entries, listed lazily:
    nothing, not even the ranges of the box, is made before the first
    one is read."""
    for a in product(*(range(x + 1) for x in entries)):
        if 0 in a:
            yield a


def quotient_order_general(rows: IntMatrix) -> int:
    """Order of Z^n / (row span + all-ones line), as ``ClassIndex`` reads it."""
    return ClassIndex(rows).order


class ClassIndex:
    """Hermite keys of the classes of Z^n / (row span + all-ones line).

    The Hermite basis of [rows; 1] has a pivot h_j in every column, and
    their product is the ``order``; with fewer than n pivots the quotient
    is infinite.  Reducing a vector modulo the basis brings each entry
    into [0, h_j), and two vectors share a class exactly when they reduce
    alike, so the key of a class is its reduced vector at the kept
    columns, those with h_j > 1; the others reduce to 0.  A basis row
    is 0 in every later column with pivot 1, so the rows with pivot 1
    come off whole: a kept entry of the reduced vector is one dot product
    with a ``columns`` vector, followed by the carries of the kept rows
    among the kept columns, kept in ``_carries``.  On a cyclic quotient
    the key is one dot product and one mod.  The classes are listed by
    representative, on first use, so that the order can be read and
    refused before any work in it: the given ones, which must hit every
    class once and are checked on the first read of ``position``, or else
    the sorted min-zero vectors of the box 0 <= a_j < h_j, one reduced
    vector per class.  The generator ``rows`` are kept: a vector lies in
    the sublattice exactly when its key is all zeros.  One basis answers
    every lattice question of a quotient: the class of a point (``key``),
    the class table of a translation (``mapped``), the short vectors that
    rule out a torus (``short_vector``), the unit vectors that make it
    degenerate (``unit_vector``), the rotations that keep the lattice
    (``admits_rotation``, ``least_rotation``), and, from the basis of the
    rows alone before all ones is added, whether the rows span all ones
    (``all_ones_in_span``: all ones reduces to zero).  The index also
    keeps the quotient's ``tile_pass``, so the graph and the torus built
    from one index share it.  A matrix narrower than three columns raises
    ``ShapeError``, since the tiling has dimension d >= 2, and an
    infinite quotient ``InfiniteQuotient``.
    """

    def __init__(
        self, rows: IntMatrix, classes: Optional[Iterable[tuple[int, ...]]] = None
    ) -> None:
        n = rows.cols
        if n < 3:
            raise ShapeError(
                f"generator matrix has {n} columns; the tiling needs d + 1 >= 3"
            )
        basis = hermite_basis(rows.row_list(), n)
        ones = (1,) * n
        self.all_ones_in_span = not any(hermite_reduce(basis, ones))
        hermite_add(basis, ones)
        if None in basis:
            raise InfiniteQuotient("generators span a proper sublattice subspace")
        self.rows = rows
        self.pivots = tuple(b[j] for j, b in enumerate(basis))
        kept = [j for j, h in enumerate(self.pivots) if h > 1]
        self.moduli = tuple(self.pivots[j] for j in kept)
        self.order = prod(self.moduli)
        self.columns = [
            tuple(
                -b[j] if h == 1 else int(i == j)
                for i, (h, b) in enumerate(zip(self.pivots, basis))
            )
            for j in kept
        ]
        # the entries of the earlier kept rows in each kept column, or none
        carries = [[basis[i][j] for i in kept[:c]] for c, j in enumerate(kept)]
        self._carries = [c if any(c) else () for c in carries]
        self._given = classes

    @cached_property
    def classes(self) -> list[tuple[int, ...]]:
        if self._given is not None:
            return list(map(tuple, self._given))
        return sorted(map(canonicalize, product(*map(range, self.pivots))))

    def _carried(self, columns: Sequence[Iterable[int]]) -> Iterator[tuple[int, ...]]:
        """The keys of vectors given by their dot products with ``columns``,
        one iterable per kept column, made column by column: the quotients
        of the earlier kept columns are carried into each, which is then
        taken mod its pivot."""
        ys: list[list[int]] = []
        for y, carries in zip(columns, self._carries):
            for earlier, h, b in zip(ys, self.moduli, carries):
                if b:
                    y = map(sub, y, map(b.__mul__, map(floordiv, earlier, repeat(h))))
            ys.append(list(y))
        return zip(*(map(mod, y, repeat(h)) for y, h in zip(ys, self.moduli)))

    @cached_property
    def keys(self) -> list[tuple[int, ...]]:
        """The ``key`` of each listed class, made column by column: each
        dot product is one whole-list sum over the coordinate columns of
        all D classes.  An order-1 quotient keeps no column, so its one
        class has the empty key."""
        size = len(self.classes)
        if not self.moduli:
            return [()] * size
        coordinates = list(zip(*self.classes))
        return list(self._carried(
            [combine_columns(col, coordinates, size) for col in self.columns]
        ))

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        position = {z: i for i, z in enumerate(self.keys)}
        if len(position) != len(self.classes) or len(self.classes) != self.order:
            raise NotATransversal(
                f"{len(self.classes)} representatives hit {len(position)}"
                f" of {self.order} classes"
            )
        return position

    @cached_property
    def tile_pass(self) -> _TilePass:
        """The one pass over the tiles of the quotient, ``quotient._tile_pass``.

        Whichever builder reads it first makes it, and the others read the
        kept one.  It holds no reference back to the index, so keeping it
        forms no reference cycle.  A degenerate quotient raises here, and
        nothing is kept.
        """
        from .quotient import _tile_pass

        return _tile_pass(self)

    def key(self, a: Sequence[int]) -> tuple[int, ...]:
        """The reduced vector of a at the kept columns: its class, through
        ``_carried``.  A vector of another length raises ``ShapeError``."""
        if len(a) != self.rows.cols:
            raise ShapeError(
                f"vector of length {len(a)} for a lattice of {self.rows.cols} columns"
            )
        return next(self._carried([[sum(map(mul, a, col))] for col in self.columns]), ())

    def rep(self, a: Sequence[int]) -> tuple[int, ...]:
        """The listed representative of the class of a."""
        return self.classes[self.position[self.key(a)]]

    def short_vector(self) -> Optional[tuple[int, ...]]:
        """A sublattice vector in {-1,0,1}^n off the all-ones line, or None.

        Such a vector v is p - q for the 0/1 vectors p = max(v, 0) and
        q = max(-v, 0), neither of them all ones, so the scan over the 0/1
        vectors stops at the first one whose class an earlier one has,
        after at most D + 1 keys.  All ones, listed last, shares the class
        of zero: the scan ends there when there is no such vector.  The
        quotient is a triangulated torus exactly when there is none.
        """
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for p in product((0, 1), repeat=self.rows.cols):
            q = seen.setdefault(self.key(p), p)
            if q != p:
                return tuple(map(sub, p, q)) if 0 in p else None

    def unit_vector(self) -> Optional[tuple[int, ...]]:
        """A unit vector e_j in the sublattice when d = 2, or None.

        Two neighbours of a tiling vertex differ by an ambient vector with
        coordinates in -2..2, and they meet in the quotient only when it is
        a lattice vector, its coordinates all congruent mod d + 1.  For
        d >= 3 none is; for d = 2 those differences are ±amb(e_j).  So the
        quotient is degenerate, some vertex having fewer than d + 1
        distinct neighbours, exactly when there is such a vector.
        """
        n = self.rows.cols
        if n != 3:
            return None
        units = (tuple(int(i == j) for i in range(n)) for j in range(n))
        return next((e for e in units if not any(self.key(e))), None)

    def admits_rotation(self, shift: int) -> bool:
        """Does rotating coordinates by shift map the lattice to itself?

        It does when every rotated generator row has the zero key; the
        image then has the same finite index, so it is the lattice.
        """
        return not any(
            any(self.key(r[-shift:] + r[:-shift])) for r in self.rows.row_list()
        )

    def least_rotation(self) -> int:
        """Least shift s >= 1 whose coordinate rotation keeps the lattice.

        The shifts that keep it form a subgroup of Z/n, so they are the
        multiples of the least one, which divides n; shift n always counts.
        """
        n = self.rows.cols
        return next(s for s in range(1, n + 1) if self.admits_rotation(s))

    def mapped(self, z: Sequence[int]) -> list[int]:
        """Position of the class of a + b for each listed class a.

        ``z`` is the key of b.  The key of a + b is key(a) + z with the
        carries of ``_carried``, taken one column at a time over all the
        keys: on a cyclic quotient, one add and one mod per class.
        """
        if not self.moduli:
            return [0]
        sums = [map(add, column, repeat(y)) for column, y in zip(zip(*self.keys), z)]
        return list(map(self.position.__getitem__, self._carried(sums)))
