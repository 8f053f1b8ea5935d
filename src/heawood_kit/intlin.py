"""Exact integer linear algebra.

Small dense matrices over Z with arbitrary-precision entries: the
Hermite basis of a row span, grown one row at a time and kept reduced,
the banded matrix of a signature and its closed-form determinant, and
the parser of matrix literals such as '2,0,-1;0,2,-1;-1,-1,3'.
Everything here is exact; no floats.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class InvalidSignature(ValueError):
    """A parameter vector k fails its validity requirements."""


class Frozen:
    """Immutable value: the subclass sets its fields once, in ``__init__``.

    Equality, hashing and the repr go over the ``_fields`` the subclass
    names, in that order; assignment and deletion raise ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class IntMatrix(Frozen):
    """Immutable row-major integer matrix."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != rows * cols:
            raise ShapeError("entry count does not match rows x cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]


def parse_matrix_arg(text: str) -> IntMatrix:
    """Parse a semicolon/comma matrix literal like '2,0,-1;0,2,-1;-1,-1,3'."""
    rows = [[int(v) for v in row.split(",")] for row in text.split(";") if row.strip()]
    return IntMatrix.from_rows(rows)


def build_mk(k: Sequence[int]) -> IntMatrix:
    """Banded circulant-like matrix of a signature k.

    Row i carries k_i+1 on the diagonal and -k_{i+1} one step to the right,
    wrapping in the last row.  The row sum is always the all-ones vector.
    """
    k = tuple(int(x) for x in k)
    n = len(k)
    if n < 2:
        raise InvalidSignature("signature needs at least two entries")
    if any(x < 0 for x in k):
        raise InvalidSignature("signature entries must be nonnegative")
    rows = []
    for i in range(n):
        r = [0] * n
        r[i] = k[i] + 1
        r[(i + 1) % n] -= k[(i + 1) % n]
        rows.append(r)
    return IntMatrix.from_rows(rows)


def closed_form_dk(k: Sequence[int]) -> int:
    """Product of (k_i+1) minus product of k_i."""
    a = b = 1
    for x in k:
        a *= x + 1
        b *= x
    return a - b


HermiteBasis = list[Optional[list[int]]]


def hermite_basis(rows: Iterable[Sequence[int]], width: int) -> HermiteBasis:
    """Hermite basis of the integer span of rows of the given width.

    Slot j holds the basis row whose pivot, its first nonzero entry, lies
    in column j and is positive, or None when no row does.  Each entry of
    a basis row in a later pivot column lies in [0, that pivot), so the
    basis of a span is unique and, once its rank is the width, no entry
    reaches the product of the pivots (Domich, Kannan & Trotter 1987).
    """
    basis: HermiteBasis = [None] * width
    for row in rows:
        hermite_add(basis, row)
    return basis


def hermite_add(basis: HermiteBasis, row: Sequence[int]) -> None:
    """Add a row to the span of a Hermite basis, in place.

    The row meets the pivots from left to right.  At a pivot column,
    Euclid's algorithm on the row and the basis row clears the row there,
    and both are reduced again modulo the pivots to their right; a row
    left nonzero at a column with no pivot becomes the basis row there.
    Last, every basis row is reduced modulo the pivots to its right, which
    the new or smaller pivots may have left out of range.
    """
    row: Optional[list[int]] = list(row)
    for j, b in enumerate(basis):
        if row is None or not row[j]:
            continue
        if b is None:
            b, row = row, None
        else:
            while row[j]:
                q = b[j] // row[j]
                b, row = row, [u - q * v for u, v in zip(b, row)]
            row = hermite_reduce(basis, row, j + 1)
        basis[j] = hermite_reduce(basis, b if b[j] > 0 else [-x for x in b], j + 1)
    for j, b in enumerate(basis):
        if b is not None:
            basis[j] = hermite_reduce(basis, b, j + 1)


def hermite_reduce(basis: HermiteBasis, row: Sequence[int], start: int = 0) -> list[int]:
    """The row less the multiples of the basis rows that bring each of its
    entries in a pivot column from ``start`` on into [0, pivot).  A row of
    the span reduces to zero."""
    row = list(row)
    for j in range(start, len(basis)):
        b = basis[j]
        if b is not None and not 0 <= row[j] < b[j]:
            q = row[j] // b[j]
            row = [u - q * v for u, v in zip(row, b)]
    return row
