"""Exact integer linear algebra.

Small dense matrices over Z with arbitrary-precision entries: Smith
normal form with unimodular transforms and the inverse of the column
transform, the banded matrix of a signature and its closed-form
determinant, and the parser of matrix literals such as
'2,0,-1;0,2,-1;-1,-1,3'.
Everything here is exact; no floats.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


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

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))


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


class SnfResult(NamedTuple):
    """Smith normal form s = u @ input @ v with unimodular u, v; v_inv @ v = I."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.s.diagonal()


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize over Z by elementary row/column operations.

    Pivots are chosen as the smallest nonzero entry in the working block,
    which keeps intermediate growth tame at these sizes.  The diagonal is
    made nonnegative and repaired into a divisibility chain.
    """
    R, C = m.rows, m.cols
    a = [list(m.row(i)) for i in range(R)]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]
    v_inv = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst, src, c):
        # row dst += c * row src
        ad, asrc = a[dst], a[src]
        for j in range(C):
            ad[j] += c * asrc[j]
        ud, usrc = u[dst], u[src]
        for j in range(R):
            ud[j] += c * usrc[j]

    def add_col(dst, src, c):
        # column dst += c * column src; the inverse takes row src -= c * row dst
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        vs, vd = v_inv[src], v_inv[dst]
        for j in range(C):
            vs[j] -= c * vd[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(R, C):
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t; remainders become new, smaller pivots
            dirty = False
            for i in range(t + 1, R):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, C):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the whole trailing block for the chain
                offender = None
                for i in range(t + 1, R):
                    for j in range(t + 1, C):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(
        s=IntMatrix.from_rows([tuple(r) for r in a]) if a else IntMatrix(0, C, ()),
        u=IntMatrix.from_rows([tuple(r) for r in u]) if u else IntMatrix(0, 0, ()),
        v=IntMatrix.from_rows([tuple(r) for r in v]) if v else IntMatrix(0, 0, ()),
        v_inv=IntMatrix.from_rows([tuple(r) for r in v_inv]) if v else IntMatrix(0, 0, ()),
    )
