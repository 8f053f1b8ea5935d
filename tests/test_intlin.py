from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import det, identity_matrix, integer_span_contains, matmul, smith_normal_form

from heawood_kit.intlin import (
    IntMatrix,
    InvalidSignature,
    ShapeError,
    build_mk,
    closed_form_dk,
)


def test_build_mk_examples():
    assert build_mk((1, 1, 1)).row_list() == [(2, -1, 0), (0, 2, -1), (-1, 0, 2)]
    assert build_mk((2, 3, 2)).row_list() == [(3, -3, 0), (0, 4, -2), (-2, 0, 3)]
    m = build_mk((1, 1, 1, 1))
    assert m.rows == m.cols == 4
    assert m.row_list() == [
        (2, -1, 0, 0),
        (0, 2, -1, 0),
        (0, 0, 2, -1),
        (-1, 0, 0, 2),
    ]


def test_build_mk_rejects_short_signature():
    with pytest.raises(InvalidSignature):
        build_mk((1,))


def test_row_sum_is_all_ones():
    for k in [(1, 1, 1), (2, 3, 2), (1, 2, 3, 4), (5, 1, 2, 3, 4)]:
        m = build_mk(k)
        sums = [sum(m[i, j] for i in range(m.rows)) for j in range(m.cols)]
        assert sums == [1] * m.cols


def test_det_examples():
    assert det(build_mk((1, 1, 1))) == 7
    assert det(build_mk((2, 2, 3))) == 24
    assert det(identity_matrix(3)) == 1


def test_det_requires_square():
    with pytest.raises(ShapeError):
        det(IntMatrix.from_rows([(1, 2, 3)]))


def test_closed_form_examples():
    assert closed_form_dk((1, 2, 1)) == 10
    assert closed_form_dk((3, 1, 2)) == 18
    assert closed_form_dk((1, 1, 1, 1)) == 15


def test_det_equals_closed_form_exhaustive_small():
    for n in (3, 4):
        for k in product(range(1, 5), repeat=n):
            assert det(build_mk(k)) == closed_form_dk(k)


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=6)
)
def test_det_equals_closed_form_property(k):
    assert det(build_mk(k)) == closed_form_dk(k)


def _assert_snf_contract(m):
    snf = smith_normal_form(m)
    assert matmul(matmul(snf.u, m), snf.v).entries == snf.s.entries
    diag = snf.diagonal()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == (0,) * (len(diag) - len(nonzero))
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    identity = identity_matrix(m.cols).entries
    assert matmul(snf.v, snf.v_inv).entries == identity
    assert matmul(snf.v_inv, snf.v).entries == identity
    if m.rows == m.cols:
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(det(m))
    return snf


def test_snf_identity():
    snf = _assert_snf_contract(identity_matrix(4))
    assert snf.diagonal() == (1, 1, 1, 1)


def test_snf_diag_2_3():
    snf = _assert_snf_contract(IntMatrix.from_rows([(2, 0), (0, 3)]))
    assert snf.diagonal() == (1, 6)


def test_snf_of_banded_matrix():
    snf = _assert_snf_contract(build_mk((1, 1, 1)))
    prod = 1
    for x in snf.diagonal():
        prod *= x
    assert prod == 7


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_snf_random_matrices(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    _assert_snf_contract(IntMatrix(rows, cols, tuple(entries)))


def test_span_membership_examples():
    assert integer_span_contains(build_mk((2, 3, 2)), (3, -3, 0))
    assert integer_span_contains(build_mk((1, 1, 1)), (1, 1, 1))
    pappus = IntMatrix.from_rows([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert not integer_span_contains(pappus, (1, 1, 1))


def test_span_membership_shape_check():
    with pytest.raises(ShapeError):
        integer_span_contains(build_mk((1, 1, 1)), (1, 1))


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
)
def test_span_contains_all_integer_combinations(rows, coeffs):
    m = IntMatrix.from_rows(rows)
    coeffs = (coeffs + [0] * m.rows)[: m.rows]
    combo = tuple(
        sum(c * m[i, j] for i, c in enumerate(coeffs)) for j in range(m.cols)
    )
    assert integer_span_contains(m, combo)


def test_inverse_unimodular():
    # smith_normal_form tracks the inverse of its column transform
    for m in [
        IntMatrix.from_rows([(1, 2, 0), (0, 1, 3), (0, 0, 1)]),
        IntMatrix.from_rows(build_mk((2, 3, 2)).row_list() + [(1, 1, 1)]),
    ]:
        snf = _assert_snf_contract(m)
        assert matmul(snf.v, snf.v_inv).entries == identity_matrix(3).entries
        assert matmul(snf.v_inv, snf.v).entries == identity_matrix(3).entries
