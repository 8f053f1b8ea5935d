import random
import tracemalloc
from itertools import product
from math import prod
from operator import add, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    NotInLattice,
    det,
    from_ambient,
    integer_span_contains,
    reduce_by_scan,
    smith_normal_form,
    w_vector,
)

from heawood_kit import intlin, lattice
from heawood_kit.intlin import (
    IntMatrix,
    InvalidSignature,
    ShapeError,
    build_mk,
    closed_form_dk,
)
from heawood_kit.lattice import (
    ClassIndex,
    InfiniteQuotient,
    KSignature,
    NotATransversal,
    canonicalize,
    quotient_order_general,
    to_ambient,
)

SMALL_SIGNATURES = st.lists(
    st.integers(min_value=1, max_value=3), min_size=3, max_size=4
).map(tuple)


def test_signature_validation():
    assert KSignature((1, 2, 3)).d == 2
    with pytest.raises(InvalidSignature):
        KSignature((1, 2))
    with pytest.raises(InvalidSignature):
        KSignature((1, -1, 1))
    assert KSignature((1, 0, 1)).entries == (1, 0, 1)


def test_w_vector_examples():
    assert w_vector(1, 2) == (2, -1, -1)
    assert w_vector(3, 2) == (-1, -1, 2)
    assert w_vector(1, 3) == (3, -1, -1, -1)
    with pytest.raises(IndexError):
        w_vector(4, 2)


def test_w_vectors_sum_to_zero():
    for d in (2, 3, 4):
        total = [0] * (d + 1)
        for i in range(1, d + 2):
            total = [a + b for a, b in zip(total, w_vector(i, d))]
        assert total == [0] * (d + 1)


def test_ambient_round_trip_examples():
    assert to_ambient((1, 0, 0)) == (2, -1, -1)
    assert from_ambient((2, -1, -1)) == (1, 0, 0)
    assert to_ambient((1, 1, 1)) == (0, 0, 0)
    assert from_ambient((0, 0, 0)) == (0, 0, 0)


def test_from_ambient_rejects_non_lattice():
    with pytest.raises(NotInLattice):
        from_ambient((1, -1, 1))  # sum is not zero
    with pytest.raises(NotInLattice):
        from_ambient((1, -1, 0))  # differences not divisible by 3


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=5))
def test_ambient_round_trip_property(a):
    a = tuple(a)
    assert from_ambient(to_ambient(a)) == canonicalize(a)
    v = to_ambient(a)
    assert to_ambient(from_ambient(v)) == v


def test_sublattice_examples():
    assert integer_span_contains(KSignature((2, 3, 2)).matrix(), (3, -3, 0))
    assert not integer_span_contains(KSignature((1, 1, 1)).matrix(), (1, 0, 0))
    assert integer_span_contains(KSignature((1, 1, 1)).matrix(), (0, 0, 0))


def test_reduce_examples():
    index = KSignature((1, 1, 1)).index
    assert index.rep((0, 0, 0)) == (0, 0, 0)
    assert index.rep((2, -1, 0)) == (0, 0, 0)
    assert index.rep((1, 0, 0)) == (1, 0, 0)


def test_key_refuses_a_vector_of_another_length():
    index = KSignature((1, 1, 1)).index
    for a in [(1, 0), (1, 0, 0, 0)]:
        message = f"vector of length {len(a)} for a lattice of 3 columns"
        with pytest.raises(ShapeError, match=message):
            index.key(a)
        with pytest.raises(ShapeError, match=message):
            index.rep(a)


def test_enumerate_fundamental_counts():
    assert len(KSignature((1, 1, 1)).index.classes) == 7
    assert (1, 1, 1) not in KSignature((1, 1, 1)).index.classes
    assert len(KSignature((1, 2, 1)).index.classes) == 10
    assert len(KSignature((1, 1, 1, 1)).index.classes) == 15


def test_making_an_index_lists_no_class():
    # the fundamental vectors, and the ranges of their box, are made on the
    # first read of classes, so the order of a long box takes no memory in
    # proportion to its entries
    k = KSignature((10**6, 1, 1))
    tracemalloc.start()
    try:
        assert k.index.order == closed_form_dk(k.entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@given(SMALL_SIGNATURES)
def test_fundamental_count_matches_determinant(entries):
    k = KSignature(entries)
    assert len(k.index.classes) == closed_form_dk(entries) == det(build_mk(entries))


@given(SMALL_SIGNATURES, st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=4))
def test_reduce_idempotent_and_orbit_constant(entries, a):
    k = KSignature(entries)
    a = tuple((a + [0] * k.n)[: k.n])
    rep = k.index.rep(a)
    assert k.index.rep(rep) == rep
    assert integer_span_contains(k.matrix(), tuple(x - r for x, r in zip(a, rep)))
    for row in k.matrix().row_list():
        shifted = tuple(x + g for x, g in zip(a, row))
        assert k.index.rep(shifted) == rep


def test_fundamental_pairwise_inequivalent():
    for entries in [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)]:
        k = KSignature(entries)
        reps = k.index.classes
        for i, s in enumerate(reps):
            for t in reps[i + 1 :]:
                diff = tuple(x - y for x, y in zip(t, s))
                assert not integer_span_contains(k.matrix(), diff)


def test_class_index_refuses_classes_that_are_not_a_transversal():
    k = KSignature((2, 1, 2))
    classes = k.index.classes
    assert len(ClassIndex(k.matrix(), classes).position) == len(classes)
    same_class = tuple(a + r for a, r in zip(classes[1], k.matrix().row(0)))
    for bad in [
        classes[:-1] + classes[:1],  # a class twice, the last one missing
        classes[:1] + [same_class] + classes[1:],  # a class under two names
        classes[:-1],  # a class missing
    ]:
        # a given listing is checked on the first read of its positions
        index = ClassIndex(k.matrix(), bad)
        with pytest.raises(NotATransversal):
            index.position


def test_quotient_order_general_examples():
    assert quotient_order_general(build_mk((1, 1, 1))) == 7
    pappus = IntMatrix.from_rows([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert quotient_order_general(pappus) == 9
    f26a = IntMatrix.from_rows([(3, -1, 0), (0, 3, -1), (-1, 0, 3)])
    assert quotient_order_general(f26a) == 13


def test_quotient_order_infinite():
    rank_deficient = IntMatrix.from_rows([(1, -1, 0), (2, -2, 0)])
    with pytest.raises(InfiniteQuotient):
        quotient_order_general(rank_deficient)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=4))
def test_quotient_order_matches_closed_form(entries):
    # the caps read the index order, so it must be the closed form, zeros too
    assert quotient_order_general(build_mk(entries)) == closed_form_dk(entries)


def test_class_index_agrees_with_the_scan_reduction_on_every_pair():
    # each vector is reduced once; every pair a < b then compares the same
    vectors = list(product(range(-3, 4), repeat=3))
    for entries in [(1, 1, 1), (2, 1, 2), (1, 3, 2)]:
        k = KSignature(entries)
        reducer = ClassIndex(k.matrix()).rep
        strict = {a: reduce_by_scan(a, k) for a in vectors}
        general = {a: reducer(a) for a in vectors}
        for a in vectors:
            for b in vectors:
                if a < b:
                    assert (strict[a] == strict[b]) == (general[a] == general[b])


@pytest.mark.parametrize("n, top", [(3, 4), (4, 3)])
def test_reduction_matches_the_scan_oracle(n, top):
    rng = random.Random(n)
    for entries in product(range(1, top + 1), repeat=n):
        k = KSignature(entries)
        for _ in range(12):
            a = tuple(rng.randint(-20, 20) for _ in range(n))
            assert k.index.rep(a) == reduce_by_scan(a, k)


def test_delta_mode_reduction():
    k = KSignature((1, 1, 0))
    reps = k.index.classes
    assert len(reps) == closed_form_dk(k.entries) == 4
    for rep in reps:
        assert k.index.rep(rep) == rep
        for row in k.matrix().row_list():
            shifted = tuple(x + g for x, g in zip(rep, row))
            assert k.index.rep(shifted) == rep


def test_delta_reduction_keeps_its_class_index(monkeypatch):
    # one Hermite basis per signature object, kept by it, not one per call
    k = KSignature((6, 6, 0))
    rep = k.index.rep((9, -4, 6))
    calls = []
    original = intlin.hermite_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (intlin, lattice):
        monkeypatch.setattr(module, "hermite_basis", counting)
    assert k.index.rep((9, -4, 6)) == rep
    assert k.index.rep((0, 0, 0)) == (0, 0, 0)
    assert calls == []


def test_all_ones_in_span_matches_the_span_oracle():
    # the Hermite basis of the rows alone answers what a Smith form of the
    # rows answers in the reference
    rng = random.Random(11)
    answers = []
    while len(answers) < 300:
        n = rng.randint(3, 5)
        rows = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(n - 1, n + 2))]
        )
        try:
            index = ClassIndex(rows)
        except InfiniteQuotient:
            continue
        expected = integer_span_contains(rows, (1,) * n)
        assert index.all_ones_in_span is expected, rows.row_list()
        answers.append(expected)
    assert 0 < answers.count(True) < len(answers)
    for k in [(1, 1, 1), (2, 3, 2), (0, 2, 2)]:
        assert ClassIndex(build_mk(k)).all_ones_in_span
    assert not ClassIndex(IntMatrix.from_rows([(3, 0, 0), (0, 3, 0), (0, 0, 3)])).all_ones_in_span


@given(st.data())
def test_class_index_agrees_with_the_smith_oracle(data):
    # small sizes only: past them the Smith oracle's transforms blow up
    n = data.draw(st.integers(min_value=3, max_value=5))
    vector = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    rows = IntMatrix.from_rows(data.draw(st.lists(vector, min_size=1, max_size=5)))
    with_ones = IntMatrix.from_rows(rows.row_list() + [(1,) * n])
    diagonal = smith_normal_form(with_ones).diagonal()
    finite = len(diagonal) == n and 0 not in diagonal
    try:
        index = ClassIndex(rows)
    except InfiniteQuotient:
        assert not finite
        return
    assert finite and index.order == prod(diagonal)
    assert index.all_ones_in_span is integer_span_contains(rows, (1,) * n)
    # b is a plus a sublattice vector, or any vector
    a = data.draw(vector)
    if data.draw(st.booleans()):
        coefficients = data.draw(st.lists(
            st.integers(min_value=-3, max_value=3), min_size=rows.rows + 1, max_size=rows.rows + 1
        ))
        b = [x + sum(map(mul, coefficients, column)) for x, column in zip(a, zip(*with_ones.row_list()))]
    else:
        b = data.draw(vector)
    same = integer_span_contains(with_ones, [x - y for x, y in zip(a, b)])
    assert (index.key(a) == index.key(b)) is same
    basis = intlin.hermite_basis(with_ones.row_list(), n)
    pivots = [row[j] for j, row in enumerate(basis)]
    assert all(0 <= row[c] < pivots[c] for j, row in enumerate(basis) for c in range(j + 1, n))
    if index.order <= 500:
        # the keys made column by column and the class tables agree with key
        assert index.keys == list(map(index.key, index.classes))
        shifted = [index.position[index.key(list(map(add, c, b)))] for c in index.classes]
        assert index.mapped(index.key(b)) == shifted
