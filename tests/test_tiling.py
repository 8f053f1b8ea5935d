import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    OrderedPartition,
    TilingFace,
    canonical_face,
    face_vertices,
    from_ambient,
    neighbors,
    neighbors_definitional,
    permutahedron_membership,
    rotate_partition,
    tiles_containing,
    w_vector,
)

from heawood_kit.lattice import canonicalize, to_ambient
from heawood_kit.tiling import SliceError, is_tiling_vertex


def random_vertex(rng, d):
    """Base permutation translated by a few random lattice steps."""
    n = d + 1
    x = list(rng.sample(range(1, n + 1), n))
    for _ in range(rng.randrange(4)):
        w = w_vector(rng.randrange(1, n + 1), d)
        x = [a + b for a, b in zip(x, w)]
    return tuple(x)


def test_is_tiling_vertex_examples():
    assert is_tiling_vertex((1, 2, 3))
    assert is_tiling_vertex((-1, 4, 3))
    assert not is_tiling_vertex((1, 2, 4))
    assert not is_tiling_vertex((1, 1, 4))


def test_neighbors_examples():
    assert set(neighbors((1, 2, 3))) == {(2, 1, 3), (1, 3, 2), (0, 2, 4)}
    assert (4, 0, 2) in neighbors((3, 1, 2))


def test_neighbors_match_definitional_filter():
    rng = random.Random(7)
    for d in (2, 3, 4):
        for _ in range(34):
            x = random_vertex(rng, d)
            assert is_tiling_vertex(x)
            fast = sorted(neighbors(x))
            slow = sorted(neighbors_definitional(x))
            assert fast == slow
            assert len(fast) == d + 1


def test_neighbors_translation_invariance():
    rng = random.Random(11)
    for d in (2, 3):
        for _ in range(20):
            x = random_vertex(rng, d)
            i = rng.randrange(1, d + 2)
            w = w_vector(i, d)
            shifted = tuple(a + b for a, b in zip(x, w))
            expected = sorted(
                tuple(a + b for a, b in zip(nb, w)) for nb in neighbors(x)
            )
            assert sorted(neighbors(shifted)) == expected


def test_tiles_containing_examples():
    offsets = tiles_containing((1, 2, 3))
    expected = {
        from_ambient((0, 0, 0)),
        from_ambient((-2, 1, 1)),
        from_ambient((-1, -1, 2)),
    }
    assert set(offsets) == expected
    assert from_ambient(w_vector(1, 2)) in tiles_containing((3, 2, 1))


def test_tiles_containing_oracle():
    rng = random.Random(3)
    for d in (2, 3):
        n = d + 1
        for _ in range(12):
            x = random_vertex(rng, d)
            offsets = tiles_containing(x)
            assert len(offsets) == n
            for v in offsets:
                amb = to_ambient(v)
                residue = tuple(a - b for a, b in zip(x, amb))
                assert sorted(residue) == list(range(1, n + 1))
            # no other offset in a radius-2 coefficient ball qualifies
            from itertools import product as iproduct

            qualifying = set(offsets)
            for a in iproduct(range(-2, 3), repeat=n):
                amb = to_ambient(a)
                residue = tuple(p - q for p, q in zip(x, amb))
                if sorted(residue) == list(range(1, n + 1)):
                    assert canonicalize(a) in qualifying


def test_rotate_partition_examples():
    # renaming subtracts the moved block's indicator, so the new offset is
    # the class of -(w_2+w_3) = w_1
    f = TilingFace(OrderedPartition.of({2, 3}, {1}), (0, 0, 0))
    g = rotate_partition(f)
    assert g.partition == OrderedPartition.of({1}, {2, 3})
    assert g.offset == canonicalize((-0, -1, -1)) == (1, 0, 0)
    assert to_ambient(g.offset) == w_vector(1, 2)
    assert face_vertices(g) == face_vertices(f)

    full = TilingFace(OrderedPartition.of({1, 2, 3}), (0, 0, 0))
    assert rotate_partition(full) == full

    h = TilingFace(OrderedPartition.of({2}, {3}, {1}), (0, 0, 0))
    h2 = rotate_partition(rotate_partition(h))
    assert h2.partition == OrderedPartition.of({1}, {2}, {3})
    assert h2.offset == canonicalize((0, -1, -1)) == (1, 0, 0)
    # coordinate check: the inverse translation w_2 + w_3 = -w_1 carries the
    # named vertex (3,1,2) back to the base vertex (1,2,3)
    shifted = tuple(
        a + b + c for a, b, c in zip((3, 1, 2), w_vector(2, 2), w_vector(3, 2))
    )
    assert shifted == (1, 2, 3)
    assert face_vertices(h2) == face_vertices(h) == {(3, 1, 2)}


def test_canonical_face_examples():
    f = TilingFace(OrderedPartition.of({1}, {2}, {3}), (0, 1, 0))
    assert canonical_face(f) == TilingFace(
        OrderedPartition.of({1}, {2}, {3}), (0, 1, 0)
    )
    g = canonical_face(TilingFace(OrderedPartition.of({2, 3}, {1}), (0, 0, 0)))
    assert g.partition == OrderedPartition.of({1}, {2, 3})
    assert g.offset == (1, 0, 0)
    assert face_vertices(g) == {(3, 1, 2), (3, 2, 1)}
    h = canonical_face(TilingFace(OrderedPartition.of({3}, {1, 2}), (0, 0, 0)))
    assert h.partition == OrderedPartition.of({1, 2}, {3})
    assert h.offset == canonicalize((0, 0, -1)) == (1, 1, 0)
    assert face_vertices(h) == {(2, 3, 1), (3, 2, 1)}


def test_face_vertices_examples():
    f = TilingFace(OrderedPartition.of({2, 3}, {1}), (0, 0, 0))
    assert face_vertices(f) == {(3, 1, 2), (3, 2, 1)}
    v = TilingFace(OrderedPartition.of({1}, {2}, {3}), (0, 0, 0))
    assert face_vertices(v) == {(1, 2, 3)}
    full = TilingFace(OrderedPartition.of({1, 2, 3}), (0, 0, 0))
    assert face_vertices(full) == {
        tuple(p) for p in permutations((1, 2, 3))
    }


def all_ordered_partitions(n):
    def helper(remaining):
        if not remaining:
            yield ()
            return
        items = sorted(remaining)
        from itertools import combinations

        for size in range(1, len(items) + 1):
            for block in combinations(items, size):
                rest = remaining - set(block)
                for tail in helper(rest):
                    yield (frozenset(block),) + tail

    yield from helper(set(range(1, n + 1)))


def test_rotation_soundness_all_partitions():
    for n in (3, 4):
        for blocks in all_ordered_partitions(n):
            f = TilingFace(OrderedPartition(blocks), (0,) * n)
            assert face_vertices(rotate_partition(f)) == face_vertices(f)


def test_canonical_face_uniqueness():
    # distinct canonical faces with the same offset have distinct vertex sets
    for n in (3, 4):
        seen = {}
        for blocks in all_ordered_partitions(n):
            f = canonical_face(TilingFace(OrderedPartition(blocks), (0,) * n))
            key = (f.partition, f.offset)
            vertices = frozenset(face_vertices(f))
            if key in seen:
                assert seen[key] == vertices
            else:
                for other_key, other_vertices in seen.items():
                    if other_key[1] == f.offset:
                        assert other_vertices != vertices
                seen[key] = vertices


def test_vertex_tile_duality():
    rng = random.Random(5)
    for _ in range(10):
        x = random_vertex(rng, 2)
        for v in tiles_containing(x):
            tile = TilingFace(OrderedPartition.of({1, 2, 3}), v)
            assert x in face_vertices(tile)


def test_permutahedron_membership():
    assert permutahedron_membership((2, 2, 2)) == "interior"
    assert permutahedron_membership((1, 2, 3)) == "boundary"
    assert permutahedron_membership((0, 2, 4)) == "outside"
    # same point relative to the neighboring tile at offset of w_3
    assert permutahedron_membership((0, 2, 4), from_ambient(w_vector(3, 2))) == "boundary"
    with pytest.raises(SliceError):
        permutahedron_membership((1, 2, 4))


@given(st.integers(min_value=0, max_value=5))
def test_membership_of_interior_points(seed):
    rng = random.Random(seed)
    # random convex combination of all six permutations stays inside or on
    weights = [rng.randrange(1, 5) for _ in range(6)]
    total = sum(weights)
    perms = list(permutations((1, 2, 3)))
    point = tuple(
        sum(Fraction(w, total) * p[i] for w, p in zip(weights, perms))
        for i in range(3)
    )
    assert permutahedron_membership(point) in {"interior", "boundary"}
