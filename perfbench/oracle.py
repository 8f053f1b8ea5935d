"""Expected answers computed by the benchmark itself.

Nothing here imports heawood_kit: every count is a closed form evaluated
from the signature or matrix, and every structural check walks plain
adjacency tuples.  Export digests, which have no closed form, live in
``pinned.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd, prod
from typing import Sequence

SCHEMA = "heawood-kit/1"

# Criterion-11 census table of the paper: matrix -> (quotient order,
# graph vertices, all-ones vector in the integer row span).
CENSUS_TABLE = {
    "1,-1,0;0,1,-1;3,0,-3": (3, 6, False),
    "2,-1,0;0,2,-1;-1,0,2": (7, 14, True),
    "2,0,-1;0,2,-1;-1,-1,3": (8, 16, True),
    "3,0,0;0,3,0;0,0,3": (9, 18, False),
    "2,-2,0;0,2,-2;-2,0,2": (12, 24, False),
    "2,-1,0;0,2,-3;-1,0,4": (13, 26, True),
}

# Full automorphism group orders that exceed the generated group (the
# classical Heawood graph), and the genus-3 fixture's two group orders.
EXCEPTIONAL_AUT = {(1, 1, 1): 336}
KLEIN_AUT = {"simplicial": 336, "dual_graph": 336}

# Criterion 12: every vertex of H_(1,1,2) lies on six 6-cycles.
SIX_CYCLES_THROUGH_SEED = {(1, 1, 2): 6}


def order_dk(k: Sequence[int]) -> int:
    """D_k = prod(k_i + 1) - prod(k_i)."""
    return prod(x + 1 for x in k) - prod(k)


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Stirling numbers of the second kind by the triangle recurrence."""
    if n == m:
        return 1
    if m == 0 or m > n:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def graph_counts(k: Sequence[int]) -> tuple[int, int]:
    """Vertices d!·D_k and edges (d+1)!/2·D_k of the quotient graph."""
    d, dk = len(k) - 1, order_dk(k)
    return factorial(d) * dk, factorial(d + 1) // 2 * dk


def torus_fvector(k: Sequence[int]) -> tuple[int, ...]:
    """f_i = i!·S(d+1, i+1)·D_k."""
    d, dk = len(k) - 1, order_dk(k)
    return tuple(factorial(i) * stirling2(d + 1, i + 1) * dk for i in range(d + 1))


def invariant_shifts(k: Sequence[int]) -> int:
    """Number of cyclic shifts s in [0, n) that leave k unchanged."""
    k = tuple(k)
    return sum(1 for s in range(len(k)) if k[s:] + k[:s] == k)


def generated_order(k: Sequence[int]) -> int:
    """Translations, the point reflection and admitted rotations: 2·c·D_k."""
    return 2 * invariant_shifts(k) * order_dk(k)


def full_aut_order(k: Sequence[int]) -> int:
    return EXCEPTIONAL_AUT.get(tuple(k), generated_order(k))


def parse_matrix(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in row.split(",")) for row in text.split(";")]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Leibniz determinant; the matrices here are at most 4x4."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def census_order(text: str) -> int:
    """|Z^n / (row span + all-ones line)|: gcd of the maximal minors."""
    rows = parse_matrix(text)
    n = len(rows[0])
    augmented = rows + [(1,) * n]
    g = 0
    for chosen in combinations(augmented, n):
        g = gcd(g, det(chosen))
    return g


def census_vertices(text: str) -> int:
    """A general quotient of the d=2 tiling has d!·order = 2·order vertices."""
    return 2 * census_order(text)


def adjacency_problems(adjacency: Sequence[Sequence[int]], degree: int) -> list[str]:
    """Regularity and symmetry of an adjacency list."""
    out = []
    sets = [set(nbrs) for nbrs in adjacency]
    for v, nbrs in enumerate(sets):
        if len(nbrs) != degree or len(adjacency[v]) != degree:
            out.append(f"vertex {v} has degree {len(adjacency[v])}, expected {degree}")
            break
        if any(v not in sets[w] for w in nbrs):
            out.append(f"adjacency of vertex {v} is not symmetric")
            break
    return out
