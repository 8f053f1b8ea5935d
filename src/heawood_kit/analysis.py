"""Graph analyses: bipartiteness, cycle census, Hamiltonicity, coloring.

The alternating walk alternates the two unit-step moves attached to a
coordinate index; premature closure at the seed is the interesting failure
mode.  Chromatic numbers are exact: the least palette a backtracking
search colors the graph with.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .intlin import InvalidSignature
from .quotient import QuotientGraph


class CycleError(RuntimeError):
    """A walk or cycle fails to be a closed path along graph edges."""


class BipartiteReport(NamedTuple):
    bipartite: bool
    coloring: Optional[tuple[int, ...]] = None
    odd_cycle: Optional[tuple[int, ...]] = None


def is_bipartite(g: QuotientGraph) -> BipartiteReport:
    """Two-color by BFS; return the coloring or an odd closed walk."""
    n = g.vertex_count
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for v in queue:  # the loop reaches what the body appends
            for w in g.adjacency[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    # walk both endpoints up to the root; the joined paths
                    # close an odd cycle through their meeting point
                    up_v, up_w = [v], [w]
                    while up_v[-1] != root:
                        up_v.append(parent[up_v[-1]])
                    while up_w[-1] != root:
                        up_w.append(parent[up_w[-1]])
                    while len(up_v) > 1 and len(up_w) > 1 and up_v[-2] == up_w[-2]:
                        up_v.pop()
                        up_w.pop()
                    cycle = up_v + up_w[-2::-1]
                    return BipartiteReport(False, odd_cycle=tuple(cycle))
    return BipartiteReport(True, coloring=tuple(color))


def six_cycles_through(g: QuotientGraph, v: int) -> list[tuple[int, ...]]:
    """All simple 6-cycles through v as vertex tuples from v, one per
    cycle: the direction whose second vertex is the smaller."""
    out = []
    adjacency = g.adjacency
    paths = [[v]]  # a stack: a row pushed reversed is walked in its own order
    while paths:
        path = paths.pop()
        if len(path) < 6:
            paths += [path + [w] for w in reversed(adjacency[path[-1]]) if w not in path]
        elif path[1] < path[-1] and v in adjacency[path[-1]]:
            out.append(tuple(path))
    return out


class HamiltonianWalkResult(NamedTuple):
    mode: str
    outcome: str
    length: int
    cycle: Optional[tuple[int, ...]] = None
    vertices: Optional[int] = None


def check_walk(d: int, i: int) -> None:
    """Refuse, as bad input, an alternating walk for d other than 2 or an
    index i outside 1..d+1."""
    if d != 2:
        raise InvalidSignature(f"the alternating walk needs d = 2, not d = {d}")
    if not 1 <= i <= d + 1:
        raise InvalidSignature(f"walk index {i} out of range 1..{d + 1}")


def hamiltonian_alternating(g: QuotientGraph, i: int) -> HamiltonianWalkResult:
    """Walk from the seed of H_k alternating the two moves attached to index i.

    The even steps add e_i - e_{i+1}, the odd steps e_i - e_{i-1}, indices
    cyclic and 1-based.  Each step is checked to be a graph edge.  The
    deterministic walk has unique predecessors, so the first revisited
    state is the start; the walk is Hamiltonian exactly when that happens
    after one step per vertex.  Only d = 2 is accepted: for d >= 3 the
    steps are not edges of the tiling.
    """
    check_walk(g.d, i)
    n = g.d + 1
    plus = i - 1  # coordinate gaining a unit on even steps
    minus_even = i % n  # e_i - e_{i+1}
    minus_odd = (i - 2) % n  # e_i - e_{i-1}

    point = list(range(1, n + 1))
    seed = current = g.vertex_of(point)
    cycle = [seed]
    parity = 0
    while True:
        point[plus] += 1
        point[minus_even if parity == 0 else minus_odd] -= 1
        nxt = g.vertex_of(point)
        if nxt not in g.adjacency[current]:
            raise CycleError("walk left the graph")
        parity ^= 1
        current = nxt
        if current == seed and parity == 0:
            break
        cycle.append(current)
        if len(cycle) > 2 * g.vertex_count + 2:
            raise CycleError("walk failed to close")
    whole = len(set(cycle)) == len(cycle) == g.vertex_count
    return HamiltonianWalkResult(
        mode=f"alternating({i})",
        outcome="hamiltonian-cycle" if whole else "premature-closure",
        length=len(cycle),
        cycle=tuple(cycle),
        vertices=g.vertex_count,
    )


def _colorable(g: QuotientGraph, t: int) -> bool:
    """Backtracking t-colorability, most-constrained vertex first.

    Each step colors the first uncolored vertex with the most distinct
    neighbour colors, then the highest degree, trying its free colors
    least first and at most one color above those in use.  That is the
    DSATUR rule (Brélaz 1979), so the first descent is DSATUR's coloring.
    The colored vertices are kept on an explicit stack, so no recursion
    limit bounds the depth.
    """
    n = g.vertex_count
    color = [-1] * n
    forbidden: list[set[int]] = [set() for _ in range(n)]
    # per colored vertex: the vertex, its untried colors, the neighbours its
    # color was forbidden to, and the top color in use before it
    stack: list[tuple[int, Iterator[int], list[int], int]] = []
    top = -1
    while len(stack) < n:
        v = max(
            (u for u in range(n) if color[u] < 0),
            key=lambda u: (len(forbidden[u]), len(g.adjacency[u])),
        )
        free = [c for c in range(min(t, top + 2)) if c not in forbidden[v]]
        stack.append((v, iter(free), [], top))
        # recolor the last vertex on the stack, backing up past exhausted ones
        while stack:
            v, untried, touched, top = stack[-1]
            for w in touched:
                forbidden[w].discard(color[v])
            touched.clear()
            color[v] = c = next(untried, -1)
            if c >= 0:
                for w in g.adjacency[v]:
                    if color[w] < 0 and c not in forbidden[w]:
                        forbidden[w].add(c)
                        touched.append(w)
                top = max(top, c)
                break
            stack.pop()
        else:
            return False
    return True


def chromatic_number(g: QuotientGraph) -> int:
    """Exact chromatic number of any graph: the least t >= 1 for which
    ``_colorable`` succeeds, 0 on the empty graph.  Its cost is the
    backtracking tree below the answer, not the vertex count."""
    if g.vertex_count == 0:
        return 0
    t = 1
    while not _colorable(g, t):
        t += 1
    return t
