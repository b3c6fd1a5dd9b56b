"""The incompatibility graph of a formal context.

Two incidences (g, m) and (h, n) are incompatible when neither (g, n)
nor (h, m) is an incidence: no Ferrers relation inside the incidence can
contain both.  The context is a union of two Ferrers relations exactly
when this graph is bipartite, which is what everything downstream leans
on.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .bitset import bits
from .context import FormalContext, IncidencePair
from .errors import IndexOutOfRange


@dataclass(frozen=True)
class IncompatibilityGraph:
    """Undirected graph on the incidences of a context.

    ``vertices`` holds the incidence pairs in lexicographic order and
    ``adjacency`` one bitmask per vertex over vertex indices.
    """

    vertices: tuple[IncidencePair, ...]
    adjacency: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, i: int) -> list[int]:
        return list(bits(self.adjacency[i]))

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, mask in enumerate(self.adjacency):
            for j in bits(mask):
                if i < j:
                    out.append((i, j))
        return out

    def vertex_index(self, pair: IncidencePair) -> int:
        i = bisect_left(self.vertices, tuple(pair))
        if i == len(self.vertices) or self.vertices[i] != tuple(pair):
            raise IndexOutOfRange(f"{pair} is not a vertex")
        return i


@dataclass(frozen=True)
class BipartitionWitness:
    """Either a 2-coloring or an odd cycle, never both.

    ``coloring`` maps vertex index to color 1 or 2; ``odd_cycle`` is a
    vertex index sequence of odd length whose consecutive members (and
    last-to-first pair) are adjacent.
    """

    coloring: dict[int, int] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None


def build_incompatibility_graph(ctx: FormalContext) -> IncompatibilityGraph:
    """Construct the graph by the quadratic pairwise rule."""
    vertices = tuple(ctx.pairs())
    adjacency = [0] * len(vertices)
    for i in range(len(vertices)):
        g, m = vertices[i]
        for j in range(i + 1, len(vertices)):
            h, n = vertices[j]
            if not ctx.rows[g] >> n & 1 and not ctx.rows[h] >> m & 1:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return IncompatibilityGraph(vertices, tuple(adjacency))


def components(graph: IncompatibilityGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted tuples, ordered by smallest member."""
    everything = (1 << graph.n) - 1
    return [
        tuple(bits(part))
        for part in component_masks(graph.adjacency, everything)
    ]


def isolated_pairs(graph: IncompatibilityGraph) -> frozenset[IncidencePair]:
    """Incidences compatible with every other incidence."""
    return frozenset(
        graph.vertices[i] for i in range(graph.n) if not graph.adjacency[i]
    )


def bipartition(graph: IncompatibilityGraph) -> BipartitionWitness:
    """2-color the graph or extract an odd cycle.

    Colors come from :func:`two_color`, shifted to 1 and 2; the smallest
    vertex of each component gets color 1, so the witness is
    deterministic.
    """
    everything = (1 << graph.n) - 1
    color, cycle = two_color(graph.adjacency, everything)
    if cycle is not None:
        _verify_cycle(graph, cycle)
        return BipartitionWitness(None, cycle)
    ones = sum(1 << v for v, c in color.items() if c)
    for v, c in color.items():
        if graph.adjacency[v] & (ones if c else everything & ~ones):
            raise AssertionError("coloring violates an edge")
    return BipartitionWitness({v: color[v] + 1 for v in range(graph.n)}, None)


def two_color(
    adj: Sequence[int], active: int
) -> tuple[dict[int, int] | None, tuple[int, ...] | None]:
    """Breadth-first 2-coloring of the subgraph induced by ``active``.

    Returns ``(colors, None)`` with every active vertex colored 0 or 1,
    or ``(None, cycle)`` with the first odd cycle met.  Roots and
    neighbors are visited in ascending order, so the smallest vertex of
    each component gets color 0 and the result is deterministic.
    """
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    left = active
    while left:
        root = (left & -left).bit_length() - 1
        color[root] = 0
        left ^= 1 << root
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in bits(adj[v] & active):
                if w not in color:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    left ^= 1 << w
                    queue.append(w)
                elif color[w] == color[v]:
                    return None, trimmed_cycle(v, w, parent)
    return color, None


def trimmed_cycle(v: int, w: int, parent: dict[int, int]) -> tuple[int, ...]:
    """The odd cycle closed by the edge v-w of one breadth-first layer.

    ``v`` and ``w`` have the same depth in the search tree ``parent``;
    both branches are walked up to their meeting point.
    """
    left = [v]
    right = [w]
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return tuple(left[:-1] + list(reversed(right)))


def component_masks(adj: Sequence[int], active: int) -> list[int]:
    """Connected components of the subgraph induced by ``active``, as
    vertex masks ordered by smallest member."""
    parts = []
    left = active
    while left:
        comp = frontier = left & -left
        while frontier:
            grown = 0
            for v in bits(frontier):
                grown |= adj[v]
            frontier = grown & active & ~comp
            comp |= frontier
        parts.append(comp)
        left &= ~comp
    return parts


def _verify_cycle(graph: IncompatibilityGraph, cycle: tuple[int, ...]) -> None:
    if len(cycle) % 2 == 0 or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise AssertionError(f"not a simple odd cycle: {cycle}")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not graph.adjacency[a] >> b & 1:
            raise AssertionError(f"cycle edge {a}-{b} missing")
