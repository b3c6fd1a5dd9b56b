"""The incompatibility graph of a formal context.

Two incidences (g, m) and (h, n) are incompatible when neither (g, n)
nor (h, m) is an incidence: no Ferrers relation inside the incidence can
contain both.  The context is a union of two Ferrers relations exactly
when this graph is bipartite, which is what everything downstream leans
on.  :func:`sweep` is the one odd-cycle search over it: a breadth-first
pass that stops at the first odd cycle and returns that cycle with the
bipartite components it passed.  :func:`two_color` and
:func:`pack_odd_cycles` read that answer; :func:`components` is a plain
flood fill.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .bitset import bits
from .context import FormalContext, IncidencePair


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

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


@dataclass(frozen=True)
class BipartitionWitness:
    """An odd cycle, or None when the graph is bipartite.

    ``odd_cycle`` is a vertex index sequence of odd length whose
    consecutive members (and last-to-first pair) are adjacent.
    """

    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.odd_cycle is None


def build_incompatibility_graph(ctx: FormalContext) -> IncompatibilityGraph:
    """Construct the graph by the quadratic pairwise rule.

    The pair-rule reference that :func:`product_graph` is tested
    against, and the builder the benchmark's recognize workloads call."""
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


def product_graph(ctx: FormalContext) -> IncompatibilityGraph:
    """The graph of :func:`build_incompatibility_graph`, built as a
    masked product for every command: ``check``, ``stats``, and the
    repair engine behind ``maximal``, ``biplot`` and ``dim2ext``.
    (g, m) and (h, n) clash iff h lacks m and g lacks n, so the row of
    (g, m) is ``lacking[m] & missing[g]``: the vertices of the objects
    without m, masked by those of the attributes that g lacks.  Both
    lists fill in one walk over the non-incidences, each (g, n) adding
    g's run to ``lacking[n]`` and n's vertices to ``missing[g]``, not
    in |I|²/2 pair tests."""
    # each object's vertices are a run of consecutive indices; vertex i
    # is (objects[i], attributes[i])
    objects: list[int] = []
    attributes: list[int] = []
    by_object = []
    by_attribute = [0] * ctx.n_attributes
    for g, row in enumerate(ctx.rows):
        start = len(attributes)
        for m in bits(row):
            by_attribute[m] |= 1 << len(attributes)
            attributes.append(m)
        objects += [g] * (len(attributes) - start)
        by_object.append((1 << len(attributes)) - (1 << start))
    full = (1 << ctx.n_attributes) - 1
    lacking = [0] * ctx.n_attributes
    missing = []
    for run, row in zip(by_object, ctx.rows):
        gap = 0
        for n in bits(row ^ full):
            lacking[n] |= run
            gap |= by_attribute[n]
        missing.append(gap)
    return IncompatibilityGraph(
        tuple(map(tuple.__new__, repeat(IncidencePair), zip(objects, attributes))),
        tuple(
            map(
                operator.and_,
                map(lacking.__getitem__, attributes),
                map(missing.__getitem__, objects),
            )
        ),
    )


def components(graph: IncompatibilityGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted tuples, ordered by smallest member:
    each is flood-filled from the smallest vertex not yet reached."""
    parts = []
    left = (1 << graph.n) - 1
    while left:
        part = left & -left
        frontier = graph.adjacency[part.bit_length() - 1]
        while frontier:
            part |= frontier
            reach = 0
            for v in bits(frontier):
                reach |= graph.adjacency[v]
            frontier = reach & ~part
        left ^= part
        parts.append(tuple(bits(part)))
    return parts


def isolated_pairs(graph: IncompatibilityGraph) -> frozenset[IncidencePair]:
    """Incidences compatible with every other incidence: the pairs that
    both factors of ``two_factorize`` share."""
    return frozenset(
        graph.vertices[i] for i in range(graph.n) if not graph.adjacency[i]
    )


def bipartition(graph: IncompatibilityGraph) -> BipartitionWitness:
    """2-color the graph or extract an odd cycle.

    Either witness is checked: the odd cycle edge by edge, the
    odd-layer mask of :func:`two_color` against every edge.
    """
    everything = (1 << graph.n) - 1
    ones, cycle = two_color(graph.adjacency, everything)
    if cycle is not None:
        _verify_cycle(graph, cycle)
        return BipartitionWitness(cycle)
    for v in range(graph.n):
        if graph.adjacency[v] & (ones if ones >> v & 1 else everything & ~ones):
            raise AssertionError("coloring violates an edge")
    return BipartitionWitness(None)


def two_color(
    adj: Sequence[int], active: int
) -> tuple[int | None, tuple[int, ...] | None]:
    """2-coloring of the subgraph induced by ``active``: ``(odd, None)``
    with ``odd`` the mask of the vertices in odd layers of :func:`sweep`
    (so the smallest vertex of each component is not in it), or
    ``(None, cycle)`` with the first odd cycle the sweep closes."""
    _, odd, walk = sweep(adj, active)
    if walk is not None:
        return None, tuple(bit.bit_length() - 1 for bit in walk)
    return odd, None


def pack_odd_cycles(adj: Sequence[int], active: int, limit: int) -> list[int]:
    """At most ``limit`` vertex-disjoint odd cycles of the subgraph
    induced by ``active`` as vertex masks, packed greedily: each one is
    the first cycle :func:`sweep` closes in what is left, and a
    bipartite subgraph gives ``[]``.  A bipartite component holds no
    odd cycle and removing a cycle changes no other component, so the
    components a sweep passed leave ``active`` with the cycle it
    closed: the next sweep skips them, but starts the component it
    stopped in over from its lowest vertex.  A caller that wants every
    cycle passes a ``limit`` of at least ``active``'s size over 3."""
    cycles: list[int] = []
    while len(cycles) < limit:
        passed, _, walk = sweep(adj, active)
        if walk is None:
            break
        cycle = sum(walk)
        cycles.append(cycle)
        active &= ~(passed | cycle)
    return cycles


def sweep(adj: Sequence[int], active: int) -> tuple[int, int, list[int] | None]:
    """Breadth-first sweep of the subgraph induced by ``active``, one
    component at a time from its smallest vertex not yet swept, one
    layer at a time: a layer is a bitmask and the next one holds its
    members' neighbours not yet seen.  An edge inside a layer (a clash)
    closes an odd cycle; every other edge joins consecutive layers.  A
    component whose first vertex has no neighbour in ``active`` is that
    vertex alone, and ends after that one test.

    Returns ``(passed, odd, walk)`` at the first clash: the union of
    the bipartite components swept before it, their odd layers, and
    the clash's cycle as single-bit masks in cycle order.  That clash
    joins the smallest layer member v with a neighbour in the layer to
    its smallest such neighbour w; v and w each step to their smallest
    neighbour in the layer above until they meet.  A bipartite subgraph
    gives ``(active, odd, None)``.
    """
    left = active
    ones = 0
    while left:
        layer = seen = left & -left
        if not adj[layer.bit_length() - 1] & active:
            left ^= layer
            continue
        layers = [layer]
        odd = 0
        while layer:
            nxt = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                # the layer lies inside active, so nb needs no mask yet
                nb = adj[low.bit_length() - 1]
                if nb & layer:
                    walk = _layer_cycle(adj, layers, low, nb & layer)
                    return active & ~left, ones, walk
                nxt |= nb
            layer = nxt & active & ~seen
            seen |= layer
            if len(layers) & 1:
                odd |= layer
            layers.append(layer)
        left &= ~seen
        ones |= odd
    return active, ones, None


def _layer_cycle(
    adj: Sequence[int], layers: list[int], v: int, clash: int
) -> list[int]:
    """The odd cycle closed by the edge from ``v`` (a bit) to the
    smallest member of ``clash``, both in the last of ``layers``."""
    up = [v]
    down = [clash & -clash]
    depth = len(layers) - 1
    while up[-1] != down[-1]:
        depth -= 1
        above = layers[depth]
        a = adj[up[-1].bit_length() - 1] & above
        b = adj[down[-1].bit_length() - 1] & above
        up.append(a & -a)
        down.append(b & -b)
    return up[:-1] + down[::-1]


def _verify_cycle(graph: IncompatibilityGraph, cycle: tuple[int, ...]) -> None:
    if len(cycle) % 2 == 0 or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise AssertionError(f"not a simple odd cycle: {cycle}")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not graph.adjacency[a] >> b & 1:
            raise AssertionError(f"cycle edge {a}-{b} missing")
