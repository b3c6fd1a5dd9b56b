"""Incompatibility graph construction, bipartiteness, components."""
import inspect
import random

import pytest

import ordfactor as of
from ordfactor import incompat
from ordfactor.bitset import bits, transpose
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.incompat import (
    IncompatibilityGraph,
    components,
    pack_odd_cycles,
    product_graph,
    sweep,
    two_color,
)
from ordfactor.oracle import GeneratorSpec, random_context

from conftest import (
    induced_bipartite,
    planted_context,
    reference_disjoint_odd_cycles,
    reference_parts,
    reference_two_color,
    three_order_poset,
)


def _named_edges(ctx, graph):
    def name(i):
        g, m = graph.vertices[i]
        return (ctx.objects[g], ctx.attributes[m])

    return {
        frozenset((name(i), name(j)))
        for i, row in enumerate(graph.adjacency)
        for j in bits(row)
    }


def test_contranominal_graph_has_exactly_three_edges(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    assert graph.n == 6
    assert _named_edges(contranominal3, graph) == {
        frozenset((("3", "a"), ("1", "c"))),
        frozenset((("2", "a"), ("1", "b"))),
        frozenset((("3", "b"), ("2", "c"))),
    }
    assert [len(c) for c in of.components(graph)] == [2, 2, 2]
    assert of.isolated_pairs(graph) == frozenset()


def test_forced_overlap_components(forced_overlap):
    graph = of.build_incompatibility_graph(forced_overlap)
    comps = of.components(graph)
    assert len(comps) == 2
    singleton = min(comps, key=len)
    assert len(singleton) == 1
    g, m = graph.vertices[singleton[0]]
    assert (forced_overlap.objects[g], forced_overlap.attributes[m]) == ("6", "f")
    assert of.isolated_pairs(graph) == {graph.vertices[singleton[0]]}


def test_full_incidence_graph_is_edgeless():
    ctx = FormalContext(("g", "h"), ("m", "n"), (3, 3))
    graph = of.build_incompatibility_graph(ctx)
    assert graph.edge_count == 0
    assert of.isolated_pairs(graph) == frozenset(ctx.pairs())
    assert len(of.components(graph)) == 4


def test_vertices_are_incidences_in_lexicographic_order(monuments):
    graph = of.build_incompatibility_graph(monuments)
    assert list(graph.vertices) == monuments.pairs()
    assert list(graph.vertices) == sorted(graph.vertices)


def test_adjacency_matches_pair_rule(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """Both builders give the pair rule's graph, with IncidencePair
    vertices: the pair loop and the masked product, on the fixtures,
    random squares, non-square shapes at densities 0.1-0.9, the "not
    below" contexts of 6-14 element posets, wide sparse contexts, a
    context with an empty row and an empty column, a full incidence and
    the empty context."""
    contexts = [monuments, contranominal3, forced_overlap, persistent_odd_cycle]
    contexts += [
        random_context(
            GeneratorSpec(objects=6, attributes=7, density=0.5, seed=seed)
        )
        for seed in range(5)
    ]
    contexts += [
        random_context(GeneratorSpec(objects, attributes, tenths / 10, seed))
        for objects, attributes in ((3, 9), (9, 3), (1, 8), (8, 1))
        for tenths in range(1, 10, 2)
        for seed in range(2)
    ]
    contexts += [
        of.poset_to_context(three_order_poset(n, seed))
        for n in range(6, 15, 2)
        for seed in range(2)
    ]
    contexts += [random_context(GeneratorSpec(3, 200, 0.02, s)) for s in range(3)]
    contexts += [
        FormalContext.from_strings("abc", "xyz", ["X.X", "...", "X.X"]),
        FormalContext.from_strings("ab", "xyz", ["XXX", "XXX"]),
        FormalContext((), (), ()),
    ]
    for ctx in contexts:
        graphs = (of.build_incompatibility_graph(ctx), product_graph(ctx))
        assert graphs[0] == graphs[1]
        for graph in graphs:
            assert graph.vertices == tuple(ctx.pairs())
            assert all(type(pair) is IncidencePair for pair in graph.vertices)
            for i, (g, m) in enumerate(graph.vertices):
                for j, (h, n) in enumerate(graph.vertices):
                    clash = not ctx.has(g, n) and not ctx.has(h, m)
                    assert bool(graph.adjacency[i] >> j & 1) == clash


def test_bipartition_coloring_is_proper_and_deterministic(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    everything = (1 << graph.n) - 1
    assert of.bipartition(graph).is_bipartite
    first, cycle = two_color(graph.adjacency, everything)
    assert cycle is None
    assert two_color(graph.adjacency, everything) == (first, None)
    for i, row in enumerate(graph.adjacency):
        for j in bits(row):
            assert first >> i & 1 != first >> j & 1
    for comp in of.components(graph):
        assert not first >> min(comp) & 1


def test_bipartition_odd_cycle_on_monuments(monuments):
    graph = of.build_incompatibility_graph(monuments)
    witness = of.bipartition(graph)
    assert not witness.is_bipartite
    cycle = witness.odd_cycle
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.adjacency[a] >> b & 1


def _isolated_triangle(graph):
    return None, tuple(v for v in range(graph.n) if not graph.adjacency[v])[:3]


@pytest.mark.parametrize(
    "name, witness, message",
    [
        ("contranominal3", lambda graph: (0, None), "coloring violates an edge"),
        ("contranominal3", lambda graph: (None, (0, 1)), "not a simple odd cycle"),
        ("monuments", _isolated_triangle, "cycle edge .* missing"),
    ],
)
def test_bipartition_refuses_a_wrong_witness(monkeypatch, name, witness, message):
    """Each witness of ``two_color`` is checked before ``bipartition``
    returns it: a coloring with both ends of an edge on one side, an
    even cycle, and three isolated vertices as a cycle each raise."""
    graph = of.build_incompatibility_graph(of.load_dataset(name))
    monkeypatch.setattr(
        "ordfactor.incompat.two_color", lambda adj, active: witness(graph)
    )
    with pytest.raises(AssertionError, match=message):
        of.bipartition(graph)


def test_two_color_agrees_with_reference_on_vertex_deletions(
    persistent_odd_cycle,
):
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    rng = random.Random(7)
    for _ in range(40):
        deleted = set(rng.sample(range(graph.n), rng.randrange(graph.n)))
        active = sum(1 << v for v in range(graph.n) if v not in deleted)
        ones, cycle = two_color(graph.adjacency, active)
        assert (cycle is None) == induced_bipartite(graph, deleted)
        if cycle is None:
            assert ones & ~active == 0
            for v in bits(active):
                for w in bits(graph.adjacency[v]):
                    assert w in deleted or ones >> v & 1 != ones >> w & 1
        else:
            assert len(cycle) % 2 == 1
            assert len(set(cycle)) == len(cycle)
            assert not deleted & set(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert graph.adjacency[a] >> b & 1


def test_two_color_matches_queue_reference(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """The layered sweep gives the queue BFS's verdict and, on bipartite
    inputs, the very same colors; its odd cycles may differ but stay
    simple, odd and inside ``active``."""
    contexts = [monuments, contranominal3, forced_overlap, persistent_odd_cycle]
    for size in range(3, 16):
        for density in (0.3, 0.5, 0.7):
            contexts.append(
                random_context(
                    GeneratorSpec(
                        objects=size,
                        attributes=size,
                        density=density,
                        seed=100 * size + int(10 * density),
                    )
                )
            )
    rng = random.Random(11)
    verdicts = set()
    for ctx in contexts:
        graph = of.build_incompatibility_graph(ctx)
        everything = (1 << graph.n) - 1
        masks = [everything] + [rng.getrandbits(graph.n) for _ in range(12)]
        for active in masks:
            ones, cycle = two_color(graph.adjacency, active)
            ref_color, ref_cycle = reference_two_color(graph.adjacency, active)
            assert (cycle is None) == (ref_cycle is None)
            verdicts.add(cycle is None)
            if cycle is None:
                assert set(ref_color) == set(bits(active))
                assert ones == sum(1 << v for v, c in ref_color.items() if c)
                continue
            assert ones is None
            assert len(cycle) % 2 == 1 and len(cycle) >= 3
            assert len(set(cycle)) == len(cycle)
            assert all(active >> v & 1 for v in cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert graph.adjacency[a] >> b & 1
    assert verdicts == {True, False}


def test_single_edge_graph_is_bipartite():
    ctx = FormalContext(("g", "h"), ("m", "n"), (1, 2))
    graph = of.build_incompatibility_graph(ctx)
    assert graph.edge_count == 1
    assert of.bipartition(graph).is_bipartite


def test_transposition_preserves_incompatibility():
    for seed in range(15):
        ctx = random_context(
            GeneratorSpec(objects=4, attributes=5, density=0.45, seed=seed)
        )
        graph = of.build_incompatibility_graph(ctx)
        dual = FormalContext(
            ctx.attributes, ctx.objects, tuple(transpose(ctx.rows, ctx.n_attributes))
        )
        flipped = of.build_incompatibility_graph(dual)
        original = {
            frozenset((graph.vertices[i], graph.vertices[j]))
            for i, row in enumerate(graph.adjacency)
            for j in bits(row)
        }
        swapped = {
            frozenset(
                (
                    IncidencePair(g, m)
                    for m, g in (flipped.vertices[i], flipped.vertices[j])
                )
            )
            for i, row in enumerate(flipped.adjacency)
            for j in bits(row)
        }
        assert original == swapped


def test_persistent_fixture_has_odd_cycle(persistent_odd_cycle):
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    witness = of.bipartition(graph)
    assert not witness.is_bipartite


def test_published_transversal_induces_bipartite_subgraph(
    persistent_odd_cycle, published_transversal
):
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    deleted = {graph.vertices.index(p) for p in published_transversal}
    assert len(deleted) == 17
    assert induced_bipartite(graph, deleted)


def test_removal_can_create_new_incompatibilities(
    persistent_odd_cycle, published_transversal
):
    """Removing incidences and rebuilding the graph is not the same as
    deleting vertices: new edges appear and an odd cycle survives."""
    ctx = persistent_odd_cycle
    before = of.build_incompatibility_graph(ctx)
    after_ctx = of.remove_incidences(ctx, published_transversal)
    after = of.build_incompatibility_graph(after_ctx)
    new_edges = _named_edges(after_ctx, after) - _named_edges(ctx, before)
    assert new_edges
    assert not of.bipartition(after).is_bipartite


def _sweep_inputs(persistent_odd_cycle):
    """(graph, active) pairs: 40 seeded vertex deletions from the 18x18
    fixture, then seeded random contexts under a few random masks."""
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    rng = random.Random(7)
    for _ in range(40):
        deleted = set(rng.sample(range(graph.n), rng.randrange(graph.n)))
        yield graph, sum(1 << v for v in range(graph.n) if v not in deleted)
    rng = random.Random(13)
    for size in range(4, 13):
        for density in (0.3, 0.5, 0.7):
            graph = of.build_incompatibility_graph(
                random_context(
                    GeneratorSpec(size, size, density, 10 * size + size % 3)
                )
            )
            everything = (1 << graph.n) - 1
            yield graph, everything
            for _ in range(3):
                yield graph, rng.getrandbits(graph.n)


def test_pack_odd_cycles_matches_restarted_reference(persistent_odd_cycle):
    """Resuming the sweep packs the same cycles, in the same order, as
    restarting ``two_color`` after each one; a bipartite subgraph packs
    none, and a limit keeps the first cycles of the whole packing."""
    packings = empty = 0
    for graph, active in _sweep_inputs(persistent_odd_cycle):
        expected = [
            sum(1 << v for v in cycle)
            for cycle in reference_disjoint_odd_cycles(graph.adjacency, active)
        ]
        assert pack_odd_cycles(graph.adjacency, active, graph.n) == expected
        for limit in range(len(expected) + 2):
            packed = pack_odd_cycles(graph.adjacency, active, limit)
            assert packed == expected[:limit]
        packings += len(expected) > 1
        empty += not expected
    assert packings >= 20 and empty >= 1


def _graphs_with_isolated_vertices():
    """(adjacency, active) pairs where some vertices have no active
    neighbour: an edgeless graph, a 16-leaf star on vertex 0 beside the
    triangle 17, 18, 19 (whole, without the star's centre, without a
    triangle vertex), and the empty mask."""
    star = [0] * 20
    for leaf in range(1, 17):
        star[0] |= 1 << leaf
        star[leaf] = 1
    for v in (17, 18, 19):
        star[v] = 0b111 << 17 & ~(1 << v)
    everything = (1 << 20) - 1
    yield (0,) * 6, (1 << 6) - 1
    yield star, everything
    yield star, everything & ~1
    yield star, everything & ~(1 << 18)
    yield star, 0


def test_components_match_networkx(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """``components`` gives networkx's parts as sorted tuples, ordered by
    smallest member: on the fixtures, on the graphs with isolated
    vertices (each active mask's induced subgraph, its other vertices
    left isolated) and on a planted 100x100 context."""
    nx = pytest.importorskip("networkx")
    graphs = [
        product_graph(ctx)
        for ctx in (
            monuments,
            contranominal3,
            forced_overlap,
            persistent_odd_cycle,
            planted_context(100, 0),
        )
    ]
    for adj, active in _graphs_with_isolated_vertices():
        rows = [adj[v] & active if active >> v & 1 else 0 for v in range(len(adj))]
        vertices = tuple(IncidencePair(v, 0) for v in range(len(adj)))
        graphs.append(IncompatibilityGraph(vertices, tuple(rows)))
    isolated = 0
    for graph in graphs:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.n))
        nxg.add_edges_from(
            (i, j) for i in range(graph.n) for j in bits(graph.adjacency[i])
        )
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(nxg))
        assert components(graph) == expected
        isolated += sum(len(part) == 1 for part in expected)
    assert isolated >= 1000


def test_a_sweep_answers_once(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """``sweep`` returns one triple: the union of the parts of a
    tests-local split of ``active`` before its first part that
    :func:`reference_two_color` finds an odd cycle in, their odd masks,
    and an odd cycle of that part; on a bipartite subgraph, every part,
    every odd mask and ``None``.  The queue reference may close another
    cycle than the layered sweep, so the walk is checked as a simple
    odd cycle inside that part."""
    inputs = [
        (product_graph(ctx).adjacency, None)
        for ctx in (monuments, contranominal3, forced_overlap, persistent_odd_cycle)
    ]
    inputs += [
        (graph.adjacency, active)
        for graph, active in _sweep_inputs(persistent_odd_cycle)
    ]
    inputs += _graphs_with_isolated_vertices()
    clashes = bipartite = 0
    for adj, active in inputs:
        if active is None:
            active = (1 << len(adj)) - 1
        passed = ones = 0
        clashing = None
        for part in reference_parts(adj, active):
            color, cycle = reference_two_color(adj, part)
            if cycle is not None:
                clashing = part
                break
            passed |= part
            ones |= sum(1 << v for v, c in color.items() if c)
        got_passed, got_ones, walk = sweep(adj, active)
        assert (got_passed, got_ones) == (passed, ones)
        assert (walk is None) == (clashing is None)
        if walk is None:
            assert passed == active
            bipartite += 1
            continue
        cycle = [bit.bit_length() - 1 for bit in walk]
        assert all(bit == 1 << v for bit, v in zip(walk, cycle))
        assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle) >= 3
        assert sum(walk) & ~clashing == 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert adj[a] >> b & 1
        clashes += 1
    assert clashes >= 20 and bipartite >= 10


def test_sweep_is_a_plain_function():
    """``sweep`` returns its one answer; a generator could come back to
    yield a triple per component unnoticed."""
    assert inspect.isgeneratorfunction(incompat.sweep) is False
