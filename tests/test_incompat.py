"""Incompatibility graph construction, bipartiteness, components."""
import random

import pytest

import ordfactor as of
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.incompat import two_color
from ordfactor.oracle import GeneratorSpec, random_context

from conftest import induced_bipartite


def _named_edges(ctx, graph):
    def name(i):
        g, m = graph.vertices[i]
        return (ctx.objects[g], ctx.attributes[m])

    return {frozenset((name(i), name(j))) for i, j in graph.edges()}


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


def test_adjacency_matches_pair_rule(monuments):
    contexts = [monuments] + [
        random_context(
            GeneratorSpec(objects=6, attributes=7, density=0.5, seed=seed)
        )
        for seed in range(5)
    ]
    for ctx in contexts:
        graph = of.build_incompatibility_graph(ctx)
        for i, (g, m) in enumerate(graph.vertices):
            for j, (h, n) in enumerate(graph.vertices):
                clash = not ctx.has(g, n) and not ctx.has(h, m)
                assert bool(graph.adjacency[i] >> j & 1) == clash


def test_bipartition_coloring_is_proper_and_deterministic(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    first = of.bipartition(graph)
    second = of.bipartition(graph)
    assert first.is_bipartite
    assert first.coloring == second.coloring
    for i, j in graph.edges():
        assert first.coloring[i] != first.coloring[j]
    for comp in of.components(graph):
        assert first.coloring[min(comp)] == 1


def test_bipartition_odd_cycle_on_monuments(monuments):
    graph = of.build_incompatibility_graph(monuments)
    witness = of.bipartition(graph)
    assert not witness.is_bipartite
    cycle = witness.odd_cycle
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.adjacency[a] >> b & 1


def test_two_color_agrees_with_reference_on_vertex_deletions(
    persistent_odd_cycle,
):
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    rng = random.Random(7)
    for _ in range(40):
        deleted = set(rng.sample(range(graph.n), rng.randrange(graph.n)))
        active = sum(1 << v for v in range(graph.n) if v not in deleted)
        color, cycle = two_color(graph.adjacency, active)
        assert (cycle is None) == induced_bipartite(graph, deleted)
        if cycle is None:
            assert set(color) == set(range(graph.n)) - deleted
            for v in color:
                for w in graph.neighbors(v):
                    assert w in deleted or color[v] != color[w]
        else:
            assert len(cycle) % 2 == 1
            assert len(set(cycle)) == len(cycle)
            assert not deleted & set(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert graph.adjacency[a] >> b & 1


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
        flipped = of.build_incompatibility_graph(ctx.transpose())
        original = {
            frozenset((graph.vertices[i], graph.vertices[j]))
            for i, j in graph.edges()
        }
        swapped = {
            frozenset(
                (
                    IncidencePair(g, m)
                    for m, g in (flipped.vertices[i], flipped.vertices[j])
                )
            )
            for i, j in flipped.edges()
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
    deleted = {graph.vertex_index(p) for p in published_transversal}
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


def test_vertex_index_lookup(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    for i, pair in enumerate(graph.vertices):
        assert graph.vertex_index(pair) == i
    with pytest.raises(of.IndexOutOfRange):
        graph.vertex_index(IncidencePair(0, 0))
