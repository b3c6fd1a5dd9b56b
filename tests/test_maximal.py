"""Maximal factorization via odd cycle transversals."""
import inspect
import itertools
import logging
import random
import re
import sys
import time
import types

import pytest

import ordfactor as of
from ordfactor import maximal
from ordfactor.bitset import bits
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.incompat import (
    IncompatibilityGraph,
    pack_odd_cycles,
    product_graph,
)
from ordfactor.maximal import (
    _ExactOct,
    _greedy_cliques,
    _has_4_clique,
    _heuristic_oct,
    max_bipartite_subset,
)
from ordfactor.oracle import (
    GeneratorSpec,
    brute_force_min_removal,
    random_context,
)

from conftest import (
    brute_min_transversal,
    checked_cycle_bound,
    deletes_to_bipartite,
    induced_bipartite,
    planted_context,
    reference_disjoint_odd_cycles,
    reference_exact_oct,
    reference_heuristic_oct,
    reference_packing,
    reference_two_color,
)


def _graph(n, edges):
    vertices = tuple(IncidencePair(0, i) for i in range(n))
    adjacency = [0] * n
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    return IncompatibilityGraph(vertices, tuple(adjacency))


def _cycle(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _complete(n):
    return list(itertools.combinations(range(n), 2))


def _covered_core(ctx, result):
    """Isolated pairs of the incompatibility graph left after removal."""
    kept = of.remove_incidences(ctx, result.removed)
    return of.isolated_pairs(of.build_incompatibility_graph(kept))


def test_bipartite_graph_needs_no_deletion(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    solution = max_bipartite_subset(graph, mode="exact")
    assert solution.deleted == frozenset()


def test_triangle_deletes_lexicographically_smallest_vertex():
    """The search tries the branch vertices in ascending order and
    returns at the first that succeeds; every vertex of a triangle
    succeeds, so the first, vertex 0, is deleted."""
    graph = _graph(3, [(0, 1), (1, 2), (0, 2)])
    solution = max_bipartite_subset(graph, mode="exact")
    assert solution.deleted == {IncidencePair(0, 0)}


def test_five_cycle_deletes_one_vertex():
    graph = _graph(5, [(i, (i + 1) % 5) for i in range(5)])
    solution = max_bipartite_subset(graph, mode="exact")
    assert len(solution.deleted) == 1
    assert solution.deleted == {IncidencePair(0, 0)}


def test_two_disjoint_triangles():
    graph = _graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    solution = max_bipartite_subset(graph, mode="exact")
    assert solution.deleted == {IncidencePair(0, 0), IncidencePair(0, 3)}


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        pytest.param(4, _complete(4), (0, 1), id="K4"),
        pytest.param(
            4, [e for e in _complete(4) if e != (0, 3)], (1,),
            id="K4-minus-edge",
        ),
        pytest.param(
            7, _cycle([0, 1, 2, 3, 4]) + _cycle([4, 5, 6]), (4,),
            id="C5-and-triangle-sharing-a-vertex",
        ),
        pytest.param(
            10, _cycle(list(range(7))) + _cycle([7, 8, 9]), (0, 7),
            id="C7-and-disjoint-triangle",
        ),
        pytest.param(
            10,
            _cycle([0, 1, 2, 3, 4])
            + [(i, i + 5) for i in range(5)]
            + _cycle([5, 7, 9, 6, 8]),
            (0, 2, 6),
            id="petersen",
        ),
        pytest.param(5, _complete(5), (0, 1, 2), id="K5"),
        pytest.param(
            6, _cycle([0, 1, 2, 3, 4]) + [(i, 5) for i in range(5)], (0, 5),
            id="wheel-W5",
        ),
    ],
)
def test_exact_on_overlapping_odd_cycles(n, edges, expected):
    """Odd cycles that share vertices, and more than one deletion per
    component; on these graphs the first minimum the search reaches is
    the brute-force witness, the lex-smallest minimum."""
    graph = _graph(n, edges)
    assert brute_min_transversal(graph.adjacency, (1 << n) - 1) == expected
    solution = max_bipartite_subset(graph, mode="exact")
    deleted_idx = {graph.vertices.index(p) for p in solution.deleted}
    assert tuple(sorted(deleted_idx)) == expected
    # the bounded call behind certify_global_optimality
    k = len(expected)
    assert _ExactOct(graph.adjacency, None).search(k - 1) is None
    assert _ExactOct(graph.adjacency, None).search(k) == expected


def test_exact_matches_brute_force_on_random_graphs():
    checked = 0
    for seed in range(60):
        ctx = random_context(
            GeneratorSpec(
                objects=3 + seed % 3,
                attributes=4 + seed % 2,
                density=0.35 + 0.08 * (seed % 4),
                seed=1000 + seed,
            )
        )
        graph = of.build_incompatibility_graph(ctx)
        if graph.n > 20:
            continue
        solution = max_bipartite_subset(graph, mode="exact")
        deleted_idx = {graph.vertices.index(p) for p in solution.deleted}
        assert induced_bipartite(graph, deleted_idx)
        if len(solution.deleted) <= 3:
            # on these small graphs the first minimum the search
            # reaches is the brute-force lex-smallest one
            everything = (1 << graph.n) - 1
            witness = brute_min_transversal(graph.adjacency, everything)
            assert tuple(sorted(deleted_idx)) == witness
            checked += 1
    assert checked >= 25


def _dominators(adj, core, v):
    """The vertices w != v of ``core`` whose neighbours there include
    all of v's, by brute force, as a mask."""
    nbrs = adj[v] & core
    return sum(1 << w for w in bits(core) if w != v and not nbrs & ~adj[w])


def _seeded_graphs(seed0, count):
    for seed in range(count):
        ctx = random_context(
            GeneratorSpec(
                objects=6 + seed % 4,
                attributes=6 + seed % 3,
                density=0.35 + 0.1 * (seed % 3),
                seed=seed0 + seed,
            )
        )
        yield of.build_incompatibility_graph(ctx).adjacency


def test_exact_unchanged_by_the_odd_cycles_it_packs(monkeypatch, monuments):
    """Packing the queue BFS's cycles, restarted from scratch after
    each one, instead of the resumed sweep's changes no result: both
    packings give the search the same smallest cycle to branch on."""
    graphs = [of.build_incompatibility_graph(monuments).adjacency]
    graphs += _seeded_graphs(500, 19)
    expected = [_ExactOct(adj, None).run(len(adj)) for adj in graphs]
    calls = []
    monkeypatch.setattr(
        "ordfactor.maximal.pack_odd_cycles",
        reference_packing(calls, reference_two_color),
    )
    assert [_ExactOct(adj, None).run(len(adj)) for adj in graphs] == expected
    assert sum(map(bool, expected)) >= 10
    assert len(calls) >= 100


def test_exact_search_visits_the_same_nodes_as_the_restarted_packing(
    monkeypatch,
):
    """The resumed packing finds the restarted packing's cycles in the
    same order, so the search calls ``solve`` just as often."""

    def counted_runs():
        calls = []
        solve = _ExactOct.solve

        def counting(self, active, ub, kept, forbidden):
            calls.append(active)
            return solve(self, active, ub, kept, forbidden)

        with monkeypatch.context() as patch:
            patch.setattr(_ExactOct, "solve", counting)
            results = [_ExactOct(adj, None).run(len(adj)) for adj in graphs]
        return results, len(calls)

    graphs = list(_seeded_graphs(700, 60))
    results, nodes = counted_runs()
    packed = []
    monkeypatch.setattr(
        "ordfactor.maximal.pack_odd_cycles", reference_packing(packed)
    )
    assert counted_runs() == (results, nodes)
    assert packed and nodes > 1000


def _first_minimum(adj, size):
    """The exact search's transversal of the graph ``adj``, checked to
    have ``size`` vertices, to leave a bipartite subgraph and to come
    back unchanged from a second run."""
    answer = _ExactOct(adj, None).run(len(adj))
    assert len(answer) == size
    assert deletes_to_bipartite(adj, answer)
    assert _ExactOct(adj, None).run(len(adj)) == answer
    return answer


def test_deepening_search_matches_the_part_by_part_reference(
    monuments, contranominal3, forced_overlap
):
    """Deepening the bound without splitting a subgraph into its parts
    returns a transversal as small as the reference search's, and the
    capped run behind ``certify_global_optimality`` fails just below
    each answer's size as the reference's bounded search does."""
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(1000, 300)
    sizes = set()
    for adj in graphs:
        expected = reference_exact_oct(adj, None).run()
        _first_minimum(adj, len(expected))
        k = len(expected)
        below = reference_exact_oct(adj, None).search(k - 1) is None
        assert (_ExactOct(adj, None).run(k - 1) is None) == below
        sizes.add(k)
    assert len(sizes) >= 5


def _random_graph(n, density, seed):
    """A graph on ``n`` vertices whose edges are drawn with probability
    ``density``."""
    rng = random.Random(seed)
    return _graph(n, [e for e in _complete(n) if rng.random() < density]).adjacency


def test_greedy_cliques_are_disjoint_cliques_of_4_or_more():
    """The clique list holds vertex-disjoint cliques of at least 4
    vertices, and it is empty exactly when no 4 vertices are pairwise
    adjacent, which is also what the scan in front of it answers."""
    with_cliques = 0
    for seed in range(400):
        n = 5 + seed % 10
        adj = _random_graph(n, (0.3, 0.5, 0.7, 0.9)[seed % 4], seed)
        four = any(
            all(adj[a] >> b & 1 for a, b in itertools.combinations(quad, 2))
            for quad in itertools.combinations(range(n), 4)
        )
        everything = (1 << n) - 1
        assert _has_4_clique(adj, everything) == four
        cliques = _greedy_cliques(adj, everything, None)
        assert bool(cliques) == four
        taken = 0
        for clique in cliques:
            members = list(bits(clique))
            assert len(members) >= 4 and not clique & taken
            assert all(adj[a] >> b & 1 for a, b in itertools.combinations(members, 2))
            taken |= clique
        with_cliques += four
    assert with_cliques >= 150


def test_clique_bound_keeps_the_reference_answers(
    monuments, contranominal3, forced_overlap
):
    """Counting cliques in the bound changes no answer's size: on graphs
    dense enough for 4-cliques, the search returns a transversal as
    small as the reference search's, which counts only packed odd
    cycles, and its capped run fails just below each answer's size as
    the reference's bounded search does."""
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += [
        _random_graph(8 + seed % 5, (0.5, 0.6, 0.7, 0.8)[seed % 4], seed)
        for seed in range(160)
    ]
    graphs += [
        of.build_incompatibility_graph(
            random_context(GeneratorSpec(6 + seed % 3, 7, 0.3 + 0.1 * (seed % 3), seed))
        ).adjacency
        for seed in range(60)
    ]
    counting = 0
    for adj in graphs:
        expected = reference_exact_oct(adj, None).run()
        _first_minimum(adj, len(expected))
        k = len(expected)
        below = reference_exact_oct(adj, None).search(k - 1) is None
        assert (_ExactOct(adj, None).run(k - 1) is None) == below
        counting += bool(_ExactOct(adj, None).cliques)
    assert counting >= 150


def test_every_node_bound_is_at_most_its_minimum(monkeypatch):
    """At every node the search visits, each bound it takes, from the
    cycles its parent passed on or from a fresh packing, is at most the
    brute-force minimum transversal of the node's subgraph.  The counted
    cycles start with the inherited ones and are vertex-disjoint odd
    cycles of the subgraph, and the branch set is a non-bipartite part
    of it, empty exactly when the subgraph is bipartite.  The root is a
    2-core and every node lies inside it.  The clique term must raise a
    fresh bound above the packed cycles' count at some of the nodes, and
    inherited cycles must be counted at some."""
    nodes = {}
    roots = {}
    bound = _ExactOct.bound

    def recording(self, active, kept, ub):
        answer = bound(self, active, kept, ub)
        nodes[tuple(self.adj), active, tuple(kept), ub] = answer
        return answer

    monkeypatch.setattr(_ExactOct, "bound", recording)
    graphs = [_graph(n, _complete(n)).adjacency for n in range(3, 9)]
    graphs.append(
        _graph(8, _complete(5) + _cycle([4, 5, 6]) + [(6, 7), (0, 7)]).adjacency
    )
    graphs += [
        _random_graph(6 + seed % 4, (0.5, 0.6, 0.7, 0.8)[seed % 4], seed)
        for seed in range(160)
    ]
    # sparser graphs, whose nodes inherit cycles more often
    graphs += [_random_graph(10 + seed % 3, 0.4, seed) for seed in range(120)]
    for adj in graphs:
        exact = _ExactOct(adj, None)
        root = roots[tuple(adj)] = exact.active
        assert all((adj[v] & root).bit_count() >= 2 for v in bits(root))
        exact.run(len(adj))
    raised = inherited = 0
    for (adj, active, kept, _), (lower, branch, cycles) in nodes.items():
        minimum = len(brute_min_transversal(adj, active))
        assert lower <= minimum
        assert branch & ~active == 0
        assert (branch == 0) == (minimum == 0)
        if branch:
            assert reference_two_color(adj, branch)[1] is not None
        assert tuple(cycles[: len(kept)]) == kept
        taken = 0
        for cycle in cycles:
            assert cycle & ~active == 0 and not cycle & taken
            assert reference_two_color(adj, cycle)[1] is not None
            taken |= cycle
        assert active & ~roots[adj] == 0
        inherited += bool(kept)
        raised += not kept and lower > len(pack_odd_cycles(adj, active, len(adj)))
    assert len(nodes) >= 1500
    assert raised >= 200
    assert inherited >= 200


def test_peeling_keeps_every_odd_cycle_and_the_minimum():
    """The 2-core of a subgraph leaves every vertex at least 2
    neighbours; each vertex it drops lies on no cycle of the subgraph,
    so on no odd cycle, and the brute-force minimum transversal keeps
    its size."""
    peeled = 0
    for seed in range(320):
        n = 5 + seed % 7
        adj = _random_graph(n, (0.2, 0.3, 0.4, 0.55)[seed % 4], seed)
        active = random.Random(seed).getrandbits(n) | 1
        core = maximal._peel(adj, active)
        assert core & ~active == 0
        assert all((adj[v] & core).bit_count() >= 2 for v in bits(core))
        for v in bits(active & ~core):
            # no neighbour of v reaches another one around v
            for u in bits(adj[v] & active):
                seen = reach = 1 << u
                while reach:
                    reach = 0
                    for w in bits(seen):
                        reach |= adj[w] & active & ~(1 << v) & ~seen
                    seen |= reach
                assert seen & adj[v] == 1 << u
        expected = len(brute_min_transversal(adj, active))
        assert len(brute_min_transversal(adj, core)) == expected
        peeled += core != active
    assert peeled >= 150


def test_exact_search_finds_the_12x12_optimum_within_its_budget():
    """The minimum the slow MILP test proves on (12, 12, 0.5, 2), found
    well inside 10 s: the clique term cuts the search from about 475,000
    nodes to about 9,000."""
    ctx = random_context(GeneratorSpec(12, 12, 0.5, 2))
    graph = of.build_incompatibility_graph(ctx)
    solution = max_bipartite_subset(graph, "exact", budget=10)
    assert len(solution.deleted) == 20
    deleted_idx = {graph.vertices.index(p) for p in solution.deleted}
    assert induced_bipartite(graph, deleted_idx)


def test_exact_search_tree_is_pinned(monkeypatch, monuments):
    """How often the exact search calls ``solve`` pins its tree: a
    change of branching order, or of what a child deletes with its
    branch vertex, can keep every result's size and still move these
    counts."""
    calls = []
    solve = _ExactOct.solve

    def counting(self, active, ub, kept, forbidden):
        calls.append(active)
        return solve(self, active, ub, kept, forbidden)

    monkeypatch.setattr(_ExactOct, "solve", counting)
    contexts = [monuments] + [
        random_context(GeneratorSpec(9, 9, 0.5, seed)) for seed in range(4)
    ]
    contexts.append(random_context(GeneratorSpec(10, 10, 0.5, 1)))
    nodes = []
    for ctx in contexts:
        calls.clear()
        adj = of.build_incompatibility_graph(ctx).adjacency
        _ExactOct(adj, None).run(len(adj))
        nodes.append(len(calls))
    assert nodes == [4, 30, 8, 111, 86, 20]


def test_each_node_is_the_root_core_less_its_path_deletions(
    monkeypatch, monuments, contranominal3, forced_overlap
):
    """In every ``search(k)``, each node's subgraph is the root's 2-core
    less what its path deleted: at each step one branch vertex v and
    D(v), the vertices still active that dominate v in the root core
    (found by brute force).  Its bound is k less the number of deleted
    vertices, and no mask is solved twice in one search.  Hundreds of
    children delete dominators beside their branch vertex.  In two
    triangles that share vertex 4 beside a 5-wheel, deleting 4 leaves
    four vertices of degree 1 that no node peels.  Each answer at a node
    is a transversal of its subgraph with exactly as many vertices as
    its bound."""
    searches = []
    handoff = []
    branches = []
    followers = []
    search = _ExactOct.search
    solve = _ExactOct.solve
    bound = _ExactOct.bound

    def searching(self, ub):
        searches.append((self.adj, self.active, ub, []))
        return search(self, ub)

    def bounding(self, active, kept, ub):
        answer = bound(self, active, kept, ub)
        branches.append(answer[1])
        return answer

    def recording(self, active, ub, kept, forbidden):
        # search starts each child as soon as its parent yields it
        deleted = handoff.pop() if handoff else 0
        node = [active, ub, deleted, None]
        searches[-1][3].append(node)
        branches.clear()
        inner = solve(self, active, ub, kept, forbidden)
        answer = branch = None
        while True:
            try:
                request = inner.send(answer)
            except StopIteration as done:
                node[3] = done.value
                return done.value
            if branch is None:
                # the node's own bounds, all taken before its first child
                branch = 0
                for mask in branches:
                    branch |= mask
            gone = active & ~request[0]
            assert any(
                gone == 1 << v | _dominators(self.adj, self.active, v) & active
                for v in bits(gone & branch)
            )
            handoff.append(deleted | gone)
            followers.append(gone.bit_count() - 1)
            answer = yield request

    monkeypatch.setattr(_ExactOct, "search", searching)
    monkeypatch.setattr(_ExactOct, "bound", bounding)
    monkeypatch.setattr(_ExactOct, "solve", recording)
    bowtie = _cycle([0, 1, 4]) + _cycle([2, 3, 4])
    wheel = _cycle([5, 6, 7, 8, 9]) + [(v, 10) for v in range(5, 10)]
    adj = _graph(11, bowtie + wheel).adjacency
    exact = _ExactOct(adj, None)
    assert exact.active == (1 << 11) - 1
    assert exact.run(11) == (4, 5, 10)
    assert [k for _, _, k, _ in searches] == [2, 3]
    assert any(maximal._peel(adj, n[0]) != n[0] for n in searches[-1][3])
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(1000, 400)
    for adj in graphs:
        _ExactOct(adj, None).run(len(adj))
    count = 0
    for adj, root, k, nodes in searches:
        for active, ub, deleted, answer in nodes:
            assert active == root & ~deleted
            assert ub == k - deleted.bit_count()
            if answer is not None:
                assert len(answer) == ub
                kept = active & ~sum(1 << v for v in answer)
                assert reference_two_color(adj, kept)[1] is None
        assert len({active for active, *_ in nodes}) == len(nodes)
        count += len(nodes)
    assert count >= 5000
    # children that deleted dominators beside their branch vertex
    assert sum(map(bool, followers)) >= 500
    answers = [(ub, answer) for *_, nodes in searches for _, ub, _, answer in nodes]
    assert any(answer is not None and ub > 0 for ub, answer in answers)
    assert any(answer is None and ub > 0 for ub, answer in answers)


def test_a_bound_capped_at_ub_keeps_every_bound_up_to_ub(
    monuments, contranominal3, forced_overlap
):
    """The root bound capped at any ``ub`` from -1 to n equals the
    uncapped bound when that is at most ``ub``, and exceeds ``ub``
    otherwise, so ``run(ub)`` starts at the same k and a node prunes
    exactly when the uncapped bound would prune it."""
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(4000, 100)
    graphs += [
        _random_graph(8 + seed % 5, (0.4, 0.6, 0.8)[seed % 3], seed)
        for seed in range(100)
    ]
    capped = 0
    for adj in graphs:
        n = len(adj)
        exact = _ExactOct(adj, None)
        whole = exact.bound(exact.active, (), n)[0]
        for ub in range(-1, n + 1):
            lower = exact.bound(exact.active, (), ub)[0]
            if whole <= ub:
                assert lower == whole
            else:
                assert ub < lower <= whole
                capped += lower < whole
    assert capped >= 100


def test_the_11x11_seed_7_search_is_pinned(monkeypatch):
    """``random_context(GeneratorSpec(11, 11, 0.5, 7))`` pins a larger
    tree than :func:`test_exact_search_tree_is_pinned`: its answer, the
    capped run below it and the number of ``solve`` calls each makes."""
    calls = []
    solve = _ExactOct.solve

    def counting(self, active, ub, kept, forbidden):
        calls.append(active)
        return solve(self, active, ub, kept, forbidden)

    monkeypatch.setattr(_ExactOct, "solve", counting)
    ctx = random_context(GeneratorSpec(11, 11, 0.5, 7))
    adj = of.build_incompatibility_graph(ctx).adjacency
    answer = _ExactOct(adj, None).run(len(adj))
    assert answer == (
        10, 13, 18, 24, 25, 28, 29, 30, 31, 34, 35, 39, 51, 62, 63
    )
    assert len(calls) == 3_389
    calls.clear()
    assert _ExactOct(adj, None).run(len(answer) - 1) is None
    assert len(calls) == 1_063


def test_the_persistent_search_is_pinned(monkeypatch, persistent_odd_cycle):
    """The search on ``persistent_odd_cycle``, the benchmark's budget
    probe: its 12-vertex answer and the ``solve`` calls of that run and
    of the capped run below it."""
    calls = []
    solve = _ExactOct.solve

    def counting(self, active, ub, kept, forbidden):
        calls.append(active)
        return solve(self, active, ub, kept, forbidden)

    monkeypatch.setattr(_ExactOct, "solve", counting)
    adj = product_graph(persistent_odd_cycle).adjacency
    answer = _ExactOct(adj, None).run(len(adj))
    assert len(answer) == 12 and deletes_to_bipartite(adj, answer)
    assert len(calls) == 768
    calls.clear()
    assert _ExactOct(adj, None).run(11) is None
    assert len(calls) == 725


def test_the_children_partition_their_parents_transversals(
    monkeypatch, monuments, contranominal3, forced_overlap
):
    """A child of a node deletes one branch vertex v with D(v), the
    vertices still active that dominate v in the root core (found by
    brute force), and its bound is the node's less their number.  The
    node's forbidden vertices only grow, by one vertex per earlier
    sibling or skipped branch vertex, in ascending order: after a
    child fails its v is forbidden, and a vertex is skipped, forbidden
    without a child, only when its D(v) meets the forbidden vertices or
    it and D(v) exceed the bound.  A child deletes no forbidden vertex,
    and a node that succeeds adds what its last child deleted to that
    child's answer.  No answer holds a vertex its node may not delete,
    and the answer sizes and the capped run below each one still agree
    with the reference search."""
    nodes = []
    solve = _ExactOct.solve

    def recording(self, active, ub, kept, forbidden):
        inner = solve(self, active, ub, kept, forbidden)
        children = []
        answer = None
        while True:
            try:
                request = inner.send(answer)
            except StopIteration as done:
                node = (active, ub, forbidden, children, done.value)
                nodes.append((self.adj, self.active, *node))
                return done.value
            answer = yield request
            children.append((request, answer))

    monkeypatch.setattr(_ExactOct, "solve", recording)
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(2000, 200)
    graphs += [_random_graph(9 + seed % 4, 0.45, seed) for seed in range(60)]
    for adj in graphs:
        expected = reference_exact_oct(adj, None).run()
        _first_minimum(adj, len(expected))
        k = len(expected)
        below = reference_exact_oct(adj, None).search(k - 1) is None
        assert (_ExactOct(adj, None).run(k - 1) is None) == below
    later = skipped = 0
    for adj, core, active, ub, forbidden, children, answer in nodes:
        assert forbidden & ~active == 0
        if answer is not None:
            assert sum(1 << v for v in answer) & forbidden == 0
        before = forbidden
        last = -1
        for i, (request, sub) in enumerate(children):
            gone = active & ~request[0]
            assert request[1] == ub - gone.bit_count()
            assert request[3] & before == before and not request[3] & gone
            # the branch vertices skipped since the previous child
            for u in bits(request[3] & ~before):
                lost = 1 << u | _dominators(adj, core, u) & active
                assert u > last
                assert lost & before or lost.bit_count() > ub
                before |= 1 << u
                last = u
                skipped += 1
            candidates = [
                v
                for v in bits(gone)
                if v > last and gone == 1 << v | _dominators(adj, core, v) & active
            ]
            if i + 1 < len(children):
                assert sub is None
                grown = children[i + 1][0][3] & ~request[3]
                v = (grown & -grown).bit_length() - 1
                assert v in candidates
                before |= 1 << v
                last = v
                later += 1
            else:
                assert candidates
        if children and answer is not None:
            (request, sub) = children[-1]
            gone = active & ~request[0]
            assert len(answer) == len(sub) + gone.bit_count()
            assert set(answer) - set(sub) == set(bits(gone))
    assert later >= 4000
    assert skipped >= 300
    assert any(forbidden and answer is not None for *_, forbidden, _, answer in nodes)


def test_the_cached_dominators_are_the_brute_force_ones():
    """The dominators the search finds for a branch vertex v, from the
    neighbours of one neighbour of v, and caches are the vertices
    w != v of the root core with N(v) <= N(w) there, found by brute
    force; so are those it finds for every other vertex of the core."""
    cached = dominated = 0
    for adj in _seeded_graphs(1000, 300):
        exact = _ExactOct(adj, None)
        exact.run(len(adj))
        core = exact.active
        for v, mask in exact.known_dominators.items():
            assert core >> v & 1 and mask == _dominators(adj, core, v)
            cached += 1
        for v in bits(core):
            assert exact.dominators(v) == _dominators(adj, core, v)
            dominated += bool(exact.dominators(v))
    assert cached >= 1500
    assert dominated >= 3000


def test_every_reference_minimum_is_closed_under_domination():
    """The lemma behind the search's rule, checked on a search that
    shares no code with it: when N(u) <= N(w) in the root core, every
    minimum transversal that holds u holds w, so each lexicographically
    smallest minimum of :class:`reference_exact_oct` that holds a
    dominated vertex holds all of its dominators."""
    pairs = constrained = 0
    for adj in _seeded_graphs(1000, 300):
        answer = set(reference_exact_oct(adj, None).run())
        core = maximal._peel(adj, (1 << len(adj)) - 1)
        for u in bits(core):
            for w in bits(_dominators(adj, core, u)):
                pairs += 1
                if u in answer:
                    assert w in answer
                    constrained += 1
    assert pairs >= 8000
    assert constrained >= 150


def test_the_partition_changes_no_answer(monkeypatch, persistent_odd_cycle):
    """Forbidding the earlier siblings' branch vertices prunes only
    children that fail, so every answer and every capped run is the
    one the search gives when no node forbids anything, on fewer
    nodes."""

    def answers():
        calls.clear()
        results = []
        for adj in graphs:
            exact = _ExactOct(adj, None)
            answer = exact.run(len(adj))
            results.append((answer, exact.run(len(answer) - 1)))
        return results, len(calls)

    calls = []
    solve = _ExactOct.solve

    def counting(self, active, ub, kept, forbidden):
        calls.append(active)
        return solve(self, active, ub, kept, forbidden)

    def unforbidden(self, active, ub, kept, forbidden):
        calls.append(active)
        return solve(self, active, ub, kept, 0)

    graphs = [of.build_incompatibility_graph(persistent_odd_cycle).adjacency]
    graphs += _seeded_graphs(3000, 300)
    graphs += [_random_graph(10 + seed % 5, 0.4, seed) for seed in range(100)]
    monkeypatch.setattr(_ExactOct, "solve", counting)
    partitioned, fewer = answers()
    monkeypatch.setattr(_ExactOct, "solve", unforbidden)
    whole, more = answers()
    assert partitioned == whole
    assert fewer < 0.8 * more


def _milp_oct(adjacency):
    """A minimum odd cycle transversal of the graph by scipy's MILP
    solver, as a set of vertex indices; it reads only ``adjacency``.

    x_v = 1 deletes v and s_v is its side.  Per edge uv,
    s_u + s_v + x_u + x_v >= 1 keeps u and v off side 0 together and
    s_u + s_v - x_u - x_v <= 1 keeps them off side 1 together, unless
    one of them is deleted.
    """
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adjacency[u] >> v & 1]
    rows = np.zeros((2 * len(edges), 2 * n))
    for k, (u, v) in enumerate(edges):
        rows[2 * k, [u, v, n + u, n + v]] = 1
        rows[2 * k + 1, [n + u, n + v]] = 1
        rows[2 * k + 1, [u, v]] = -1
    lower = np.tile([1, -np.inf], len(edges))
    upper = np.tile([np.inf, 1], len(edges))
    result = optimize.milp(
        np.concatenate([np.ones(n), np.zeros(n)]),
        constraints=optimize.LinearConstraint(rows, lower, upper),
        integrality=np.ones(2 * n),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    return {v for v in range(n) if result.x[v] > 0.5}


@pytest.mark.slow
@pytest.mark.parametrize(
    "ctx, optimum",
    [
        (random_context(GeneratorSpec(12, 12, 0.5, 2)), 20),
        (of.load_dataset("persistent_odd_cycle"), 12),
    ],
    ids=["random-12x12-seed2", "persistent_odd_cycle"],
)
def test_milp_proves_the_slow_optima(ctx, optimum):
    """The MILP oracle's minimum on inputs it needs 30 s to minutes
    for, and the exact search's, which takes about 0.1 s on the 12x12
    context and about 0.3 s on the fixture, whose graph has no
    4-clique."""
    graph = of.build_incompatibility_graph(ctx)
    milp = _milp_oct(graph.adjacency)
    assert induced_bipartite(graph, milp)
    assert len(milp) == optimum
    assert len(max_bipartite_subset(graph, "exact").deleted) == optimum


def test_exact_search_matches_a_milp_oracle(monuments):
    """The monuments graph and the first-round graphs of the random
    repair_exact bench inputs; their optima are 2, 7, 5, 11 and 10."""
    contexts = [monuments] + [
        random_context(GeneratorSpec(n, n, 0.5, d)) for n in (9, 10) for d in (0, 1)
    ]
    sizes = []
    for ctx in contexts:
        graph = of.build_incompatibility_graph(ctx)
        milp = _milp_oct(graph.adjacency)
        assert induced_bipartite(graph, milp)
        exact = _ExactOct(graph.adjacency, None).run(graph.n)
        assert len(exact) == len(milp)
        sizes.append(len(exact))
    assert sizes == [2, 7, 5, 11, 10]


def test_heuristic_never_beats_exact():
    for seed in range(25):
        ctx = random_context(
            GeneratorSpec(objects=4, attributes=5, density=0.4, seed=seed)
        )
        graph = of.build_incompatibility_graph(ctx)
        exact = max_bipartite_subset(graph, mode="exact")
        heur = max_bipartite_subset(graph, mode="heuristic", seed=3)
        deleted_idx = {graph.vertices.index(p) for p in heur.deleted}
        assert induced_bipartite(graph, deleted_idx)
        assert len(heur.deleted) >= len(exact.deleted)


def test_heuristic_matches_rescanning_reference(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """The bit-sliced conflict counts change no choice of the search:
    the same evicted tuple as a full rescan per step, seed by seed.
    Complete graphs up to K17 and stars up to 16 leaves take counts
    up to 16, so borrows and carries cross every plane boundary; an
    edgeless graph has no planes at all.  The three round graphs of the
    pinned seed-0 persistent run, on which its 74/3 pin rests, are
    compared too."""
    contexts = [monuments, contranominal3, forced_overlap]
    for size in (4, 6, 8, 10):
        for density in (0.3, 0.5, 0.7):
            contexts.append(
                random_context(
                    GeneratorSpec(
                        objects=size,
                        attributes=size,
                        density=density,
                        seed=size,
                    )
                )
            )
    contexts.append(random_context(GeneratorSpec(12, 12, 0.5, 12)))
    graphs = [of.build_incompatibility_graph(ctx).adjacency for ctx in contexts]
    graphs += [_graph(n, _complete(n)).adjacency for n in range(2, 18)]
    graphs += [
        _graph(k + 1, [(0, leaf) for leaf in range(1, k + 1)]).adjacency
        for k in (1, 2, 4, 8, 16)
    ]
    graphs.append(_graph(6, []).adjacency)
    evicting = 0
    for adj in graphs:
        for seed in (0, 7):
            expected = reference_heuristic_oct(adj, seed, None)
            assert _heuristic_oct(adj, seed, None) == expected
            evicting += bool(expected)
    assert evicting >= 50
    # the first-round graph of the pinned seed-0 run
    adj = of.build_incompatibility_graph(persistent_odd_cycle).adjacency
    assert len(adj) == 273
    assert _heuristic_oct(adj, 0, None) == reference_heuristic_oct(adj, 0, None)
    # its second- and third-round graphs
    ctx = persistent_odd_cycle
    graph = of.build_incompatibility_graph(ctx)
    for size in (230, 207):
        deleted = max_bipartite_subset(graph, "heuristic").deleted
        ctx = of.remove_incidences(ctx, deleted)
        graph = of.build_incompatibility_graph(ctx)
        assert graph.n == size
        expected = reference_heuristic_oct(graph.adjacency, 0, None)
        assert _heuristic_oct(graph.adjacency, 0, None) == expected


def test_heuristic_under_zero_budget(persistent_odd_cycle):
    """A spent budget still yields a valid answer: one restart per
    round, so more removals than the unbudgeted 74 in 3 rounds."""
    result = of.maximal_two_factorization(
        persistent_odd_cycle, mode="heuristic", budget=0.0, seed=0
    )
    assert of.validate_factorization(persistent_odd_cycle, result) == []
    assert len(result.removed) == 100
    assert result.rounds == 4
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    solution = max_bipartite_subset(graph, "heuristic", budget=0.0)
    deleted_idx = {graph.vertices.index(p) for p in solution.deleted}
    assert induced_bipartite(graph, deleted_idx)


def test_heuristic_deterministic_per_seed(monuments):
    graph = of.build_incompatibility_graph(monuments)
    first = max_bipartite_subset(graph, mode="heuristic", seed=5)
    second = max_bipartite_subset(graph, mode="heuristic", seed=5)
    assert first.deleted == second.deleted


def test_unknown_mode_rejected(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    with pytest.raises(ValueError):
        max_bipartite_subset(graph, mode="quantum")


@pytest.mark.parametrize(
    "name",
    ["contranominal3", "forced_overlap", "monuments", "persistent_odd_cycle"],
)
def test_maximal_rejects_an_unknown_mode_whether_or_not_a_round_runs(name):
    """The first two fixtures are bipartite already, so no transversal
    search runs on them; the mode is still checked."""
    ctx = of.load_dataset(name)
    with pytest.raises(ValueError, match="'bogus'"):
        of.maximal_two_factorization(ctx, mode="bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        of.maximal_two_factorization(FormalContext((), (), ()), mode="bogus")


def test_monuments_exact_removal(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    removed = {
        (monuments.objects[g], monuments.attributes[m])
        for g, m in result.removed
    }
    assert removed == {
        ("Temple of Romulus", "GB1"),
        ("Basilica of Maxentius", "B"),
    }
    assert result.rounds == 1
    assert result.certificate
    assert of.validate_factorization(monuments, result) == []
    assert result.shared == _covered_core(monuments, result)
    assert len(result.covered) == 42


def test_monuments_exact_deterministic(monuments):
    first = of.maximal_two_factorization(monuments, mode="exact")
    second = of.maximal_two_factorization(monuments, mode="exact")
    assert first == second


def test_a_transversal_loop_that_removes_nothing_is_stopped(
    monkeypatch, monuments
):
    """Each round removes at least one incidence, so the loop ends
    within as many rounds as there are incidences, or raises."""
    monkeypatch.setattr(
        "ordfactor.maximal.max_bipartite_subset",
        lambda *args: of.OctSolution(frozenset()),
    )
    with pytest.raises(AssertionError, match="failed to terminate"):
        of.maximal_two_factorization(monuments)


def test_factorizable_context_passes_through(forced_overlap):
    direct = of.two_factorize(forced_overlap)
    looped = of.maximal_two_factorization(forced_overlap, mode="exact")
    assert looped == direct
    assert looped.removed == frozenset()
    assert looped.rounds == 0
    assert looped.certificate


def test_certify_global_optimality(monuments, forced_overlap):
    exact = of.maximal_two_factorization(monuments, mode="exact")
    assert of.certify_global_optimality(monuments, exact)
    clean = of.maximal_two_factorization(forced_overlap, mode="exact")
    assert of.certify_global_optimality(forced_overlap, clean)


def test_a_spent_budget_still_runs_the_root_node(
    forced_overlap, persistent_odd_cycle
):
    """The clock is read between subproblems, never before the root: a
    zero budget still answers a graph that needs no subproblem, and
    runs out of time on one that does.  Each bound below the root's
    lower bound fails at the root, so the message reports that bound as
    proven."""
    graph = of.build_incompatibility_graph(forced_overlap)
    assert max_bipartite_subset(graph, "exact", budget=0).deleted == frozenset()
    clean = of.two_factorize(forced_overlap)
    assert of.certify_global_optimality(forced_overlap, clean, budget=0) is True
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    exact = _ExactOct(graph.adjacency, None)
    root = exact.bound(exact.active, (), graph.n)[0]
    assert root == 9
    proven = f"out of time; no transversal below {root} vertices"
    with pytest.raises(of.BudgetExceeded, match=proven) as caught:
        max_bipartite_subset(graph, "exact", budget=0)
    assert caught.value.lower_bound == root


@pytest.mark.parametrize("k", [30, 40])
def test_exact_meets_the_checked_cycle_bound_on_planted_contexts(k):
    """On contexts far past brute force, the exact removal is exactly
    as large as a packing of vertex-disjoint odd cycles, checked on the
    rows alone, so it is the optimum; the 3 planted incidences bound it
    from above.  The seed-0 heuristic's excess is printed, not bound."""
    for seed in range(6):
        ctx = planted_context(k, seed)
        graph = of.build_incompatibility_graph(ctx)
        cycles = reference_disjoint_odd_cycles(graph.adjacency, (1 << graph.n) - 1)
        bound = checked_cycle_bound(
            ctx, [[graph.vertices[v] for v in cycle] for cycle in cycles]
        )
        result = of.maximal_two_factorization(ctx, mode="exact")
        assert of.validate_factorization(ctx, result) == []
        assert len(result.removed) == bound <= 3
        assert result.rounds == min(bound, 1)
        heuristic = of.maximal_two_factorization(ctx, mode="heuristic", seed=0)
        print(f"planted {k}x{k} seed {seed}: optimum {bound}, "
              f"heuristic excess {len(heuristic.removed) - bound}")


def test_certify_refuses_invalid_results(monuments):
    """Dropping two incidences and covering nothing is no
    factorization, so there is no removal size to certify."""
    removed = frozenset(monuments.pairs()[:2])
    empty = of.FerrersFactor(frozenset())
    bogus = of.FactorizationResult(
        empty, empty, removed=removed, certificate=False
    )
    problems = of.validate_factorization(monuments, bogus)
    assert "CoverageViolation" in {p.kind for p in problems}
    with pytest.raises(of.InvalidFactorization):
        of.certify_global_optimality(monuments, bogus)


def test_certify_agrees_with_brute_force():
    """Certified exactly when the removal size is the brute-force
    minimum, over exact and heuristic results of random contexts."""
    certified = uncertified = 0
    for size in (5, 6, 7, 8):
        for density in (0.5, 0.6, 0.7):
            for seed in range(6):
                ctx = random_context(GeneratorSpec(size, size, density, seed))
                exact = of.maximal_two_factorization(ctx, mode="exact")
                if len(exact.removed) > 2:
                    continue  # brute force tries every smaller subset
                least = brute_force_min_removal(ctx, len(exact.removed))
                heuristic = [
                    of.maximal_two_factorization(ctx, "heuristic", seed=s)
                    for s in range(3)
                ]
                for result in [exact] + heuristic:
                    claim = of.certify_global_optimality(ctx, result)
                    assert claim == (len(result.removed) == least)
                    certified += claim
                    uncertified += not claim
    assert certified >= 100
    assert uncertified >= 10


def test_certify_rejects_oversized_heuristic_removals(monuments):
    for seed in range(6):
        heur = of.maximal_two_factorization(
            monuments, mode="heuristic", seed=seed
        )
        assert of.validate_factorization(monuments, heur) == []
        assert not heur.certificate
        claim = of.certify_global_optimality(monuments, heur)
        assert claim == (len(heur.removed) == 2)


def test_persistent_fixture_heuristic_pinned(persistent_odd_cycle):
    """Regression pin for the 18x18 counterexample: the seed-0 heuristic
    run removes 74 incidences over 3 transversal rounds."""
    result = of.maximal_two_factorization(
        persistent_odd_cycle, mode="heuristic", seed=0
    )
    assert of.validate_factorization(persistent_odd_cycle, result) == []
    assert result.shared == _covered_core(persistent_odd_cycle, result)
    assert len(result.removed) == 74
    assert result.rounds == 3
    assert not result.certificate


def test_each_round_rebuilds_the_pair_loops_graph(
    monkeypatch, persistent_odd_cycle
):
    """The repair loop builds its graphs by the masked product; in the
    pinned seed-0 persistent run, the graph it builds after each round's
    removal equals the pair loop's on the same context."""
    built = []

    def checked(ctx):
        graph = product_graph(ctx)
        assert graph == of.build_incompatibility_graph(ctx)
        built.append(graph.n)
        return graph

    monkeypatch.setattr(maximal, "product_graph", checked)
    result = of.maximal_two_factorization(
        persistent_odd_cycle, mode="heuristic", seed=0
    )
    assert (len(result.removed), result.rounds) == (74, 3)
    assert built == [273, 230, 207, 273 - 74]


def test_certify_refutes_the_persistent_heuristic_without_a_search(
    persistent_odd_cycle,
):
    """A removed incidence that fits back into the original graph on the
    kept ones proves a transversal of 73, so no search is needed; the
    bounded search alone takes about 0.3 s to find one of 12."""
    result = of.maximal_two_factorization(
        persistent_odd_cycle, mode="heuristic", seed=0
    )
    assert len(result.removed) == 74
    claim = of.certify_global_optimality(
        persistent_odd_cycle, result, budget=5.0
    )
    assert claim is False


# exact mode needs two rounds here: the minimum transversal it returns
# (4 vertices) leaves an odd cycle behind
_TWO_ROUNDS = GeneratorSpec(8, 8, 0.6, 249)


@pytest.mark.parametrize(
    "context, mode",
    [
        pytest.param(None, "heuristic", id="persistent-heuristic"),
        pytest.param(_TWO_ROUNDS, "exact", id="seed249-exact"),
    ],
)
def test_persistent_fixture_logs_multi_round_event(
    persistent_odd_cycle, caplog, context, mode
):
    ctx = persistent_odd_cycle if context is None else random_context(context)
    with caplog.at_level(logging.INFO, logger="ordfactor.maximal"):
        of.maximal_two_factorization(ctx, mode=mode, seed=0)
    assert any("transversal rounds" in message for message in caplog.messages)


def test_exact_mode_removes_one_more_than_the_optimum():
    """Exact mode takes two rounds and removes 5 incidences where 4
    suffice: another minimum transversal than the one it branches on
    factorizes, and no 3 removals do, so the optimum is 4."""
    ctx = random_context(_TWO_ROUNDS)
    assert ctx.incidence_count == 43
    result = of.maximal_two_factorization(ctx, mode="exact")
    assert result.rounds == 2
    assert result.removed == {(0, 0), (0, 3), (2, 1), (3, 0), (3, 1)}
    assert result.certificate is False
    assert of.certify_global_optimality(ctx, result) is False
    four = [IncidencePair(g, m) for g, m in ((0, 3), (2, 1), (3, 1), (7, 3))]
    kept = of.remove_incidences(ctx, four)
    assert of.validate_factorization(kept, of.two_factorize(kept)) == []
    with pytest.raises(of.NotFound):
        brute_force_min_removal(ctx, 3)


def test_the_root_core_moves_the_first_minimum_of_seed_472():
    """With the 2-core peeled only at the root, the search reaches
    another first minimum on (8, 8, 0.5, 472) than when each child was
    peeled again: exact mode removes these 4 incidences, not (5, 3),
    (5, 6), (5, 7) and (7, 7), still in one certified round, and the
    brute-force oracle agrees that 4 is the minimum."""
    ctx = random_context(GeneratorSpec(8, 8, 0.5, 472))
    result = of.maximal_two_factorization(ctx, mode="exact")
    assert result.removed == {(0, 3), (2, 2), (6, 2), (7, 7)}
    assert (result.rounds, result.certificate) == (1, True)
    assert brute_force_min_removal(ctx, 4) == 4


def test_a_later_round_out_of_time_reports_the_first_rounds_minimum(
    monkeypatch,
):
    """Every valid removal is a transversal of the first round's graph,
    so when the budget ends the second exact round on (8, 8, 0.6, 249),
    the bound reported for the removal is the first round's minimum, 4,
    not what the second round's search proved."""
    calls = []
    subset = maximal.max_bipartite_subset

    def second_out_of_time(graph, mode, budget, seed):
        calls.append(graph)
        if len(calls) == 2:
            raise of.BudgetExceeded("out of time", lower_bound=1)
        return subset(graph, mode, budget, seed)

    monkeypatch.setattr(maximal, "max_bipartite_subset", second_out_of_time)
    with pytest.raises(of.BudgetExceeded, match="out of time") as caught:
        of.maximal_two_factorization(random_context(_TWO_ROUNDS), mode="exact")
    assert len(calls) == 2
    assert caught.value.lower_bound == 4
    assert caught.value.best_known is None


def _quality_spec(seed):
    """The seed-th context of the removal-quality corpus: squares of 6
    to 9 at densities 0.4 to 0.6."""
    size = 6 + seed % 4
    return GeneratorSpec(size, size, (0.4, 0.5, 0.6)[seed // 4 % 3], seed)


# exact mode's removal size on each context of the corpus when every
# round deleted the lexicographically smallest minimum transversal
_LEXICOGRAPHIC_REMOVALS = [
    2, 5, 4, 8, 1, 3, 7, 9, 0, 0, 5, 7, 1, 3, 7, 7, 0, 3, 4, 7, 0, 2, 4,
    6, 1, 4, 3, 7, 1, 2, 5, 9, 0, 3, 3, 2, 2, 3, 4, 6, 1, 3, 1, 7, 1, 3,
    2, 3, 2, 4, 6, 6, 0, 0, 5, 8, 0, 1, 5, 6, 0, 4, 6, 8, 0, 2, 2, 6, 1,
    0, 6, 4, 1, 2, 7, 9, 0, 5, 4, 5, 0, 2, 2, 5, 2, 2, 4, 8, 1, 4, 6, 7,
    2, 0, 5, 7, 0, 4, 5, 7, 3, 2, 4, 8, 3, 4, 3, 4, 1, 2, 5, 9, 0, 4, 2,
    8, 0, 1, 7, 7, 2, 3, 5, 7, 2, 2, 4, 8, 1, 4, 1, 8, 1, 2, 4, 7, 2, 4,
    4, 5, 2, 1, 2, 9, 2, 1, 5, 5, 1, 0, 7, 6, 2, 1, 4, 5, 2, 2, 7, 14,
    2, 3, 4, 7, 0, 2, 7, 9, 1, 3, 8, 5, 1, 3, 3, 9, 1, 3, 3, 5, 2, 3, 5,
    8, 1, 5, 2, 9, 3, 2, 2, 4, 4, 4, 3, 7, 1, 2, 5, 5, 0, 2, 3, 7, 0, 2,
    8, 5, 2, 4, 6, 7, 0, 1, 1, 5, 2, 4, 5, 11, 1, 3, 2, 10, 0, 2, 1, 5,
    0, 3, 3, 6, 0, 4, 5, 6, 1, 4, 4, 4, 1, 1, 6, 10, 2, 3, 4, 11, 0, 2,
    1, 6, 1, 3, 5, 8, 1, 2, 5, 5, 3, 5, 4, 5, 1, 6, 7, 6, 1, 3, 2, 6, 4,
    1, 5, 6, 1, 4, 7, 5, 2, 3, 6, 11, 0, 0, 3, 9, 1, 4, 8, 9, 3, 1, 3,
    11, 2, 0, 4, 7, 2, 4, 5, 9, 0, 4, 4, 9, 0, 1, 3, 6, 0, 2, 3, 9, 1,
    2, 2, 6, 0, 2, 5, 4, 0, 3, 5, 5, 2, 2, 8, 7, 1, 0, 3, 7, 1, 1, 5, 2,
    0, 4, 4, 5, 1, 6, 4, 7, 1, 2, 3, 7, 0, 5, 6, 8, 1, 1, 2, 5, 1, 6, 8,
    7, 1, 2, 5, 6, 0, 3, 7, 8, 1, 3, 6, 8, 2, 5, 5, 7, 2, 0, 1, 5, 1, 3,
    7, 9, 1, 2, 5, 8, 2, 1, 6, 5, 1, 1, 5, 9, 3, 5
]


def test_exact_mode_removes_no_more_than_the_lexicographic_choice():
    """Each round deletes the first minimum transversal the search
    reaches instead of the lexicographically smallest one; over 402
    contexts that never removes more incidences in all, and on
    (9, 9, 0.6, 287) it removes 8 in one certified round instead of 9
    in two."""
    for seed, before in enumerate(_LEXICOGRAPHIC_REMOVALS):
        ctx = random_context(_quality_spec(seed))
        assert len(of.maximal_two_factorization(ctx).removed) <= before, seed
    result = of.maximal_two_factorization(random_context(_quality_spec(287)))
    assert len(result.removed) == 8
    assert (result.rounds, result.certificate) == (1, True)


def _lexicographic_removal(ctx):
    """The removal of exact mode's loop when each round deletes the
    lexicographically smallest minimum transversal, which
    ``conftest.reference_exact_oct`` returns."""
    removed = set()
    graph = of.build_incompatibility_graph(ctx)
    while not of.bipartition(graph).is_bipartite:
        transversal = reference_exact_oct(graph.adjacency, None).run()
        deleted = {graph.vertices[v] for v in transversal}
        removed |= deleted
        ctx = of.remove_incidences(ctx, deleted)
        graph = of.build_incompatibility_graph(ctx)
    return removed


@pytest.mark.slow
def test_the_lexicographic_removals_come_from_the_reference_search():
    """The pinned sizes of the removal-quality corpus are those of the
    loop that deletes the reference search's transversal each round."""
    sizes = [
        len(_lexicographic_removal(random_context(_quality_spec(seed))))
        for seed in range(len(_LEXICOGRAPHIC_REMOVALS))
    ]
    assert sizes == _LEXICOGRAPHIC_REMOVALS


def test_exact_budget_runs_out_on_a_14x14_context():
    """Exact mode needs about 0.3 s on persistent_odd_cycle, so a
    0.3 s budget needs a harder input: on (14, 14, 0.5, 1) the root
    bound is 23 and the minimum is at least 30, which 120 s of search
    prove.  The bound the exhausted search reports is at least the
    root's."""
    ctx = random_context(GeneratorSpec(14, 14, 0.5, 1))
    with pytest.raises(of.BudgetExceeded) as caught:
        of.maximal_two_factorization(ctx, mode="exact", budget=0.3)
    assert caught.value.lower_bound >= 23


def test_budget_ends_an_exact_search_of_hundreds_of_deletions():
    """A transversal of hundreds of incidences is past what a recursive
    search could reach on Python's stack; the explicit stack leaves
    only the budget to end the search."""
    ctx = random_context(GeneratorSpec(34, 34, 0.5, 0))
    with pytest.raises(of.BudgetExceeded, match="out of time"):
        of.maximal_two_factorization(ctx, mode="exact", budget=1)


def test_budget_ends_the_proof_of_a_948_incidence_removal():
    """The minimality proof of a 948-incidence heuristic removal runs
    until its budget ends it."""
    ctx = random_context(GeneratorSpec(50, 50, 0.5, 0))
    result = of.maximal_two_factorization(ctx, mode="heuristic", seed=0)
    assert (len(result.removed), result.rounds) == (948, 1)
    with pytest.raises(of.BudgetExceeded, match="out of time") as caught:
        of.certify_global_optimality(ctx, result, budget=1)
    assert caught.value.best_known == 948


def test_a_1_s_budget_ends_exact_work_on_a_50x50_context_within_6_s():
    """The clique list reads the deadline after each clique it grows,
    so a 1 s budget ends exact mode, and the minimality proof of the
    seed-0 heuristic removal, well within 6 s; listing every clique of
    this graph takes about 18 s.  The message names the bound proven
    with the cliques listed in time, which no transversal undercuts."""
    ctx = random_context(GeneratorSpec(50, 50, 0.5, 0))
    result = of.maximal_two_factorization(ctx, mode="heuristic", seed=0)
    assert len(result.removed) == 948
    for call in (
        lambda: of.maximal_two_factorization(ctx, mode="exact", budget=1),
        lambda: of.certify_global_optimality(ctx, result, budget=1),
    ):
        start = time.monotonic()
        with pytest.raises(of.BudgetExceeded) as caught:
            call()
        assert time.monotonic() - start < 6
        proven = re.search(r"below (\d+) vertices", str(caught.value))
        assert 0 < int(proven[1]) <= 948
        assert caught.value.lower_bound == int(proven[1])


def test_the_clique_list_stops_at_the_deadline():
    """Past its deadline the clique list ends after the clique it is
    adding, and the search raises before its first child, naming the
    bound of the shorter list.  Two disjoint K4s need 4 deletions; one
    listed K4 counts 2 and the other packs 1 triangle."""
    graph = _graph(8, _complete(4) + [(a + 4, b + 4) for a, b in _complete(4)])
    assert _greedy_cliques(graph.adjacency, 255, None) == [15, 240]
    assert _greedy_cliques(graph.adjacency, 255, time.monotonic() - 1) == [15]
    assert len(max_bipartite_subset(graph, "exact").deleted) == 4
    with pytest.raises(of.BudgetExceeded, match="no transversal below 3 "):
        max_bipartite_subset(graph, "exact", budget=0)


def test_a_late_clique_list_ends_after_its_first_growth(monkeypatch):
    """Past its deadline the clique list reads the clock once, after
    the clique grown from the first start vertex, and returns that one
    clique; the whole first round on this 1,237-vertex graph grows a
    clique from every vertex."""
    graph = of.build_incompatibility_graph(
        random_context(GeneratorSpec(50, 50, 0.5, 0))
    )
    adj = graph.adjacency
    reads = []

    def counting():
        reads.append(time.monotonic())
        return reads[-1]

    clock = types.SimpleNamespace(monotonic=counting)
    monkeypatch.setattr(maximal, "time", clock)
    cliques = _greedy_cliques(adj, (1 << graph.n) - 1, time.monotonic() - 1)
    assert len(reads) == 1
    [clique] = cliques
    assert clique & 1 and clique.bit_count() >= 4
    assert all(clique & ~adj[v] == 1 << v for v in bits(clique))


def test_run_deepens_from_the_root_bound(monkeypatch):
    """``run`` searches first at the root's lower bound, so no bound
    below it is searched, and a cap below it returns None without a
    search."""
    adj = of.build_incompatibility_graph(
        random_context(GeneratorSpec(10, 10, 0.5, 1))
    ).adjacency
    bounds = []
    search = _ExactOct.search

    def recording(self, ub):
        bounds.append(ub)
        return search(self, ub)

    monkeypatch.setattr(_ExactOct, "search", recording)
    exact = _ExactOct(adj, None)
    root = exact.bound(exact.active, (), len(adj))[0]
    answer = exact.run(len(adj))
    assert root < len(answer) == 10
    assert bounds == list(range(root, 11))
    bounds.clear()
    assert _ExactOct(adj, None).run(root - 1) is None
    assert bounds == []


def test_exact_search_depth_is_not_bound_by_the_recursion_limit():
    """Under a recursion limit only 20 frames above the caller's, the
    exact search and the minimality proof still give the answers they
    give at the normal limit: the search keeps its subproblems on a
    list, not on Python's stack."""
    ctx = random_context(GeneratorSpec(10, 10, 0.5, 1))
    adj = of.build_incompatibility_graph(ctx).adjacency
    expected = _ExactOct(adj, None).run(len(adj))
    assert len(expected) == 10
    result = of.maximal_two_factorization(ctx, mode="heuristic", seed=0)
    assert len(result.removed) == 10
    assert of.certify_global_optimality(ctx, result)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        assert _ExactOct(adj, None).run(len(adj)) == expected
        assert of.certify_global_optimality(ctx, result)
    finally:
        sys.setrecursionlimit(limit)


def test_heuristic_mode_never_certifies(monuments):
    result = of.maximal_two_factorization(monuments, mode="heuristic", seed=0)
    assert not result.certificate
    assert len(result.removed) >= 2
