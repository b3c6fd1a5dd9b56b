"""Maximal factorization via odd cycle transversals."""
import inspect
import itertools
import logging
import sys

import pytest

import ordfactor as of
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.incompat import IncompatibilityGraph
from ordfactor.maximal import _ExactOct, _heuristic_oct, max_bipartite_subset
from ordfactor.oracle import (
    GeneratorSpec,
    brute_force_min_removal,
    random_context,
)

from conftest import (
    checked_cycle_bound,
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


def _brute_min_oct(graph, limit):
    """Smallest deleted vertex count that leaves a bipartite induced
    subgraph, trying sizes 0..limit; the lexicographically smallest
    witness set of that size is returned alongside."""
    for size in range(limit + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if induced_bipartite(graph, set(combo)):
                return size, combo
    return None


def test_bipartite_graph_needs_no_deletion(contranominal3):
    graph = of.build_incompatibility_graph(contranominal3)
    solution = max_bipartite_subset(graph, mode="exact")
    assert solution.deleted == frozenset()


def test_triangle_deletes_lexicographically_smallest_vertex():
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
    component; the brute-force witness is the lex-smallest minimum."""
    graph = _graph(n, edges)
    assert _brute_min_oct(graph, len(expected)) == (len(expected), expected)
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
            brute = _brute_min_oct(graph, len(solution.deleted))
            assert brute is not None
            size, witness = brute
            assert size == len(solution.deleted)
            # both tie-break lexicographically, so the sets agree
            assert tuple(sorted(deleted_idx)) == witness
            checked += 1
    assert checked >= 25


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
    """The exact search returns the lexicographically smallest minimum
    transversal, so packing the queue BFS's cycles, restarted from
    scratch after each one, instead of the resumed sweep's changes no
    result."""
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

        def counting(self, active, ub):
            calls.append(active)
            return solve(self, active, ub)

        with monkeypatch.context() as patch:
            patch.setattr(_ExactOct, "solve", counting)
            results = [_ExactOct(adj, None).run(len(adj)) for adj in graphs]
        return results, len(calls)

    graphs = list(_seeded_graphs(700, 24))
    results, nodes = counted_runs()
    packed = []
    monkeypatch.setattr(
        "ordfactor.maximal.pack_odd_cycles", reference_packing(packed)
    )
    assert counted_runs() == (results, nodes)
    assert packed and nodes > 1000


def test_deepening_search_matches_the_part_by_part_reference(
    monuments, contranominal3, forced_overlap
):
    """Deepening the bound from 0 without splitting a subgraph into its
    parts returns the reference search's transversal, and the capped
    run behind ``certify_global_optimality`` fails just below each
    answer's size as the reference's bounded search does."""
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(1000, 300)
    sizes = set()
    for adj in graphs:
        expected = reference_exact_oct(adj, None).run()
        assert _ExactOct(adj, None).run(len(adj)) == expected
        k = len(expected)
        below = reference_exact_oct(adj, None).search(k - 1) is None
        assert (_ExactOct(adj, None).run(k - 1) is None) == below
        sizes.add(k)
    assert len(sizes) >= 5


def test_exact_search_tree_is_pinned(monkeypatch, monuments):
    """How often the exact search calls ``solve`` pins its tree: a
    change of branching order can keep every result and still move
    these counts."""
    calls = []
    solve = _ExactOct.solve

    def counting(self, active, ub):
        calls.append(active)
        return solve(self, active, ub)

    monkeypatch.setattr(_ExactOct, "solve", counting)
    contexts = [monuments] + [
        random_context(GeneratorSpec(9, 9, 0.5, seed)) for seed in range(4)
    ]
    nodes = []
    for ctx in contexts:
        calls.clear()
        adj = of.build_incompatibility_graph(ctx).adjacency
        _ExactOct(adj, None).run(len(adj))
        nodes.append(len(calls))
    assert nodes == [16, 496, 29, 655, 193]


def test_each_bound_fixes_its_nodes_and_answers_at_them(
    monkeypatch, monuments, contranominal3, forced_overlap
):
    """Within the search at bound k, the node of a mask has the bound
    k less the vertices the mask lacks, and every answer found is as
    large as its node's bound.  So one bound's memo may be keyed by the
    mask alone, a failure at one bound would never prune at a later
    one, and every child of a node gets the node's bound less 1."""
    nodes = []
    bounds = []
    search = _ExactOct.search
    solve = _ExactOct.solve

    def bounded(self, ub):
        bounds.append(ub)
        return search(self, ub)

    def recording(self, active, ub):
        answer = yield from solve(self, active, ub)
        nodes.append((bounds[-1] - (self.active ^ active).bit_count(), ub, answer))
        return answer

    monkeypatch.setattr(_ExactOct, "search", bounded)
    monkeypatch.setattr(_ExactOct, "solve", recording)
    graphs = [
        of.build_incompatibility_graph(ctx).adjacency
        for ctx in (monuments, contranominal3, forced_overlap)
    ]
    graphs += _seeded_graphs(1000, 300)
    for adj in graphs:
        _ExactOct(adj, None).run(len(adj))
    for expected, ub, answer in nodes:
        assert ub == expected
        assert answer is None or len(answer) == ub
    assert any(answer is not None and ub > 0 for _, ub, answer in nodes)
    assert any(answer is None and ub > 0 for _, ub, answer in nodes)


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
    for, and the exact search's, which takes 15-30 s on each."""
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
    up to 16, so borrows and carries cross every plane boundary."""
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
    runs out of time on one that does."""
    graph = of.build_incompatibility_graph(forced_overlap)
    assert max_bipartite_subset(graph, "exact", budget=0).deleted == frozenset()
    clean = of.two_factorize(forced_overlap)
    assert of.certify_global_optimality(forced_overlap, clean, budget=0) is True
    graph = of.build_incompatibility_graph(persistent_odd_cycle)
    with pytest.raises(of.BudgetExceeded, match="out of time"):
        max_bipartite_subset(graph, "exact", budget=0)


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


def test_certify_refutes_the_persistent_heuristic_without_a_search(
    persistent_odd_cycle,
):
    """A removed incidence that fits back into the original graph on the
    kept ones proves a transversal of 73, so no search is needed; the
    bounded search alone runs past a minute on this input."""
    result = of.maximal_two_factorization(
        persistent_odd_cycle, mode="heuristic", seed=0
    )
    assert len(result.removed) == 74
    claim = of.certify_global_optimality(
        persistent_odd_cycle, result, budget=5.0
    )
    assert claim is False


# exact mode needs two rounds here: the lexicographically smallest
# minimum transversal (4 vertices) leaves an odd cycle behind
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


def test_persistent_fixture_exact_budget_runs_out(persistent_odd_cycle):
    with pytest.raises(of.BudgetExceeded):
        of.maximal_two_factorization(
            persistent_odd_cycle, mode="exact", budget=0.3
        )


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
    with pytest.raises(of.BudgetExceeded, match="out of time"):
        of.certify_global_optimality(ctx, result, budget=1)


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
