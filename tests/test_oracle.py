"""Brute-force oracle and generator tests."""

import pytest

import ordfactor as of
from ordfactor import GeneratorSpec

from conftest import acceptance_5_corpus, reference_brute_force_min_removal


def test_random_context_deterministic():
    spec = GeneratorSpec(objects=4, attributes=5, density=0.5, seed=11)
    assert of.random_context(spec) == of.random_context(spec)
    other = GeneratorSpec(objects=4, attributes=5, density=0.5, seed=12)
    assert of.random_context(spec) != of.random_context(other)


def test_random_context_shape_and_names():
    spec = GeneratorSpec(objects=3, attributes=2, density=0.5, seed=0)
    ctx = of.random_context(spec)
    assert ctx.objects == ("g1", "g2", "g3")
    assert ctx.attributes == ("m1", "m2")
    assert len(ctx.rows) == 3
    assert all(0 <= row < 4 for row in ctx.rows)


def test_random_context_density_extremes():
    empty = of.random_context(GeneratorSpec(5, 6, 0.0, seed=3))
    assert empty.incidence_count == 0
    full = of.random_context(GeneratorSpec(5, 6, 1.0, seed=3))
    assert full.incidence_count == 30


def test_staircase_union_deterministic():
    spec = GeneratorSpec(objects=5, attributes=5, density=0.5, seed=21)
    assert of.random_two_factorizable_context(
        spec
    ) == of.random_two_factorizable_context(spec)


def test_staircase_union_density_extremes():
    empty = of.random_two_factorizable_context(GeneratorSpec(4, 4, 0.0, seed=9))
    assert empty.incidence_count == 0
    full = of.random_two_factorizable_context(GeneratorSpec(4, 4, 1.0, seed=9))
    assert full.incidence_count == 16


def test_staircase_union_always_two_factorizable():
    for seed in range(40):
        spec = GeneratorSpec(objects=6, attributes=6, density=0.45, seed=seed)
        ctx = of.random_two_factorizable_context(spec)
        graph = of.build_incompatibility_graph(ctx)
        assert of.bipartition(graph).is_bipartite
        result = of.two_factorize(ctx)
        assert of.validate_factorization(ctx, result) == []


def test_brute_force_zero_when_already_bipartite(contranominal3):
    assert of.brute_force_min_removal(contranominal3, k_max=0) == 0


def test_brute_force_full_context_is_trivial():
    ctx = of.FormalContext(("a", "b"), ("x", "y"), (0b11, 0b11))
    assert of.brute_force_min_removal(ctx, k_max=0) == 0


def test_brute_force_monuments_needs_two(monuments):
    assert of.brute_force_min_removal(monuments, k_max=2) == 2
    assert of.brute_force_min_removal(monuments, k_max=2, budget=60.0) == 2


def test_brute_force_tries_its_first_candidate_under_a_spent_budget(
    forced_overlap, persistent_odd_cycle
):
    """The clock is read after each candidate, so a zero budget still
    answers an input that the empty removal already repairs."""
    assert of.brute_force_min_removal(forced_overlap, k_max=2, budget=0) == 0
    with pytest.raises(of.BudgetExceeded, match="out of time"):
        of.brute_force_min_removal(persistent_odd_cycle, k_max=2, budget=0)


def test_brute_force_raises_when_bound_too_small(monuments):
    with pytest.raises(of.NotFound):
        of.brute_force_min_removal(monuments, k_max=1)


def test_brute_force_agrees_with_bipartiteness():
    for seed in range(30):
        spec = GeneratorSpec(objects=4, attributes=4, density=0.55, seed=seed)
        ctx = of.random_context(spec)
        graph = of.build_incompatibility_graph(ctx)
        k = of.brute_force_min_removal(ctx, k_max=ctx.incidence_count)
        assert (k == 0) == of.bipartition(graph).is_bipartite


def test_brute_force_matches_exact_solver():
    checked = 0
    for seed in range(25):
        spec = GeneratorSpec(objects=4, attributes=4, density=0.6, seed=100 + seed)
        ctx = of.random_context(spec)
        result = of.maximal_two_factorization(ctx, mode="exact")
        if not result.certificate:
            continue
        checked += 1
        assert of.brute_force_min_removal(ctx, k_max=len(result.removed)) == len(
            result.removed
        )
    assert checked >= 15


def _outcome(oracle, ctx, k_max):
    try:
        return oracle(ctx, k_max)
    except of.NotFound:
        return "NotFound"


def test_brute_force_matches_the_graph_side_oracle(
    monuments, contranominal3, forced_overlap, persistent_odd_cycle
):
    """Deciding each candidate with two_factorize gives the same answer
    as rebuilding its incompatibility graph: one bound below the exact
    removal size and at it, on the criterion-5 corpus, and at bounds up
    to 2 on the fixtures (1 on persistent, where the graph-side oracle
    needs over a minute for 2)."""
    found = missed = 0
    for ctx in acceptance_5_corpus():
        least = len(of.maximal_two_factorization(ctx, mode="exact").removed)
        for k_max in range(max(least - 1, 0), least + 1):
            outcome = _outcome(of.brute_force_min_removal, ctx, k_max)
            assert outcome == _outcome(
                reference_brute_force_min_removal, ctx, k_max
            )
            found += outcome != "NotFound"
            missed += outcome == "NotFound"
    for ctx, top in (
        (monuments, 2),
        (contranominal3, 2),
        (forced_overlap, 2),
        (persistent_odd_cycle, 1),
    ):
        for k_max in range(top + 1):
            assert _outcome(of.brute_force_min_removal, ctx, k_max) == _outcome(
                reference_brute_force_min_removal, ctx, k_max
            )
    assert found >= 200 and missed >= 50


def test_brute_force_builds_no_graph(monkeypatch, monuments):
    """Each candidate is decided by two_factorize, so the oracle shares
    no code with the graph-side searches it checks."""

    def no_graph(*args):
        raise AssertionError("incompatibility graph searched")

    for name in ("build_incompatibility_graph", "bipartition", "sweep"):
        monkeypatch.setattr(f"ordfactor.incompat.{name}", no_graph)
        monkeypatch.setattr(f"ordfactor.oracle.{name}", no_graph, raising=False)
    assert of.brute_force_min_removal(monuments, k_max=2) == 2
    with pytest.raises(of.NotFound):
        of.brute_force_min_removal(monuments, k_max=1)
