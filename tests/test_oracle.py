"""Brute-force oracle and generator tests."""

import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import ordfactor as of
from ordfactor import GeneratorSpec
from ordfactor import oracle

from conftest import (
    acceptance_5_corpus,
    reference_brute_force_min_removal,
    reference_random_context,
    reference_random_two_factorizable_context,
)


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


def test_generator_rows_are_pinned():
    """One digest over both generators' rows on a fixed grid of specs.

    Every bench input and most test corpora come from these generators,
    so a change to their draws or to how the draws become rows moves it.
    """
    digest = hashlib.sha256()
    for generate in (of.random_context, of.random_two_factorizable_context):
        for objects in range(26):
            for attributes in range(26):
                for density in (0, 1, 0.3, 0.5, 0.999, -0.5, 1.5, True):
                    for seed in (0, 1, 35):
                        spec = GeneratorSpec(objects, attributes, density, seed)
                        digest.update(repr(generate(spec).rows).encode() + b";")
    assert digest.hexdigest() == (
        "5742620f99b572d206cfe74a61e94805a7e9cf7b4479329b6db1ebba79a6d31f"
    )


# every way a density can sit against random()'s 2**53 values: outside
# [0, 1], at either end of the range, on a top-byte boundary (77/256),
# and as int, bool and Fraction
DENSITIES = (
    0, 1, True, False, -0.5, 1.5, math.inf, -math.inf,
    2.0**-53, 1 - 2.0**-53, 0.5, 77 / 256, 0.3, Fraction(1, 3),
)


def _top_ties(density, draws):
    """How many of ``draws`` share their top byte with the threshold,
    the draws whose cell the exact comparison settles."""
    if density <= 0:
        threshold = 0
    elif density >= 1:
        return 0
    else:
        threshold = math.ceil(density * 2**53)
    return sum(int(r * 256) == threshold >> 45 for r in draws)


def test_generators_match_the_per_draw_references(monkeypatch):
    """Both generators give the rows of one ``rng.random()`` call per
    cell, on a seeded grid of shapes from 0 to 30 at every kind of
    density, and the exact comparison settles many draws."""
    ties = 0
    below = oracle._below

    def counting(rng, n, density):
        twin = random.Random()
        twin.setstate(rng.getstate())
        nonlocal ties
        ties += _top_ties(density, [twin.random() for _ in range(n)])
        return below(rng, n, density)

    monkeypatch.setattr(oracle, "_below", counting)
    shapes = random.Random(44)
    sizes = (0, 1, 2, 3, 5, 8, 13, 21, 30)
    checked = 0
    for objects in sizes:
        for attributes in sizes:
            for density in DENSITIES:
                spec = GeneratorSpec(
                    objects, attributes, density, shapes.randrange(1 << 32)
                )
                assert of.random_context(spec) == reference_random_context(spec)
                assert of.random_two_factorizable_context(
                    spec
                ) == reference_random_two_factorizable_context(spec), spec
                checked += 1
    assert checked == 81 * len(DENSITIES)
    assert ties >= 800, ties


@pytest.mark.parametrize("density", DENSITIES + (Decimal("0.3"), math.nan))
def test_below_is_n_random_calls(density):
    """One bulk draw gives the outcomes of n ``rng.random() < density``
    calls and leaves the generator where those calls leave it."""
    for seed in range(3):
        calls, bulk = random.Random(seed), random.Random(seed)
        for n in range(301):
            expected = bytes(b"01"[calls.random() < density] for _ in range(n))
            assert oracle._below(bulk, n, density) == expected, (seed, n)
            assert bulk.getstate() == calls.getstate(), (seed, n)


@pytest.mark.parametrize(
    "objects, attributes, density",
    [(-2, 5, 0.5), (3, -4, 0.5), (-1, -1, 0.5), (3, 4, math.nan)],
)
def test_generator_spec_refuses_negative_sizes_and_nan(objects, attributes, density):
    with pytest.raises(ValueError):
        GeneratorSpec(objects, attributes, density, 0)


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

    builders = ("build_incompatibility_graph", "product_graph")
    for name in builders + ("bipartition", "sweep"):
        monkeypatch.setattr(f"ordfactor.incompat.{name}", no_graph)
        monkeypatch.setattr(f"ordfactor.oracle.{name}", no_graph, raising=False)
    assert of.brute_force_min_removal(monuments, k_max=2) == 2
    with pytest.raises(of.NotFound):
        of.brute_force_min_removal(monuments, k_max=1)
