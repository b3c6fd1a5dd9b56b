"""Exact two-factorization, Ferrers checks, canonical partition."""
from dataclasses import replace
import itertools
import random

import pytest

import ordfactor as of
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.incompat import components, two_color
from ordfactor.oracle import (
    GeneratorSpec,
    random_context,
    random_two_factorizable_context,
)
from ordfactor.twofactor import FactorizationResult, FerrersFactor

from conftest import (
    random_poset,
    reference_canonical_partition,
    reference_concept_two_factorize,
    reference_realizer_two_factorize,
    reference_two_factorize,
)


def _pairs(seq):
    return frozenset(IncidencePair(g, m) for g, m in seq)


def _named(ctx, pairs):
    return {(ctx.objects[g], ctx.attributes[m]) for g, m in pairs}


def test_is_ferrers_staircase_example():
    ctx = FormalContext(("1", "2"), ("a", "b", "c"), (0b110, 0b100))
    assert of.is_ferrers(ctx, _pairs([(0, 1), (0, 2), (1, 2)]))


def test_is_ferrers_rejects_diagonal_of_contranominal(contranominal3):
    assert not of.is_ferrers(contranominal3, _pairs([(0, 2), (1, 0), (2, 1)]))


def test_is_ferrers_rejects_full_contranominal(contranominal3):
    assert not of.is_ferrers(contranominal3, contranominal3.pairs())


def test_is_ferrers_requires_incident_pairs(contranominal3):
    with pytest.raises(of.PairNotIncident):
        of.is_ferrers(contranominal3, _pairs([(0, 0)]))


def test_empty_set_and_single_pair_are_ferrers(contranominal3):
    assert of.is_ferrers(contranominal3, frozenset())
    assert of.is_ferrers(contranominal3, _pairs([(0, 1)]))


def test_two_factorize_contranominal(contranominal3):
    result = of.two_factorize(contranominal3)
    assert result.removed == frozenset()
    assert result.rounds == 0
    assert result.certificate
    assert of.validate_factorization(contranominal3, result) == []
    assert result.f1.pairs == _pairs([(0, 1), (0, 2), (1, 2)])
    assert result.f2.pairs == _pairs([(1, 0), (2, 0), (2, 1)])
    assert result.shared == frozenset()


def test_two_factorize_forced_overlap_keeps_core_pair(forced_overlap):
    result = of.two_factorize(forced_overlap)
    assert of.validate_factorization(forced_overlap, result) == []
    core = _pairs([(5, 5)])  # object "6", attribute "f"
    assert core <= result.f1.pairs
    assert core <= result.f2.pairs


def test_two_factorize_empty_contexts():
    for ctx in (
        FormalContext((), (), ()),
        FormalContext(("g",), ("m",), (0,)),
    ):
        result = of.two_factorize(ctx)
        assert result.f1.pairs == frozenset()
        assert result.f2.pairs == frozenset()
        assert of.validate_factorization(ctx, result) == []


def test_two_factorize_rejects_monuments(monuments):
    with pytest.raises(of.NotTwoFactorizable):
        of.two_factorize(monuments)


def test_two_factorize_rejects_persistent_fixture(persistent_odd_cycle):
    with pytest.raises(of.NotTwoFactorizable):
        of.two_factorize(persistent_odd_cycle)


def test_two_factorize_monuments_after_known_removal(monuments):
    removal = [
        (monuments.objects.index("Temple of Romulus"),
         monuments.attributes.index("GB1")),
        (monuments.objects.index("Basilica of Maxentius"),
         monuments.attributes.index("B")),
    ]
    covered = of.remove_incidences(monuments, removal)
    result = of.two_factorize(covered)
    assert of.validate_factorization(covered, result) == []
    assert len(result.covered) == 42


def test_canonical_partition_forced_overlap(forced_overlap):
    result = of.two_factorize(forced_overlap)
    canonical = of.canonical_partition(forced_overlap, result)
    assert _named(forced_overlap, canonical.shared) == {("6", "f")}
    first = _named(forced_overlap, canonical.f1.pairs - canonical.shared)
    second = _named(forced_overlap, canonical.f2.pairs - canonical.shared)
    class_one = {
        ("1", "d"), ("1", "e"), ("1", "f"), ("1", "g"), ("2", "f"),
        ("2", "g"), ("3", "g"), ("6", "e"), ("6", "g"),
    }
    class_two = {
        ("4", "a"), ("5", "a"), ("5", "f"), ("6", "a"), ("6", "b"),
        ("7", "a"), ("7", "b"), ("7", "c"), ("7", "f"),
    }
    assert {frozenset(first), frozenset(second)} == {
        frozenset(class_one), frozenset(class_two),
    }
    assert of.validate_factorization(forced_overlap, canonical) == []


def _disjoint_colorings(ctx):
    """For each proper 2-coloring of the incompatibility graph, whether
    its two classes are both Ferrers: each component, an isolated vertex
    too, takes either orientation of its :func:`two_color` coloring.  A
    disjoint two-factorization is exactly such a coloring."""
    graph = of.build_incompatibility_graph(ctx)
    sides = []
    for part in components(graph):
        mask = sum(1 << v for v in part)
        odd, cycle = two_color(graph.adjacency, mask)
        assert cycle is None
        sides.append((mask & ~odd, odd))
    found = []
    for flips in itertools.product((0, 1), repeat=len(sides)):
        first = second = 0
        for flip, side in zip(flips, sides):
            first |= side[flip]
            second |= side[1 - flip]
        classes = [[graph.vertices[v] for v in range(graph.n) if c >> v & 1]
                   for c in (first, second)]
        found.append(all(of.is_ferrers(ctx, c) for c in classes))
    return [len(part) for part in components(graph)], found


def test_forced_overlap_has_no_disjoint_factorization(
    forced_overlap, contranominal3
):
    """The paper's disjointness question on its fixture: the graph of
    ``forced_overlap`` has an 18-vertex component and the isolated
    (6, f), and none of its 4 colorings gives two Ferrers classes, so
    every two-factorization of it overlaps.  ``contranominal3``'s three
    components give 8 colorings; some of them work, and some that mix
    the components' orientations do not."""
    sizes, found = _disjoint_colorings(forced_overlap)
    assert sorted(sizes) == [1, 18]
    graph = of.build_incompatibility_graph(forced_overlap)
    assert _named(forced_overlap, of.isolated_pairs(graph)) == {("6", "f")}
    assert found == [False] * 4
    sizes, found = _disjoint_colorings(contranominal3)
    assert len(found) == 8 and any(found) and not all(found)


def test_canonical_partition_full_incidence():
    ctx = FormalContext(("g", "h"), ("m", "n"), (3, 3))
    result = of.two_factorize(ctx)
    canonical = of.canonical_partition(ctx, result)
    assert canonical.shared == frozenset(ctx.pairs())
    assert canonical.f1.pairs == canonical.shared
    assert canonical.f2.pairs == canonical.shared


def test_canonical_partition_contranominal_core_is_empty(contranominal3):
    result = of.two_factorize(contranominal3)
    canonical = of.canonical_partition(contranominal3, result)
    assert canonical.shared == frozenset()
    assert canonical.f1.pairs | canonical.f2.pairs == frozenset(
        contranominal3.pairs()
    )


def test_canonical_partition_rejects_invalid_input(contranominal3):
    bogus = FactorizationResult(
        f1=FerrersFactor(_pairs([(0, 1)])),
        f2=FerrersFactor(_pairs([(1, 0)])),
        removed=frozenset(),
        certificate=False,
    )
    with pytest.raises(of.InvalidFactorization):
        of.canonical_partition(contranominal3, bogus)


def test_two_factorize_refuses_factors_that_fail_validation(
    monkeypatch, contranominal3
):
    """An orientation that orients nothing gives factors that miss
    incidences, and the final validation refuses them."""
    monkeypatch.setattr(
        "ordfactor.twofactor.transitive_orientation", lambda adj: (0,) * len(adj)
    )
    with pytest.raises(of.NotTwoFactorizable, match="do not cover exactly"):
        of.two_factorize(contranominal3)


def test_canonical_partition_refuses_a_core_that_breaks_a_factor(
    monkeypatch, contranominal3
):
    """A core that is the whole incidence of contranominal3, which is
    no staircase, breaks both factors once it is added to them."""
    result = of.two_factorize(contranominal3)
    whole = FerrersFactor(frozenset(contranominal3.pairs()))
    monkeypatch.setattr(
        "ordfactor.twofactor.two_factorize",
        lambda ctx: replace(result, f1=whole, f2=whole),
    )
    with pytest.raises(of.InvalidFactorization, match="broke a factor"):
        of.canonical_partition(contranominal3, result)


def test_validator_flags_ferrers_violation(contranominal3):
    result = FactorizationResult(
        f1=FerrersFactor(_pairs([(0, 1), (0, 2), (1, 2)])),
        f2=FerrersFactor(_pairs([(0, 2), (1, 0), (2, 1)])),
        removed=_pairs([(2, 0)]),
        certificate=False,
    )
    kinds = {v.kind for v in of.validate_factorization(contranominal3, result)}
    assert "FerrersViolation" in kinds


def test_validator_flags_coverage_gap(contranominal3):
    result = FactorizationResult(
        f1=FerrersFactor(_pairs([(0, 1)])),
        f2=FerrersFactor(_pairs([(1, 0)])),
        removed=frozenset(),
        certificate=False,
    )
    kinds = {v.kind for v in of.validate_factorization(contranominal3, result)}
    assert "CoverageViolation" in kinds


def test_validator_flags_stray_pairs(contranominal3):
    result = FactorizationResult(
        f1=FerrersFactor(_pairs([(0, 0)])),
        f2=FerrersFactor(frozenset()),
        removed=frozenset(),
        certificate=False,
    )
    kinds = {v.kind for v in of.validate_factorization(contranominal3, result)}
    assert "PairViolation" in kinds


def test_shared_is_derived_from_the_factors(forced_overlap):
    """No result can hold a shared part other than its factors'
    intersection: ``shared`` is not a constructor argument."""
    good = of.two_factorize(forced_overlap)
    with pytest.raises(TypeError):
        FactorizationResult(
            f1=good.f1,
            f2=good.f2,
            shared=_pairs([(0, 3)]),  # incidence, but not isolated
            removed=frozenset(),
            certificate=False,
        )
    assert good.shared == good.f1.pairs & good.f2.pairs


def test_random_staircase_unions_always_factorize():
    for seed in range(120):
        spec = GeneratorSpec(
            objects=2 + seed % 6,
            attributes=2 + (seed // 6) % 6,
            density=0.25 + 0.1 * (seed % 5),
            seed=seed,
        )
        ctx = random_two_factorizable_context(spec)
        graph = of.build_incompatibility_graph(ctx)
        assert of.bipartition(graph).is_bipartite
        result = of.two_factorize(ctx)
        assert of.validate_factorization(ctx, result) == []
        assert result.covered == frozenset(ctx.pairs())
        assert result.f1.pairs & result.f2.pairs == of.isolated_pairs(graph)


def test_factor_labels_are_canonical(forced_overlap):
    result = of.two_factorize(forced_overlap)
    only1 = result.f1.pairs - result.f2.pairs
    only2 = result.f2.pairs - result.f1.pairs
    assert min(only1) < min(only2)


def _outcome(factorize, ctx):
    try:
        result = factorize(ctx)
    except of.OrdfactorError as exc:
        return type(exc).__name__
    return result.f1.pairs, result.f2.pairs, result.shared


def _with_extra_rows(ctx, seed):
    """The context plus a copy of one row, an empty row and a full row,
    each inserted at a seeded position."""
    rng = random.Random(seed)
    rows = list(ctx.rows)
    for extra in (rng.choice(rows), 0, (1 << ctx.n_attributes) - 1):
        rows.insert(rng.randrange(len(rows) + 1), extra)
    names = tuple(f"g{i}" for i in range(len(rows)))
    return FormalContext(names, ctx.attributes, tuple(rows))


def _reference_corpus():
    yield FormalContext((), (), ())
    yield FormalContext(("g",), ("m",), (0,))
    yield FormalContext(("g",), ("m",), (1,))
    yield FormalContext(("g", "h"), (), (0, 0))
    yield FormalContext((), ("m", "n"), ())
    for s in range(600):
        yield random_two_factorizable_context(
            GeneratorSpec(2 + s % 29, 2 + 7 * s % 29, 0.3 + 0.1 * (s % 5), s)
        )
    for s in range(900):
        yield random_context(
            GeneratorSpec(1 + s % 9, 1 + s // 9 % 9, 0.2 + 0.1 * (s % 7), s)
        )
    for s in range(300):
        spec = GeneratorSpec(3 + s % 8, 3 + s % 6, 0.5, s)
        base = (random_context, random_two_factorizable_context)[s % 2](spec)
        yield _with_extra_rows(base, s)
    # most complements here pass the concept cap, where the reference
    # said no without ordering any concept
    for s in range(60):
        yield random_context(GeneratorSpec(12 + s % 9, 12 + s % 9, 0.3, s))
    for s in range(150):
        ctx = of.poset_to_context(random_poset(4 + s % 9, s))
        yield ctx
        result = of.maximal_two_factorization(ctx, mode="heuristic", seed=s)
        yield of.remove_incidences(ctx, result.removed)


def test_two_factorize_matches_the_whole_lattice_reference():
    """Ordering only the object and attribute concepts gives the same
    factors, shared pairs and verdict as sweeping the whole complement
    lattice, which also said no past the concept cap."""
    verdicts = []
    for ctx in _reference_corpus():
        got = _outcome(of.two_factorize, ctx)
        assert got == _outcome(reference_two_factorize, ctx), ctx
        verdicts.append(isinstance(got, str))
    assert (len(verdicts), sum(verdicts)) == (2165, 378)


def _exact_outcome(factorize, ctx):
    """The factors and shared pairs as printed, so a plain tuple in
    place of an IncidencePair shows, or the message of a "no"."""
    try:
        result = factorize(ctx)
    except of.NotTwoFactorizable as exc:
        return str(exc)
    return tuple(
        repr(sorted(pairs))
        for pairs in (result.f1.pairs, result.f2.pairs, result.shared)
    )


def test_two_factorize_matches_the_realizer_reference():
    """Reading each factor off the conjugate rows gives the factors,
    shared pairs and messages that comparing positions in the two
    checked realizer orders gave."""
    corpus = [of.load_dataset(name) for name in of.available_datasets()]
    for s in range(5400):
        generate = (random_context, random_two_factorizable_context)[s % 2]
        spec = GeneratorSpec(1 + s % 9, 1 + s // 9 % 9, 0.2 + 0.1 * (s % 7), s)
        corpus.append(generate(spec))
    messages = []
    for ctx in corpus:
        got = _exact_outcome(of.two_factorize, ctx)
        assert got == _exact_outcome(reference_realizer_two_factorize, ctx), ctx
        if isinstance(got, str):
            messages.append(got)
    assert (len(corpus), len(messages)) == (5404, 765)
    # every "no" is the orientation's, none comes from validation
    assert set(messages) == {
        "complement object and attribute concepts have no conjugate order"
    }


def test_two_factorize_builds_no_linear_order(
    monkeypatch, forced_overlap, contranominal3
):
    """No total-order check runs: the orders ≤ ∪ T and ≤ ∪ T⁻¹ are a
    realizer once ``transitive_orientation`` has verified T."""
    fixtures = (forced_overlap, contranominal3)
    expected = [reference_realizer_two_factorize(ctx) for ctx in fixtures]

    def refuse(strict):
        raise AssertionError("linear_sequence was called")

    monkeypatch.setattr("ordfactor.lattice.linear_sequence", refuse)
    for ctx, want in zip(fixtures, expected):
        got = of.two_factorize(ctx)
        assert (got.f1, got.f2, got.shared) == (want.f1, want.f2, want.shared)
        assert of.validate_factorization(ctx, got) == []


def test_two_factorize_matches_the_concept_reference():
    """Ordering the complement's intent masks directly gives the
    factors, shared pairs and messages that ordering ``Concept`` objects
    with ``concept_order`` gave, down to empty contexts."""
    corpus = [of.load_dataset(name) for name in of.available_datasets()]
    for s in range(5400):
        generate = (random_context, random_two_factorizable_context)[s % 2]
        spec = GeneratorSpec(s % 10, s // 10 % 10, 0.2 + 0.1 * (s % 7), s)
        corpus.append(generate(spec))
    verdicts = []
    for ctx in corpus:
        got = _exact_outcome(of.two_factorize, ctx)
        assert got == _exact_outcome(reference_concept_two_factorize, ctx), ctx
        verdicts.append(isinstance(got, str))
    assert (len(verdicts), sum(verdicts)) == (5404, 555)


def test_two_factorize_builds_no_concept(
    monkeypatch, forced_overlap, contranominal3
):
    """The order is read off the intent masks: no ``Concept`` is built
    and ``concept_order`` is not called."""
    fixtures = (forced_overlap, contranominal3)
    expected = [reference_concept_two_factorize(ctx) for ctx in fixtures]

    def refuse(*args):
        raise AssertionError("a concept object was built or ordered")

    monkeypatch.setattr("ordfactor.lattice.concept_order", refuse)
    monkeypatch.setattr("ordfactor.lattice.Concept", refuse)
    for ctx, want in zip(fixtures, expected):
        got = of.two_factorize(ctx)
        assert (got.f1, got.f2, got.shared) == (want.f1, want.f2, want.shared)


def _canonical_corpus():
    """Valid results: factorizations, repairs that remove incidences,
    and both with core pairs dropped from one factor."""
    results = []
    for s in range(400):
        ctx = random_two_factorizable_context(
            GeneratorSpec(2 + s % 15, 2 + 3 * s % 15, 0.3 + 0.1 * (s % 5), s)
        )
        results.append((ctx, of.two_factorize(ctx)))
    for s in range(257):
        ctx = random_context(
            GeneratorSpec(2 + s % 7, 2 + s // 7 % 7, 0.3 + 0.1 * (s % 4), s)
        )
        mode = "exact" if ctx.incidence_count <= 20 else "heuristic"
        results.append((ctx, of.maximal_two_factorization(ctx, mode, seed=s)))
    for s, (ctx, result) in enumerate(results):
        yield ctx, result
        rng = random.Random(s)
        core = sorted(result.shared)
        for factor in ("f1", "f2"):
            dropped = (
                rng.sample(core, rng.randint(1, len(core))) if core else []
            )
            pairs = getattr(result, factor).pairs - frozenset(dropped)
            variant = replace(result, **{factor: FerrersFactor(pairs)})
            if dropped and not of.validate_factorization(ctx, variant):
                yield ctx, variant


def test_canonical_partition_matches_the_graph_reference():
    """The core read off ``two_factorize`` of the covered context is the
    set of isolated vertices of its incompatibility graph, so the
    normalized factors match the graph-based reference."""
    calls = repairs = partial = 0
    for ctx, result in _canonical_corpus():
        got = of.canonical_partition(ctx, result)
        expected = reference_canonical_partition(ctx, result)
        assert (got.f1.pairs, got.f2.pairs, got.shared) == expected, ctx
        assert (got.removed, got.certificate, got.rounds) == (
            result.removed, result.certificate, result.rounds
        )
        calls += 1
        repairs += bool(result.removed)
        partial += got.shared != result.shared
    assert (calls, repairs, partial) == (1083, 154, 426)


def test_canonical_partition_builds_no_graph(
    monkeypatch, forced_overlap, monuments
):
    """The compatible core comes off the realizer, so normalizing a
    factorization or a repair builds no incompatibility graph."""

    def no_graph(ctx):
        raise AssertionError("incompatibility graph built")

    repaired = of.maximal_two_factorization(monuments, mode="exact")
    for name in ("build_incompatibility_graph", "product_graph"):
        monkeypatch.setattr(f"ordfactor.incompat.{name}", no_graph)
        monkeypatch.setattr(
            f"ordfactor.twofactor.{name}", no_graph, raising=False
        )
    clean = of.two_factorize(forced_overlap)
    canonical = of.canonical_partition(forced_overlap, clean)
    assert _named(forced_overlap, canonical.shared) == {("6", "f")}
    canonical = of.canonical_partition(monuments, repaired)
    assert canonical.removed == repaired.removed
    assert of.validate_factorization(monuments, canonical) == []
