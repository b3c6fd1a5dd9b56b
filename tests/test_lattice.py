"""Concept enumeration, concept order, conjugate orders, realizers."""
import math
import random

import pytest

from conftest import (
    reference_concept_masks,
    reference_transitive_orientation,
    seeded_contexts,
)
import ordfactor as of
from ordfactor.bitset import bits
from ordfactor.context import FormalContext
from ordfactor.lattice import (
    Concept,
    cocomparability_graph,
    concept_cap,
    concept_order,
    enumerate_concepts,
    lectic_sorted,
    linear_sequence,
    realizer_sequences,
    transitive_orientation,
)
from ordfactor.oracle import (
    GeneratorSpec,
    random_context,
    random_two_factorizable_context,
)
from ordfactor.twofactor import two_factorize


def _concept_set(concepts):
    return {(tuple(sorted(c.extent)), tuple(sorted(c.intent))) for c in concepts}


def _brute_concepts(ctx):
    out = set()
    n, m = ctx.n_objects, ctx.n_attributes
    for emask in range(1 << n):
        imask = (1 << m) - 1
        for g in range(n):
            if emask >> g & 1:
                imask &= ctx.rows[g]
        back = 0
        for g in range(n):
            if ctx.rows[g] & imask == imask:
                back |= 1 << g
        if back == emask:
            out.add(
                (
                    tuple(g for g in range(n) if emask >> g & 1),
                    tuple(j for j in range(m) if imask >> j & 1),
                )
            )
    return out


def test_diagonal_context_has_five_concepts():
    ctx = FormalContext(("1", "2", "3"), ("a", "b", "c"), (1, 2, 4))
    concepts = enumerate_concepts(ctx)
    assert _concept_set(concepts) == {
        ((), (0, 1, 2)),
        ((0,), (0,)),
        ((1,), (1,)),
        ((2,), (2,)),
        ((0, 1, 2), ()),
    }


def test_small_chain_context_has_two_concepts():
    ctx = FormalContext(("1", "2"), ("a", "b"), (3, 2))
    assert _concept_set(enumerate_concepts(ctx)) == {
        ((0,), (0, 1)),
        ((0, 1), (1,)),
    }


def test_empty_incidence_context_has_two_concepts():
    ctx = FormalContext(("1", "2"), ("a", "b"), (0, 0))
    assert _concept_set(enumerate_concepts(ctx)) == {
        ((0, 1), ()),
        ((), (0, 1)),
    }


def test_degenerate_context_has_one_concept():
    ctx = FormalContext((), (), ())
    assert _concept_set(enumerate_concepts(ctx)) == {((), ())}


def test_enumeration_matches_brute_force_on_all_small_contexts():
    """Exhaustive sweep over every context with at most 4 objects and
    4 attributes."""
    for n_obj in range(5):
        for n_att in range(5):
            objects = tuple(f"g{i}" for i in range(n_obj))
            attributes = tuple(f"m{i}" for i in range(n_att))
            for code in range(1 << (n_obj * n_att)):
                rows = tuple(
                    (code >> (g * n_att)) & ((1 << n_att) - 1)
                    for g in range(n_obj)
                )
                ctx = FormalContext(objects, attributes, rows)
                got = _concept_set(enumerate_concepts(ctx, cap=math.inf))
                assert got == _brute_concepts(ctx), (n_obj, n_att, code)


def test_lectic_order_of_intents(forced_overlap):
    concepts = enumerate_concepts(forced_overlap)
    n_att = forced_overlap.n_attributes

    def lectic_key(intent):
        # lectic order: the smallest attribute is the most significant
        return tuple(1 if m in intent else 0 for m in range(n_att))

    keys = [lectic_key(c.intent) for c in concepts]
    assert keys == sorted(keys)


def test_lectic_sorted_orders_object_and_attribute_intents_as_next_closure():
    """The intents ``two_factorize`` orders, those of the object and
    attribute concepts, come out in the order NextClosure produces them
    in the whole enumeration."""
    contexts = [
        FormalContext((), ("m", "n"), ()),
        FormalContext(("g", "h"), (), (0, 0)),
    ]
    contexts += [
        random_context(GeneratorSpec(1 + s % 7, 1 + s // 7 % 7, 0.5, s))
        for s in range(60)
    ]
    for ctx in contexts:
        columns = {
            sum(1 << g for g, row in enumerate(ctx.rows) if row >> m & 1)
            for m in range(ctx.n_attributes)
        }
        expected = [
            intent
            for extent, intent in reference_concept_masks(ctx, math.inf)
            if intent in ctx.rows or extent in columns
        ]
        assert lectic_sorted(set(expected), ctx.n_attributes) == expected


def test_concept_cap_enforced():
    # contranominal scales have one concept per attribute subset
    def contranominal(n):
        full = (1 << n) - 1
        return FormalContext(
            tuple(str(i) for i in range(n)),
            tuple(chr(97 + i) for i in range(n)),
            tuple(full ^ (1 << i) for i in range(n)),
        )

    five = contranominal(5)
    assert len(enumerate_concepts(five)) == 32
    assert concept_cap(five) == 39
    six = contranominal(6)
    assert concept_cap(six) == 56
    with pytest.raises(of.ConceptBudgetExceeded):
        enumerate_concepts(six)
    assert len(enumerate_concepts(six, cap=math.inf)) == 64
    assert len(enumerate_concepts(six, cap=64)) == 64


def _outcome(enumerate_, ctx, cap):
    try:
        return enumerate_(ctx, cap)
    except of.ConceptBudgetExceeded as exc:
        return type(exc), str(exc)


def _reference_concepts(ctx, cap):
    return [
        Concept(frozenset(bits(extent)), frozenset(bits(intent)))
        for extent, intent in reference_concept_masks(ctx, cap)
    ]


def test_enumeration_matches_next_closure_on_seeded_contexts():
    """Same concepts in the same order as NextClosure, and the same
    error and message whenever the cap is below the concept count."""
    compared = refused = 0
    for ctx in seeded_contexts():
        count = len(_reference_concepts(ctx, math.inf))
        for cap in (None, math.inf, 0, 1, count, count - 1):
            expected = _outcome(_reference_concepts, ctx, cap)
            assert _outcome(enumerate_concepts, ctx, cap) == expected, (
                ctx.n_objects, ctx.n_attributes, ctx.rows, cap,
            )
            compared += 1
            refused += isinstance(expected, tuple)
        assert isinstance(_outcome(enumerate_concepts, ctx, 0), tuple)
    assert compared == 6 * 130
    assert refused > 2 * 130


def test_concept_order_of_diagonal_context():
    ctx = FormalContext(("1", "2", "3"), ("a", "b", "c"), (1, 2, 4))
    concepts = enumerate_concepts(ctx)
    order = concept_order(concepts)
    n = len(concepts)
    assert n == 5
    sizes = [len(c.extent) for c in concepts]
    bottom = sizes.index(0)
    top = sizes.index(3)
    for i in range(n):
        assert order.leq[bottom] >> i & 1
        assert order.leq[i] >> top & 1
        assert order.leq[i] >> i & 1
    atoms = [i for i in range(n) if sizes[i] == 1]
    for i in atoms:
        for j in atoms:
            if i != j:
                assert not order.leq[i] >> j & 1


def test_concept_order_matches_extent_inclusion(forced_overlap):
    """On the fixture and the seeded contexts up to 20x20."""
    contexts = [forced_overlap] + [
        ctx for ctx in seeded_contexts() if ctx.n_objects <= 20
    ]
    for ctx in contexts:
        concepts = enumerate_concepts(ctx, math.inf)
        order = concept_order(concepts)
        for i, a in enumerate(concepts):
            for j, b in enumerate(concepts):
                assert bool(order.leq[i] >> j & 1) == (a.extent <= b.extent)


def test_cocomparability_of_diagonal_context_is_a_triangle():
    ctx = FormalContext(("1", "2", "3"), ("a", "b", "c"), (1, 2, 4))
    order = concept_order(enumerate_concepts(ctx))
    adj = cocomparability_graph(order.leq)
    degrees = sorted(mask.bit_count() for mask in adj)
    assert degrees == [0, 0, 2, 2, 2]
    assert sum(degrees) // 2 == 3


def test_total_order_has_edgeless_cocomparability():
    leq = (0b111, 0b110, 0b100)
    assert cocomparability_graph(leq) == (0, 0, 0)


def test_s3_cocomparability_has_nine_edges(s3_poset):
    adj = cocomparability_graph(s3_poset.leq)
    assert sum(mask.bit_count() for mask in adj) // 2 == 9


def test_s3_is_not_transitively_orientable(s3_poset):
    adj = cocomparability_graph(s3_poset.leq)
    with pytest.raises(of.NotTwoDimensional):
        transitive_orientation(adj)
    # brute force over every orientation of the 9 edges agrees
    edges = [
        (i, j) for i in range(6) for j in range(i + 1, 6) if adj[i] >> j & 1
    ]
    assert len(edges) == 9
    for bits in range(1 << 9):
        out = [0] * 6
        for b, (i, j) in enumerate(edges):
            if bits >> b & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
        transitive = True
        for a in range(6):
            mask = out[a]
            while mask and transitive:
                low = mask & -mask
                mask ^= low
                if out[low.bit_length() - 1] & ~out[a]:
                    transitive = False
        if transitive:
            pytest.fail(f"orientation {bits:09b} is transitive")


def test_triangle_orientation_is_total():
    adj = (0b110, 0b101, 0b011)
    out = transitive_orientation(adj)
    assert sum(mask.bit_count() for mask in out) == 3
    for i in range(3):
        for j in range(3):
            if i != j:
                assert (out[i] >> j & 1) != (out[j] >> i & 1)


def test_five_cycle_is_not_orientable():
    adj = [0] * 5
    for i in range(5):
        j = (i + 1) % 5
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    with pytest.raises(of.NotTwoDimensional):
        transitive_orientation(tuple(adj))


def test_orientation_refuses_an_asymmetric_adjacency():
    # vertex 0 lists 1 as a neighbour but 1 does not list 0
    with pytest.raises(of.NotTwoDimensional, match="vertex 1 has unoriented"):
        transitive_orientation((0b10, 0))


def _orientation_or_message(orient, adjacency):
    try:
        return orient(adjacency)
    except of.NotTwoDimensional as exc:
        return str(exc)


def _seeded_graphs(count):
    """Random graphs of 0-15 vertices at mixed densities, one per seed."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(0, 15)
        density = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        yield tuple(adj)


def _factorize_graphs(monkeypatch):
    """The cocomparability graphs ``two_factorize`` orients for the
    fixtures and 200 seeded contexts, half of them two-factorizable."""
    contexts = [of.load_dataset(name) for name in of.available_datasets()]
    for seed in range(200):
        rng = random.Random(seed)
        spec = GeneratorSpec(
            rng.randint(3, 20), rng.randint(3, 20), rng.choice([0.3, 0.5, 0.7]), seed
        )
        generate = random_two_factorizable_context if seed % 2 else random_context
        contexts.append(generate(spec))
    graphs = []

    def recording(adjacency):
        graphs.append(adjacency)
        return transitive_orientation(adjacency)

    monkeypatch.setattr("ordfactor.twofactor.transitive_orientation", recording)
    for ctx in contexts:
        try:
            two_factorize(ctx)
        except of.NotTwoFactorizable:
            pass
    assert len(graphs) == len(contexts)
    return graphs


def test_orientation_matches_the_per_edge_reference(monkeypatch):
    """Forcing a class edge's set of edges in one mask step gives the
    rows, or the message, of the per-edge reference."""
    counts = {"random": [0, 0], "factorize": [0, 0]}
    corpora = {
        "random": list(_seeded_graphs(4000)),
        "factorize": _factorize_graphs(monkeypatch),
    }
    for name, graphs in corpora.items():
        for adj in graphs:
            got = _orientation_or_message(transitive_orientation, adj)
            want = _orientation_or_message(reference_transitive_orientation, adj)
            assert got == want, adj
            if isinstance(got, tuple):
                counts[name][0] += 1
            elif "forced in both directions" in got:
                counts[name][1] += 1
    # orientable and conflicting graphs on both sides of the comparison
    assert counts["random"][0] >= 2500 and counts["random"][1] >= 1000, counts
    assert counts["factorize"][0] >= 100 and counts["factorize"][1] >= 75, counts


@pytest.mark.parametrize(
    "leq, conjugate, message",
    [
        ((1,), (0, 0), "wrong size"),
        # an irreflexive row: the unions' intersection adds the element
        ((0,), (0,), "intersection differs at 0"),
    ],
)
def test_realizer_refuses_a_conjugate_that_does_not_fit(leq, conjugate, message):
    with pytest.raises(of.NotTwoDimensional, match=message):
        realizer_sequences(of.ConceptOrder(leq), conjugate)


def test_orientation_deterministic():
    # the 4-cycle 0-1, 1-3, 3-2, 2-0
    adj = (0b0110, 0b1001, 0b1001, 0b0110)
    first = transitive_orientation(adj)
    second = transitive_orientation(adj)
    assert first == second


def test_realizer_on_complement_of_factorizable_contexts(forced_overlap):
    comp = of.complement(forced_overlap)
    order = concept_order(enumerate_concepts(comp))
    conjugate = transitive_orientation(cocomparability_graph(order.leq))
    seq1, seq2 = realizer_sequences(order, conjugate)
    n = len(order.leq)
    assert sorted(seq1) == list(range(n))
    assert sorted(seq2) == list(range(n))
    pos1 = {v: p for p, v in enumerate(seq1)}
    pos2 = {v: p for p, v in enumerate(seq2)}
    for i in range(n):
        for j in range(n):
            both = pos1[i] <= pos1[j] and pos2[i] <= pos2[j]
            assert both == bool(order.leq[i] >> j & 1)


def test_linear_sequence_reads_a_chain_from_least_to_greatest():
    # 2 < 0 < 3 < 1
    strict = (0b1010, 0b0000, 0b1011, 0b0010)
    assert linear_sequence(strict) == (2, 0, 3, 1)
    assert linear_sequence(()) == ()


@pytest.mark.parametrize(
    "strict",
    [
        (0b111, 0b100, 0b000),  # the chain 0 < 1 < 2 plus 0 < 0
        (0b110, 0b000, 0b000),  # 1 and 2 are incomparable
        (0b110, 0b101, 0b000),  # 0 and 1 ordered both ways
        (0b010, 0b100, 0b001),  # cyclic tournament 0 < 1 < 2 < 0
    ],
)
def test_linear_sequence_rejects_non_total_orders(strict):
    assert linear_sequence(strict) is None


def test_realizer_rejects_every_one_bit_corruption_of_the_conjugate(
    forced_overlap,
):
    order = concept_order(enumerate_concepts(of.complement(forced_overlap)))
    leq_c = transitive_orientation(cocomparability_graph(order.leq))
    n = len(leq_c)
    for i in range(n):
        for j in range(n):
            flipped = list(leq_c)
            flipped[i] ^= 1 << j
            with pytest.raises(of.NotTwoDimensional):
                realizer_sequences(order, tuple(flipped))
