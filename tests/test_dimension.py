"""Poset model and two-dimension-extension tests."""
import pytest

from conftest import random_poset

import ordfactor as of
from ordfactor import Poset


def _chain(names):
    n = len(names)
    rows = []
    for i in range(n):
        mask = 0
        for j in range(i, n):
            mask |= 1 << j
        rows.append(mask)
    return Poset(tuple(names), tuple(rows))


def _antichain(names):
    return Poset(tuple(names), tuple(1 << i for i in range(len(names))))


def test_poset_basic_accessors():
    chain = _chain(["a", "b", "c"])
    assert chain.n == 3
    assert chain.pair_count == 6
    assert chain.index("b") == 1


def test_poset_rejects_duplicate_names():
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "a"), (0b01, 0b10))


def test_poset_rejects_row_count_mismatch():
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "b"), (0b01,))


def test_poset_rejects_out_of_range_bits():
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "b"), (0b101, 0b10))


def test_poset_rejects_irreflexive():
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "b"), (0b01, 0b00))


def test_poset_rejects_symmetric_pair():
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "b"), (0b11, 0b11))


def test_poset_rejects_intransitive():
    rows = (0b011, 0b110, 0b100)
    with pytest.raises(of.NotAPartialOrder):
        Poset(("a", "b", "c"), rows)


def test_from_relations_closes_transitively():
    poset = Poset.from_relations(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert poset == _chain(["a", "b", "c"])


def test_from_relations_rejects_cycle():
    with pytest.raises(of.NotAPartialOrder):
        Poset.from_relations(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])


def test_from_relations_rejects_unknown_names():
    with pytest.raises(of.NotAPartialOrder):
        Poset.from_relations(("a", "b"), [("a", "z")])


def test_poset_json_round_trip(s3_poset):
    for poset in (s3_poset, _chain(["x", "y"]), _antichain(["p", "q", "r"])):
        assert of.poset_from_json(of.poset_to_json(poset)) == poset


def test_poset_json_closure_on_load():
    text = '{"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]}'
    assert of.poset_from_json(text) == _chain(["a", "b", "c"])


def test_poset_json_rejects_garbage():
    for text in (
        "not json",
        "[1, 2]",
        '{"elements": ["a"]}',
        '{"relations": []}',
        '{"elements": 5, "relations": []}',
        '{"elements": [1, 2], "relations": []}',
        '{"elements": ["a", "b"], "relations": 7}',
        '{"elements": ["a", "b"], "relations": [["a"]]}',
        '{"elements": ["a", "b"], "relations": [[["x"], "b"]]}',
    ):
        with pytest.raises(of.MalformedHeader):
            of.poset_from_json(text)


def test_context_of_antichain_is_both_off_diagonal_pairs():
    ctx = of.poset_to_context(_antichain(["a", "b"]))
    assert ctx.objects == ctx.attributes == ("a", "b")
    assert set(ctx.pairs()) == {(0, 1), (1, 0)}


def test_context_of_chain_keeps_only_downward_pairs():
    ctx = of.poset_to_context(_chain(["a", "b"]))
    assert set(ctx.pairs()) == {(1, 0)}


def test_context_of_standard_example(s3_poset):
    ctx = of.poset_to_context(s3_poset)
    assert ctx.incidence_count == s3_poset.n**2 - s3_poset.pair_count
    assert ctx.incidence_count == 24


def test_extension_of_chain_adds_nothing():
    chain = _chain(["a", "b", "c", "d"])
    ext = of.two_dimension_extension(chain)
    assert ext.k == 0
    assert ext.extension == {
        (i, j) for i in range(4) for j in range(4) if chain.leq[i] >> j & 1
    }
    assert ext.realizer[0] == (0, 1, 2, 3)
    assert ext.realizer[1] == (0, 1, 2, 3)


def test_extension_of_antichain_adds_nothing():
    ext = of.two_dimension_extension(_antichain(["a", "b", "c"]))
    assert ext.k == 0
    assert ext.extension == {(i, i) for i in range(3)}
    assert ext.realizer[0] == tuple(reversed(ext.realizer[1]))


def test_extension_of_grid_adds_nothing():
    grid = Poset.from_relations(
        ("00", "01", "10", "11"),
        [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")],
    )
    ext = of.two_dimension_extension(grid)
    assert ext.k == 0


def test_extension_of_standard_example_adds_one_pair(s3_poset):
    ext = of.two_dimension_extension(s3_poset)
    assert ext.k == 1
    original = {
        (i, j)
        for i in range(s3_poset.n)
        for j in range(s3_poset.n)
        if s3_poset.leq[i] >> j & 1
    }
    added = ext.extension - original
    assert len(added) == 1
    assert original < ext.extension


def _realizer_intersection(ext, n):
    pos1 = {v: p for p, v in enumerate(ext.realizer[0])}
    pos2 = {v: p for p, v in enumerate(ext.realizer[1])}
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if pos1[i] <= pos1[j] and pos2[i] <= pos2[j]
    }


def test_realizer_intersection_is_extension(s3_poset):
    for poset in (s3_poset, _chain(["a", "b", "c"]), _antichain(["x", "y"])):
        ext = of.two_dimension_extension(poset)
        assert _realizer_intersection(ext, poset.n) == ext.extension


def _all_posets(n):
    """Every labeled partial order on n elements."""
    names = tuple(chr(ord("a") + i) for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    stack = [(0, tuple(1 << i for i in range(n)))]
    found = []
    while stack:
        depth, rows = stack.pop()
        if depth == len(pairs):
            try:
                found.append(Poset(names, rows))
            except of.NotAPartialOrder:
                pass
            continue
        i, j = pairs[depth]
        stack.append((depth + 1, rows))
        up = list(rows)
        up[i] |= 1 << j
        stack.append((depth + 1, tuple(up)))
        down = list(rows)
        down[j] |= 1 << i
        stack.append((depth + 1, tuple(down)))
    return found


def test_every_small_poset_already_has_dimension_two():
    counts = {}
    for n in range(1, 5):
        posets = _all_posets(n)
        counts[n] = len(posets)
        for poset in posets:
            ext = of.two_dimension_extension(poset)
            assert ext.k == 0
            assert _realizer_intersection(ext, n) == ext.extension
    assert counts == {1: 1, 2: 3, 3: 19, 4: 219}


def test_random_posets_match_removal_count():
    for seed in range(30):
        poset = random_poset(5 + seed % 2, seed)
        ctx = of.poset_to_context(poset)
        result = of.maximal_two_factorization(ctx, mode="exact")
        ext = of.two_dimension_extension(poset)
        if result.certificate:
            assert ext.k == len(result.removed)
        assert _realizer_intersection(ext, poset.n) == ext.extension
