"""Poset model and two-dimension-extension tests."""
import pytest

from conftest import (
    random_poset,
    reference_two_dimension_extension,
    three_order_poset,
)

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


@pytest.mark.parametrize(
    "names, rows, message",
    [
        (("w", "x", "y"), (0b001, 0b110, 0b110), "x and y are ordered both ways"),
        (
            ("a", "b", "c", "d"),
            (0b0001, 0b0010, 0b1100, 0b1010),
            "relation not transitive at 2",
        ),
    ],
)
def test_poset_names_the_first_broken_rule(names, rows, message):
    """The first pair that breaks antisymmetry or transitivity, in row
    order, names the rule it breaks."""
    with pytest.raises(of.NotAPartialOrder, match=f"^{message}$"):
        Poset(names, rows)


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


def test_extension_rejects_an_unknown_mode(s3_poset):
    """Chains and antichains need no transversal round, S3 needs one;
    each checks the mode first."""
    chains = [_chain([]), _chain(["a"]), _chain(["a", "b"])]
    for poset in (*chains, _antichain(["a", "b", "c"]), s3_poset):
        with pytest.raises(ValueError, match="'bogus'"):
            of.two_dimension_extension(poset, mode="bogus")


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


def _assert_valid_extension(poset, ext):
    """Both realizer orders are linear extensions of the poset, they meet
    exactly in the extension, and ``k`` counts the added pairs."""
    for sequence in ext.realizer:
        assert sorted(sequence) == list(range(poset.n))
        placed = 0
        for v in sequence:
            placed |= 1 << v
            # everything below v comes before it
            below = [u for u in range(poset.n) if poset.leq[u] >> v & 1]
            assert all(placed >> u & 1 for u in below)
    assert _realizer_intersection(ext, poset.n) == ext.extension
    assert ext.k == len(ext.extension) - poset.pair_count


# heuristic runs whose factor complements have mutual ties, on which the
# order built by complementing a factor was not linear
@pytest.mark.parametrize(
    "n, poset_seed, seed, removed, k",
    [(10, 57, 0, 9, 8), (10, 11, 2, 9, 8), (12, 10, 0, 8, 6), (11, 7, 0, 23, 20)],
)
def test_heuristic_extension_is_built_from_linear_extensions(
    n, poset_seed, seed, removed, k
):
    poset = three_order_poset(n, poset_seed)
    with pytest.raises(AssertionError, match="not a linear order"):
        reference_two_dimension_extension(poset, mode="heuristic", seed=seed)
    ext = of.two_dimension_extension(poset, mode="heuristic", seed=seed)
    _assert_valid_extension(poset, ext)
    result = of.maximal_two_factorization(
        of.poset_to_context(poset), mode="heuristic", seed=seed
    )
    assert len(result.removed) == removed
    assert ext.k == k <= removed


def test_extension_orders_wait_for_everything_below(monkeypatch):
    """Removing every incidence leaves empty factors, which rank the
    elements by index alone; each order still places an element only
    after everything below it, so both are the least linear extension
    by index and the extension is that chain."""

    def remove_everything(ctx, **options):
        empty = of.FerrersFactor(frozenset())
        removed = frozenset(ctx.pairs())
        return of.FactorizationResult(empty, empty, removed, False, 1)

    monkeypatch.setattr(
        "ordfactor.dimension.maximal_two_factorization", remove_everything
    )
    for seed in range(20):
        poset = three_order_poset(8, seed)
        ext = of.two_dimension_extension(poset)
        _assert_valid_extension(poset, ext)
        assert ext.realizer[0] == ext.realizer[1]
        assert ext.k == 8 * 9 // 2 - poset.pair_count


def test_extension_matches_the_reference():
    """Exact runs give the reference's result; heuristic runs give it or
    a smaller ``k``, and a valid extension where the reference fails."""
    cases = [
        (three_order_poset(n, s), mode, h)
        for n in range(10)
        for s in range(50)
        for mode, h in [("exact", 0), *(("heuristic", h) for h in range(3))]
    ]
    # a reference failure and a smaller k, both at 10 elements
    cases += [(three_order_poset(10, 11), "heuristic", 2)]
    cases += [(three_order_poset(10, 29), "heuristic", 2)]
    outcomes = {"same": 0, "smaller": 0, "failed": 0}
    for poset, mode, h in cases:
        ext = of.two_dimension_extension(poset, mode=mode, seed=h)
        try:
            expected = reference_two_dimension_extension(poset, mode=mode, seed=h)
        except AssertionError:
            assert mode == "heuristic"
            _assert_valid_extension(poset, ext)
            outcomes["failed"] += 1
            continue
        if ext == expected:
            outcomes["same"] += 1
        else:
            assert mode == "heuristic" and ext.k < expected.k
            _assert_valid_extension(poset, ext)
            outcomes["smaller"] += 1
    assert outcomes == {"same": 2000, "smaller": 1, "failed": 1}
