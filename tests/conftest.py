"""Shared fixtures and helpers for the test suite."""
from collections import deque
import csv
import io
import json
import random
import time
from functools import reduce
from itertools import combinations

import pytest

import ordfactor as of
from ordfactor.bitset import bits, transpose
from ordfactor.dimension import Poset
from ordfactor.context import (
    FormalContext,
    IncidencePair,
    complement,
    is_string_list,
    remove_incidences,
)
from ordfactor.errors import (
    BudgetExceeded,
    ConceptBudgetExceeded,
    CountMismatch,
    IllegalCharacter,
    InvalidFactorization,
    MalformedHeader,
    NotFound,
    NotTwoDimensional,
    NotTwoFactorizable,
)
from ordfactor.incompat import (
    bipartition,
    build_incompatibility_graph,
    isolated_pairs,
    pack_odd_cycles,
    sweep,
    two_color,
)
from ordfactor.lattice import (
    Concept,
    cocomparability_graph,
    concept_cap,
    concept_order,
    enumerate_concepts,
    linear_sequence,
    realizer_sequences,
    transitive_orientation,
)
from ordfactor.maximal import HEURISTIC_RESTARTS
from ordfactor.twofactor import (
    FactorizationResult,
    FerrersFactor,
    _canonical_labels,
    _ferrers_violation,
    validate_factorization,
)


@pytest.fixture(scope="session")
def monuments():
    return of.load_dataset("monuments")


@pytest.fixture(scope="session")
def contranominal3():
    return of.load_dataset("contranominal3")


@pytest.fixture(scope="session")
def forced_overlap():
    return of.load_dataset("forced_overlap")


@pytest.fixture(scope="session")
def persistent_odd_cycle():
    return of.load_dataset("persistent_odd_cycle")


@pytest.fixture(scope="session")
def s3_poset():
    """The standard example S3: a_i below b_j exactly when i differs from j."""
    names = ("a1", "a2", "a3", "b1", "b2", "b3")
    relations = [
        (f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    ]
    return Poset.from_relations(names, relations)


@pytest.fixture(scope="session")
def published_transversal(persistent_odd_cycle):
    """The 17 incidences known to induce a bipartite subgraph of the
    18x18 fixture's incompatibility graph."""
    ctx = persistent_odd_cycle
    raw = [
        (6, "j"), (4, "n"), (7, "p"), (18, "p"), (6, "p"), (6, "n"),
        (12, "k"), (10, "g"), (6, "g"), (5, "p"), (2, "i"), (4, "p"),
        (12, "m"), (3, "i"), (12, "h"), (1, "p"), (2, "q"),
    ]
    return tuple(
        of.IncidencePair(g - 1, ctx.attributes.index(a)) for g, a in raw
    )


def induced_bipartite(graph, deleted):
    """Whether the subgraph induced by the non-deleted vertices is
    2-colorable.  ``deleted`` holds vertex indices."""
    keep = 0
    for i in range(graph.n):
        if i not in deleted:
            keep |= 1 << i
    color = {}
    for start in range(graph.n):
        if not keep >> start & 1 or start in color:
            continue
        color[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            mask = graph.adjacency[v] & keep
            while mask:
                low = mask & -mask
                mask ^= low
                w = low.bit_length() - 1
                if w not in color:
                    color[w] = 3 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def planted_context(k, seed):
    """A k x k union of two staircases, ``random_two_factorizable_context``
    at density 0.4, with 3 of its non-incidences switched on (chosen by
    ``random.Random(seed)``).  Removing those 3 gives back a
    two-factorizable context, so the optimum is at most 3."""
    ctx = of.random_two_factorizable_context(of.GeneratorSpec(k, k, 0.4, seed))
    holes = [
        (g, m)
        for g in range(k)
        for m in range(k)
        if not ctx.rows[g] >> m & 1
    ]
    rows = list(ctx.rows)
    for g, m in random.Random(seed).sample(holes, 3):
        rows[g] |= 1 << m
    return FormalContext(ctx.objects, ctx.attributes, tuple(rows))


def checked_cycle_bound(ctx, cycles):
    """How many incidences any valid removal from ``ctx`` must drop, by
    ``cycles``: each one a sequence of incidence pairs in cycle order.
    It reads only the context rows, so it trusts no solver code: each
    cycle must be odd and closed, each consecutive pair (last to first
    included) incompatible by the pair rule, and no two cycles may share
    an incidence.  Each such cycle needs a removal of its own."""
    used = set()
    for cycle in cycles:
        assert len(cycle) % 2 == 1 and len(cycle) >= 3, cycle
        assert len(set(cycle)) == len(cycle), cycle
        for (g, m), (h, n) in zip(cycle, cycle[1:] + cycle[:1]):
            assert ctx.rows[g] >> m & 1 and ctx.rows[h] >> n & 1
            assert not ctx.rows[g] >> n & 1 and not ctx.rows[h] >> m & 1
        assert used.isdisjoint(cycle), cycle
        used.update(cycle)
    return len(cycles)


def acceptance_5_corpus():
    """The 200 random contexts of ACCEPTANCE criterion 5: shapes up to
    5x5 at densities 0.3-0.5, the first 200 seeds with at most 14
    incidences."""
    shapes = ((5, 5), (4, 5), (5, 4), (4, 4), (3, 5))
    densities = (0.3, 0.4, 0.5)
    corpus = []
    seed = 0
    while len(corpus) < 200:
        g, m = shapes[seed % len(shapes)]
        density = densities[seed % len(densities)]
        ctx = of.random_context(of.GeneratorSpec(g, m, density, seed))
        seed += 1
        if ctx.incidence_count <= 14:
            corpus.append(ctx)
    return corpus


def reference_transpose(rows, width):
    """The per-bit loop that ``bitset.transpose`` replaced, kept verbatim
    as a reference: bit i of result row j is bit j of row i."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return cols


def reference_brute_force_min_removal(
    ctx: FormalContext, k_max: int, budget: float | None = None
) -> int:
    """The graph-side brute-force oracle, before it decided each
    candidate with ``two_factorize``."""
    deadline = time.monotonic() + budget if budget is not None else None
    pairs = ctx.pairs()
    for k in range(min(k_max, len(pairs)) + 1):
        for subset in combinations(range(len(pairs)), k):
            candidate = remove_incidences(ctx, [pairs[i] for i in subset])
            if bipartition(build_incompatibility_graph(candidate)).is_bipartite:
                return k
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("brute-force removal search out of time")
    raise NotFound(f"no removal of at most {k_max} incidences suffices")


def reference_two_color(adj, active):
    """The queue-based breadth-first 2-coloring that ``incompat.two_color``
    replaced, kept verbatim as a reference: its colorings must match the
    layered sweep's, and its cycles feed the exact search as well."""
    color = {}
    parent = {}
    left = active
    while left:
        root = (left & -left).bit_length() - 1
        color[root] = 0
        left ^= 1 << root
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in bits(adj[v] & active):
                if w not in color:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    left ^= 1 << w
                    queue.append(w)
                elif color[w] == color[v]:
                    return None, _reference_trimmed_cycle(v, w, parent)
    return color, None


def brute_min_transversal(adj, active):
    """The lexicographically smallest minimum odd cycle transversal of
    the subgraph induced by ``active``, as a sorted vertex tuple: every
    vertex subset is tried in order of size, each with
    :func:`reference_two_color`, so it shares no code with the exact
    search."""
    vertices = [v for v in range(len(adj)) if active >> v & 1]
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            kept = active & ~sum(1 << v for v in combo)
            if reference_two_color(adj, kept)[1] is None:
                return combo


def deletes_to_bipartite(adj, deleted):
    """Whether deleting the vertices ``deleted`` leaves a subgraph that
    :func:`reference_two_color` 2-colors."""
    kept = (1 << len(adj)) - 1
    for v in deleted:
        kept &= ~(1 << v)
    return reference_two_color(adj, kept)[1] is None


def _reference_trimmed_cycle(v, w, parent):
    """The odd cycle closed by the edge v-w of one breadth-first layer.

    ``v`` and ``w`` have the same depth in the search tree ``parent``;
    both branches are walked up to their meeting point.
    """
    left = [v]
    right = [w]
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return tuple(left[:-1] + list(reversed(right)))


def reference_disjoint_odd_cycles(adj, active, two_color=two_color):
    """The greedy odd-cycle packing of ``maximal._ExactOct`` before
    ``incompat.pack_odd_cycles`` resumed its sweep, kept verbatim as a
    reference: ``two_color`` restarts from scratch after each packed
    cycle.  Cycles come back as vertex tuples in cycle order."""
    cycles = []
    work = active
    while True:
        _, cycle = two_color(adj, work)
        if cycle is None:
            return cycles
        cycles.append(cycle)
        for v in cycle:
            work &= ~(1 << v)


def reference_packing(calls, two_color=two_color):
    """A drop-in for ``maximal.pack_odd_cycles`` that packs with
    :func:`reference_disjoint_odd_cycles`; it appends each ``active`` it
    is called on to ``calls``."""

    def pack(adj, active):
        calls.append(active)
        return [
            sum(1 << v for v in cycle)
            for cycle in reference_disjoint_odd_cycles(adj, active, two_color)
        ]

    return pack


class reference_exact_oct:
    """The exact transversal search before it deepened its bound, kept
    as a reference: it solves a disconnected subgraph part by part (the
    parts share the allowed size) and :meth:`run` searches once at
    ``ub = n``.  Its docstrings and annotations are left out, and its
    call of ``pack_odd_cycles`` no longer passes the first cycle, which
    that function now finds itself.  It returns the lexicographically
    smallest minimum transversal; the deepening search returns the first
    minimum it reaches, so the two agree on each answer's size."""

    def __init__(self, adjacency, deadline):
        self.adj = adjacency
        self.deadline = deadline
        # isolated vertices lie on no odd cycle
        self.active = sum(1 << v for v in range(len(adjacency)) if adjacency[v])
        # a solved subgraph's transversal, or a size its transversal exceeds
        self.memo = {}

    def run(self):
        result = self.search(len(self.adj))
        assert result is not None
        return result[1]

    def search(self, ub):
        stack = [self.solve(self.active, ub)]
        answer = None
        while True:
            try:
                request = stack[-1].send(answer)
            except StopIteration as done:
                stack.pop()
                answer = done.value
                if not stack:
                    return answer
            else:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise BudgetExceeded("exact transversal search out of time")
                stack.append(self.solve(*request))
                answer = None

    def solve(self, active, ub):
        if ub < 0:
            return None
        known = self.memo.get(active, 0)
        if isinstance(known, tuple):
            return known if known[0] <= ub else None
        if known > ub:
            return None
        # a bipartite subgraph, like the empty one, needs no deletion
        result = (0, ())
        parts = list(sweep(self.adj, active))
        if len(parts) != 1:
            for part, _, _ in parts:
                sub = yield part, ub - result[0]
                if sub is None:
                    result = None
                    break
                merged = tuple(sorted(result[1] + sub[1]))
                result = (result[0] + sub[0], merged)
        elif parts[0][2] is not None:
            cycles = pack_odd_cycles(self.adj, active)
            # prune: each packed cycle needs a deletion of its own
            branch = min(cycles, key=int.bit_count) if len(cycles) <= ub else 0
            result = None
            for v in bits(branch):
                # limit keeps equal-size candidates reachable for the
                # lexicographic tie-break
                limit = (result[0] if result is not None else ub) - 1
                sub = yield active & ~(1 << v), limit
                if sub is None:
                    continue
                candidate = (sub[0] + 1, tuple(sorted(sub[1] + (v,))))
                if result is None or candidate < result:
                    result = candidate
        self.memo[active] = ub + 1 if result is None else result
        return result


def reference_heuristic_oct(adj, seed, deadline):
    """The heuristic transversal as a plain rescan of every vertex per
    step, with generator sums for the conflict counts.  It makes the
    same choices as ``maximal._heuristic_oct`` and is kept only to
    check that the bit-sliced counts there change no decision."""
    n = len(adj)
    rng = random.Random(seed)
    best = None
    for _ in range(HEURISTIC_RESTARTS):
        color = [rng.randrange(2) for _ in range(n)]
        active = (1 << n) - 1 if n else 0
        while True:
            worst_v = -1
            worst_c = 0
            for v in range(n):
                if not active >> v & 1:
                    continue
                same = sum(
                    1
                    for w in bits(adj[v] & active)
                    if color[w] == color[v]
                )
                if same > worst_c:
                    worst_c = same
                    worst_v = v
            if worst_v < 0:
                break
            other = adj[worst_v] & active
            flipped = sum(
                1 for w in bits(other) if color[w] != color[worst_v]
            )
            if flipped < worst_c:
                color[worst_v] ^= 1
            else:
                active &= ~(1 << worst_v)
        for v in range(n):
            if active >> v & 1:
                continue
            seen = {color[w] for w in bits(adj[v] & active)}
            if len(seen) <= 1:
                color[v] = 1 - seen.pop() if seen else 0
                active |= 1 << v
        evicted = tuple(v for v in range(n) if not active >> v & 1)
        candidate = (len(evicted), evicted)
        if best is None or candidate < best:
            best = candidate
        if deadline is not None and time.monotonic() > deadline:
            break
    assert best is not None or n == 0
    return best[1] if best else ()


def reference_concept_masks(ctx, cap=None):
    """The (extent, intent) bitmasks of all concepts from NextClosure,
    in lectic order of intents, one lectic successor at a time.  It
    raises the same :class:`ConceptBudgetExceeded` past ``cap`` as
    ``lattice.enumerate_concepts`` and is kept only to check that
    enumeration by row intersections changes no concept, order or
    message."""
    if cap is None:
        cap = concept_cap(ctx)
    m = ctx.n_attributes
    full_attrs = (1 << m) - 1
    rows = ctx.rows

    def close(amask):
        # extent of the attribute set, then intent of that extent
        extent = 0
        intent = full_attrs
        for g, row in enumerate(rows):
            if row & amask == amask:
                extent |= 1 << g
                intent &= row
        return extent, intent

    extent, current = close(0)
    produced = 0
    while True:
        produced += 1
        if produced > cap:
            raise ConceptBudgetExceeded(
                f"more than {cap} concepts for a context of size "
                f"{ctx.n_objects}x{ctx.n_attributes}"
            )
        yield extent, current
        if current == full_attrs:
            return
        for i in range(m - 1, -1, -1):
            if current >> i & 1:
                continue
            below = (1 << i) - 1
            candidate = (current & below) | (1 << i)
            extent, closed = close(candidate)
            # lectic successor test: no new attribute below i
            if closed & below & ~current:
                continue
            current = closed
            break
        else:
            raise AssertionError("NextClosure failed to advance")


def reference_two_factorize(ctx):
    """``two_factorize`` as it was before it ordered only the object and
    attribute concepts: it enumerates the whole complement concept
    lattice, says no past the concept cap, and sweeps every concept
    along both realizer orders.  Kept verbatim as a reference: the
    factors, the shared pairs and the verdict must not change."""
    comp = complement(ctx)
    try:
        concepts = enumerate_concepts(comp)
    except ConceptBudgetExceeded as exc:
        # past the concept bound for two-dimensional contexts
        raise NotTwoFactorizable(str(exc)) from exc
    order = concept_order(concepts)
    try:
        conjugate = transitive_orientation(cocomparability_graph(order.leq))
        seq1, seq2 = realizer_sequences(order, conjugate)
    except NotTwoDimensional as exc:
        raise NotTwoFactorizable(
            "complement concept lattice has no conjugate order"
        ) from exc
    ext_masks = [_mask(c.extent) for c in concepts]
    int_masks = [_mask(c.intent) for c in concepts]
    full = (1 << ctx.n_attributes) - 1
    f1, f2 = (
        _rows_to_pairs(
            _sweep_rows(ctx.n_objects, full, ext_masks, int_masks, seq)
        )
        for seq in (seq1, seq2)
    )
    f1, f2 = _canonical_labels(f1, f2)
    result = FactorizationResult(
        FerrersFactor(f1),
        FerrersFactor(f2),
        removed=frozenset(),
        certificate=True,
        rounds=0,
    )
    problems = validate_factorization(ctx, result)
    if problems:
        raise NotTwoFactorizable("; ".join(v.message for v in problems))
    return result


def irreducible_concepts(ctx):
    """``lattice.irreducible_concepts`` as it was before ``two_factorize``
    ordered the intent masks directly: the object and attribute concepts,
    in lectic order of intents.  Kept verbatim, with its helper, for the
    references below."""
    full = (1 << ctx.n_attributes) - 1
    meets = (
        reduce(int.__and__, (row for row in ctx.rows if row >> m & 1), full)
        for m in range(ctx.n_attributes)
    )
    return _lectic_concepts(ctx, {*ctx.rows, *meets})


def _lectic_concepts(ctx, intents):
    m = ctx.n_attributes
    return [
        Concept(
            frozenset(g for g, row in enumerate(ctx.rows) if row & i == i),
            frozenset(bits(i)),
        )
        for i in sorted(intents, key=lambda mask: f"{mask:0{m}b}"[::-1])
    ]


def reference_concept_two_factorize(ctx):
    """``two_factorize`` as it was before it ordered the intent masks
    directly: it builds a ``Concept`` per object and attribute concept,
    orders them with ``concept_order`` and finds each row and column
    again by its frozenset.  Kept verbatim as a reference: the factors,
    the shared pairs and every message must not change."""
    comp = complement(ctx)
    concepts = irreducible_concepts(comp)
    leq = concept_order(concepts).leq
    try:
        conjugate = transitive_orientation(cocomparability_graph(leq))
    except NotTwoDimensional as exc:
        raise NotTwoFactorizable(
            "complement object and attribute concepts have no conjugate order"
        ) from exc
    by_intent = {c.intent: i for i, c in enumerate(concepts)}
    by_extent = {c.extent: i for i, c in enumerate(concepts)}
    gamma = [by_intent[frozenset(bits(row))] for row in comp.rows]
    columns = transpose(comp.rows, comp.n_attributes)
    mu = [by_extent[frozenset(bits(column))] for column in columns]
    f1, f2 = (
        frozenset(
            p
            for p in ctx.pairs()
            if (leq[mu[p[1]]] | after[mu[p[1]]]) >> gamma[p[0]] & 1
        )
        for after in (conjugate, transpose(conjugate, len(leq)))
    )
    f1, f2 = _canonical_labels(f1, f2)
    result = FactorizationResult(
        FerrersFactor(f1), FerrersFactor(f2), frozenset(), certificate=True
    )
    problems = validate_factorization(ctx, result)
    if problems:
        raise NotTwoFactorizable("; ".join(v.message for v in problems))
    return result


def reference_realizer_two_factorize(ctx):
    """``two_factorize`` as it was before it read the factors off the
    conjugate rows: it builds both realizer orders with
    ``realizer_sequences``, which checks each is a strict total order
    and that they intersect in the concept order, and compares positions
    in them.  Kept verbatim as a reference: the factors, the shared
    pairs and every message must not change."""
    comp = complement(ctx)
    concepts = irreducible_concepts(comp)
    order = concept_order(concepts)
    try:
        conjugate = transitive_orientation(cocomparability_graph(order.leq))
        realizer = realizer_sequences(order, conjugate)
    except NotTwoDimensional as exc:
        raise NotTwoFactorizable(
            "complement object and attribute concepts have no conjugate order"
        ) from exc
    by_intent = {c.intent: i for i, c in enumerate(concepts)}
    by_extent = {c.extent: i for i, c in enumerate(concepts)}
    gamma = [by_intent[frozenset(bits(row))] for row in comp.rows]
    columns = transpose(comp.rows, comp.n_attributes)
    mu = [by_extent[frozenset(bits(column))] for column in columns]
    f1, f2 = (
        frozenset(p for p in ctx.pairs() if at[mu[p[1]]] < at[gamma[p[0]]])
        for at in ({i: t for t, i in enumerate(seq)} for seq in realizer)
    )
    f1, f2 = _canonical_labels(f1, f2)
    result = FactorizationResult(
        FerrersFactor(f1), FerrersFactor(f2), frozenset(), certificate=True
    )
    problems = validate_factorization(ctx, result)
    if problems:
        raise NotTwoFactorizable("; ".join(v.message for v in problems))
    return result


def reference_canonical_partition(ctx, result):
    """``canonical_partition`` as it was before it read the core off
    ``two_factorize``: the core is the set of isolated vertices of the
    covered context's incompatibility graph.  Kept verbatim as a
    reference; returns the normalized factors and the core."""
    problems = validate_factorization(ctx, result)
    if problems:
        raise InvalidFactorization("; ".join(v.message for v in problems))
    covered_ctx = (
        remove_incidences(ctx, result.removed) if result.removed else ctx
    )
    core = isolated_pairs(build_incompatibility_graph(covered_ctx))
    f1 = result.f1.pairs | core
    f2 = result.f2.pairs | core
    if _ferrers_violation(f1) or _ferrers_violation(f2):
        raise InvalidFactorization("adding the core broke a factor")
    f1, f2 = _canonical_labels(f1, f2)
    return f1, f2, core


def _sweep_rows(
    n_objects: int,
    full: int,
    ext_masks: list[int],
    int_masks: list[int],
    seq: tuple[int, ...],
) -> list[int]:
    """Factor rows from one sweep: complement of the union of
    accumulated-extent times intent rectangles."""
    steps = len(seq)
    suffix = [0] * (steps + 1)
    for t in range(steps - 1, -1, -1):
        suffix[t] = suffix[t + 1] | int_masks[seq[t]]
    first = [steps] * n_objects
    for t, idx in enumerate(seq):
        for g in bits(ext_masks[idx]):
            if first[g] == steps:
                first[g] = t
    return [full & ~suffix[first[g]] for g in range(n_objects)]


def _rows_to_pairs(rows: list[int]) -> frozenset[IncidencePair]:
    return frozenset(
        IncidencePair(g, m) for g, row in enumerate(rows) for m in bits(row)
    )


def _mask(indices: frozenset[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def random_poset(n, seed):
    """A random poset built from arcs along a shuffled linear order."""
    rng = random.Random(seed)
    names = tuple(chr(97 + i) for i in range(n))
    order = list(range(n))
    rng.shuffle(order)
    density = rng.choice((0.2, 0.4, 0.6))
    relations = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                relations.append((names[order[a]], names[order[b]]))
    return Poset.from_relations(names, relations)


def three_order_poset(n, seed):
    """The intersection of three seeded random linear orders on n elements."""
    rng = random.Random(seed)
    ranks = []
    for _ in range(3):
        order = list(range(n))
        rng.shuffle(order)
        ranks.append({v: r for r, v in enumerate(order)})
    leq = tuple(
        sum(1 << j for j in range(n) if all(r[i] <= r[j] for r in ranks))
        for i in range(n)
    )
    return Poset(tuple(f"p{i}" for i in range(n)), leq)


def read_biplot_csv(text):
    """The (object, x, y) rows of a csv biplot, read back with
    ``csv.reader`` after its two one-line ``#axis`` comments."""
    first, second, body = text.split("\n", 2)
    assert first.startswith("#axis1: ") and second.startswith("#axis2: ")
    header, *rows = csv.reader(io.StringIO(body, newline=""))
    assert header == ["object", "x", "y"]
    return [(name, int(x), int(y)) for name, x, y in rows]


def reference_two_dimension_extension(poset, mode="exact", budget=None, seed=0):
    """``two_dimension_extension`` as it was before it built each order as
    a linear extension of the poset: it complements each factor, breaks
    mutual ties by ascending index and asserts that the result is a
    linear order containing the poset.  Kept verbatim as a reference:
    exact runs must not change, and heuristic runs may only gain."""
    n = poset.n
    full = (1 << n) - 1
    ctx = of.poset_to_context(poset)
    result = of.maximal_two_factorization(ctx, mode=mode, budget=budget, seed=seed)
    linears = []
    realizer = []
    for factor in (result.f1, result.f2):
        rows = [full] * n
        for g, m in factor.pairs:
            rows[g] &= ~(1 << m)
        # break mutual ties by ascending element index
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i] >> j & 1 and rows[j] >> i & 1:
                    rows[j] &= ~(1 << i)
        # toggling the diagonal leaves a strict order only if rows is reflexive
        sequence = linear_sequence([row ^ 1 << i for i, row in enumerate(rows)])
        if sequence is None:
            raise AssertionError("factor complement is not a linear order")
        linears.append(rows)
        realizer.append(sequence)
    # a sequence that passes is exactly its rows' linear order, so the
    # realizer meets in a & b, and two linear orders meet in a partial order
    extension = tuple(a & b for a, b in zip(*linears))
    for i in range(n):
        if poset.leq[i] & ~extension[i]:
            raise AssertionError("extension lost an original comparability")
    k = sum(row.bit_count() for row in extension) - poset.pair_count
    return of.DimensionExtension(
        k,
        frozenset(
            (i, j) for i in range(n) for j in range(n) if extension[i] >> j & 1
        ),
        (realizer[0], realizer[1]),
    )


# The readers as they were before each input format went through one
# path: .cxt rows through FormalContext.from_strings and one JSON loader
# for contexts and posets.  Kept verbatim as references: every text must
# give the same context or poset, or the same exception type and
# message, except that .cxt rows may now use a lowercase "x" and that
# JSON nested too deep or with integers past the digit limit, and count
# lines past that limit, raise MalformedHeader instead of crashing.


def _int_line(line: str) -> int | None:
    text = line.strip()
    # isdigit would also pass superscripts such as "²", which int rejects
    if text.isdecimal():
        return int(text)
    return None


def reference_parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister .cxt data.

    Expected layout: a ``B`` line, an optional title line, the object
    and attribute counts, a separating blank line, the object names, the
    attribute names, and one ``X``/``.`` row per object.  Whitespace-only
    lines between sections are tolerated.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    pos = 0
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines) or lines[pos].strip() != "B":
        raise MalformedHeader("first nonblank line must be 'B'")
    pos += 1
    if pos >= len(lines):
        raise MalformedHeader("missing object and attribute counts")
    # The title line is optional; a line that is not a bare integer is
    # taken to be the title (possibly empty).
    title: str | None = None
    if _int_line(lines[pos]) is None:
        title = lines[pos].rstrip()
        pos += 1
    counts = []
    for _ in range(2):
        if pos >= len(lines) or _int_line(lines[pos]) is None:
            raise MalformedHeader("object and attribute counts must be integers")
        counts.append(_int_line(lines[pos]))
        pos += 1
    n_objects, n_attributes = counts

    def next_content_line() -> str:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise CountMismatch("file ends before all declared lines were read")
        line = lines[pos].rstrip()
        pos += 1
        return line

    objects = tuple(next_content_line().strip() for _ in range(n_objects))
    attributes = tuple(next_content_line().strip() for _ in range(n_attributes))
    if any(not name for name in objects) or any(not name for name in attributes):
        raise MalformedHeader("object and attribute names must be nonempty")
    rows = []
    for _ in range(n_objects):
        # zero-width rows would be blank lines, so they are not written
        line = next_content_line() if n_attributes else ""
        if len(line) != n_attributes:
            raise CountMismatch(
                f"row {line!r} has {len(line)} cells, expected {n_attributes}"
            )
        mask = 0
        for j, cell in enumerate(line):
            if cell == "X":
                mask |= 1 << j
            elif cell != ".":
                raise IllegalCharacter(f"illegal cell character {cell!r}")
        rows.append(mask)
    while pos < len(lines):
        if lines[pos].strip():
            raise CountMismatch(f"unexpected trailing content: {lines[pos]!r}")
        pos += 1
    return FormalContext(objects, attributes, tuple(rows), title)


def reference_context_from_json(text: str) -> FormalContext:
    try:
        payload = json.loads(text)
        objects = payload["objects"]
        attributes = payload["attributes"]
        rows = payload["rows"]
        title = payload.get("title")
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MalformedHeader(f"invalid context JSON: {exc}") from exc
    for key, value in (
        ("objects", objects),
        ("attributes", attributes),
        ("rows", rows),
    ):
        if not is_string_list(value):
            raise MalformedHeader(
                f"invalid context JSON: {key!r} must be a list of strings"
            )
    if title is not None and not isinstance(title, str):
        raise MalformedHeader("invalid context JSON: 'title' must be a string")
    if len(rows) != len(objects):
        raise CountMismatch(f"{len(objects)} objects but {len(rows)} rows")
    return FormalContext.from_strings(objects, attributes, rows, title)


def reference_poset_from_json(text: str) -> Poset:
    """Load ``{"elements": [...], "relations": [[a, b], ...]}``."""
    try:
        payload = json.loads(text)
        elements = payload["elements"]
        relations = payload["relations"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MalformedHeader(f"invalid poset JSON: {exc}") from exc
    if not is_string_list(elements):
        raise MalformedHeader(
            "invalid poset JSON: 'elements' must be a list of strings"
        )
    if not isinstance(relations, list) or not all(
        is_string_list(pair) and len(pair) == 2 for pair in relations
    ):
        raise MalformedHeader(
            "invalid poset JSON: 'relations' must be a list of string pairs"
        )
    return Poset.from_relations(elements, relations)


_ACCEPTANCE_LINES = []


@pytest.fixture
def record_acceptance():
    def _record(number, ok, text):
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {verdict}: {text}")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
