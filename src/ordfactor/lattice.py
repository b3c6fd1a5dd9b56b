"""Concept lattices, cocomparability graphs and transitive orientations.

The concept intents are the full attribute set and every intersection
of object rows, collected in one pass and sorted in lectic order.
The order on concepts (extent inclusion) is kept as bitmask rows, and a
conjugate order is found, when one exists, by orienting the
cocomparability graph transitively: implication classes are forced one
at a time and the result is verified explicitly, so a wrong orientation
can never leak out.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .bitset import bits, transpose
from .context import FormalContext
from .errors import ConceptBudgetExceeded, NotTwoDimensional


class Concept(NamedTuple):
    extent: frozenset[int]
    intent: frozenset[int]


def concept_cap(ctx: FormalContext) -> int:
    """Default enumeration cap: 3/2 * min(|G|, |M|)**2 + 2.

    Contexts whose complement admits an ordinal two-factorization stay
    under this bound, so exceeding it while factorizing is itself a
    certificate of failure.
    """
    k = min(ctx.n_objects, ctx.n_attributes)
    return 3 * k * k // 2 + 2


def enumerate_concepts(
    ctx: FormalContext, cap: int | float | None = None
) -> list[Concept]:
    """All formal concepts, in lectic order of intents.

    ``cap`` limits how many concepts may be produced; ``None`` selects
    the default from :func:`concept_cap`, ``math.inf`` disables the
    limit.  Raises :class:`ConceptBudgetExceeded` past the cap.  In
    lectic order the smallest attribute where two intents differ
    belongs to the later one, so intents sort as bit-reversed masks;
    each extent is the set of rows that contain its intent.
    """
    m = ctx.n_attributes
    intents = sorted(
        concept_intents(ctx, cap), key=lambda mask: f"{mask:0{m}b}"[::-1]
    )
    return [
        Concept(
            frozenset(g for g, row in enumerate(ctx.rows) if row & i == i),
            frozenset(bits(i)),
        )
        for i in intents
    ]


def concept_intents(
    ctx: FormalContext, cap: int | float | None = None
) -> set[int]:
    """The intents of all concepts, as attribute bitmasks, in no order.

    The intents are the full attribute set and every intersection of
    object rows, so each row is intersected into every intent found so
    far.  ``cap`` is as in :func:`enumerate_concepts`; the count is
    checked after every intersection, so at most ``cap + 1`` are held.
    """
    if cap is None:
        cap = concept_cap(ctx)
    full = (1 << ctx.n_attributes) - 1
    intents = {full}
    # the full row adds nothing, but puts the seed itself under the cap
    for row in (full, *ctx.rows):
        for intent in list(intents):
            intents.add(intent & row)
            if len(intents) > cap:
                raise ConceptBudgetExceeded(
                    f"more than {cap} concepts for a context of size "
                    f"{ctx.n_objects}x{ctx.n_attributes}"
                )
    return intents


@dataclass(frozen=True)
class ConceptOrder:
    """Concepts plus their order by extent inclusion.

    ``leq`` has one bitmask per concept: bit j of ``leq[i]`` means
    concept i is below (or equal to) concept j.
    """

    concepts: tuple[Concept, ...]
    leq: tuple[int, ...]


def concept_order(concepts: Sequence[Concept]) -> ConceptOrder:
    n = len(concepts)
    leq = [0] * n
    for i in range(n):
        for j in range(n):
            if concepts[i].extent <= concepts[j].extent:
                leq[i] |= 1 << j
    return ConceptOrder(tuple(concepts), tuple(leq))


def cocomparability_graph(leq: Sequence[int]) -> tuple[int, ...]:
    """Adjacency bitmasks of the incomparability relation of an order.

    Accepts any reflexive order given as below-or-equal bitmask rows
    (:class:`ConceptOrder` ``.leq`` or a poset's ``leq``).
    """
    n = len(leq)
    geq = transpose(leq, n)
    full = (1 << n) - 1
    return tuple(full & ~(leq[i] | geq[i]) for i in range(n))


@dataclass(frozen=True)
class ConjugateOrder:
    """A strict transitive orientation of a cocomparability graph.

    Bit j of ``leq_c[i]`` means i is oriented toward j.  Each graph edge
    is oriented exactly once and the relation is transitive.
    """

    leq_c: tuple[int, ...]


def transitive_orientation(adjacency: Sequence[int]) -> ConjugateOrder:
    """Orient every edge so the result is transitive.

    Edges are processed in lexicographic order; each choice is closed
    under the forcing rule (two edges sharing an endpoint whose other
    endpoints are nonadjacent must agree), working in the shrinking
    graph as classes are removed.  A forcing conflict, or a failed final
    transitivity check, raises :class:`NotTwoDimensional`.
    """
    n = len(adjacency)
    remaining = list(adjacency)
    out = [0] * n

    def orient(a: int, b: int) -> bool:
        # returns False if already present, raises on conflict
        if out[b] >> a & 1:
            raise NotTwoDimensional(f"edge {a}-{b} forced in both directions")
        if out[a] >> b & 1:
            return False
        out[a] |= 1 << b
        return True

    for i in range(n):
        for j in bits(remaining[i]):
            if j < i or out[i] >> j & 1 or out[j] >> i & 1:
                continue
            orient(i, j)
            queue = deque([(i, j)])
            klass = [(i, j)]
            while queue:
                a, b = queue.popleft()
                # edges a-c with b,c nonadjacent must point a -> c
                for c in bits(remaining[a] & ~remaining[b] & ~(1 << b)):
                    if orient(a, c):
                        queue.append((a, c))
                        klass.append((a, c))
                # edges c-b with a,c nonadjacent must point c -> b
                for c in bits(remaining[b] & ~remaining[a] & ~(1 << a)):
                    if orient(c, b):
                        queue.append((c, b))
                        klass.append((c, b))
            for a, b in klass:
                remaining[a] &= ~(1 << b)
                remaining[b] &= ~(1 << a)
    into = transpose(out, n)
    for a in range(n):
        if out[a] | into[a] != adjacency[a]:
            raise NotTwoDimensional(f"vertex {a} has unoriented or extra edges")
    for a in range(n):
        for b in bits(out[a]):
            if out[b] & ~out[a]:
                raise NotTwoDimensional(
                    f"orientation not transitive at {a} -> {b}"
                )
    return ConjugateOrder(tuple(out))


def linear_sequence(strict: Sequence[int]) -> tuple[int, ...] | None:
    """The elements of a strict total order from least to greatest, or None.

    Bit j of ``strict[i]`` means i is below j.  Elements are stably
    sorted by how many elements lie strictly above them, most first, and
    each row must equal exactly the set of elements after it in that
    sequence.  A relation is a strict total order exactly when every row
    matches, so this one mask comparison per element checks
    irreflexivity, antisymmetry, transitivity and totality together.
    """
    sequence = sorted(range(len(strict)), key=lambda i: -strict[i].bit_count())
    after = 0
    for i in reversed(sequence):
        if strict[i] != after:
            return None
        after |= 1 << i
    return tuple(sequence)


def realizer_sequences(
    order: ConceptOrder, conjugate: ConjugateOrder
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two linear orders combining an order with its conjugate.

    Returns index sequences sorted by leq union leq_c and by leq union
    the reverse of leq_c.  Verifies both unions really are total orders
    whose intersection is the original order; a failure raises
    :class:`NotTwoDimensional`.
    """
    leq = order.leq
    n = len(leq)
    if len(conjugate.leq_c) != n:
        raise NotTwoDimensional("conjugate order has wrong size")
    geq_c = transpose(conjugate.leq_c, n)
    strict_leq = [leq[i] & ~(1 << i) for i in range(n)]
    first = [strict_leq[i] | conjugate.leq_c[i] for i in range(n)]
    second = [strict_leq[i] | geq_c[i] for i in range(n)]
    seq1, seq2 = linear_sequence(first), linear_sequence(second)
    if seq1 is None or seq2 is None:
        raise NotTwoDimensional("union order is not a strict total order")
    for i in range(n):
        both = (first[i] & second[i]) | (1 << i)
        if both != leq[i]:
            raise NotTwoDimensional(f"realizer intersection differs at {i}")
    return seq1, seq2
