"""Concept lattices, cocomparability graphs and transitive orientations.

The concept intents are the full attribute set and every intersection
of object rows, collected in one pass and put in lectic order by
:func:`lectic_sorted`, as are the object and attribute intents alone.
The order on concepts (extent inclusion) is kept as bitmask rows, and a
conjugate order is found, when one exists, by orienting the
cocomparability graph transitively: implication classes are forced one
at a time and the result is verified explicitly, so a wrong orientation
can never leak out.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .bitset import bits, transpose
from .context import FormalContext
from .errors import ConceptBudgetExceeded, NotTwoDimensional


class Concept(NamedTuple):
    extent: frozenset[int]
    intent: frozenset[int]


def concept_cap(ctx: FormalContext) -> int:
    """Default enumeration cap: 3/2 * min(|G|, |M|)**2 + 2.

    Contexts whose complement admits an ordinal two-factorization stay
    under this bound.
    """
    k = min(ctx.n_objects, ctx.n_attributes)
    return 3 * k * k // 2 + 2


def enumerate_concepts(
    ctx: FormalContext, cap: int | float | None = None
) -> list[Concept]:
    """All formal concepts, in lectic order of intents.

    ``cap`` limits how many concepts may be produced; ``None`` selects
    the default from :func:`concept_cap`, ``math.inf`` disables the
    limit.  Raises :class:`ConceptBudgetExceeded` past the cap.
    """
    return [
        Concept(
            frozenset(g for g, row in enumerate(ctx.rows) if row & i == i),
            frozenset(bits(i)),
        )
        for i in lectic_sorted(concept_intents(ctx, cap), ctx.n_attributes)
    ]


def lectic_sorted(intents: Iterable[int], n_attributes: int) -> list[int]:
    """Intent bitmasks in lectic order, sorted as bit-reversed masks: the
    smallest attribute where two intents differ belongs to the later one.
    """
    return sorted(intents, key=lambda mask: f"{mask:0{n_attributes}b}"[::-1])


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
    """The order of a list of concepts by extent inclusion.

    ``leq`` has one bitmask per concept: bit j of ``leq[i]`` means
    concept i is below (or equal to) concept j.
    """

    leq: tuple[int, ...]


def concept_order(concepts: Sequence[Concept]) -> ConceptOrder:
    n = len(concepts)
    leq = [0] * n
    for i in range(n):
        for j in range(n):
            if concepts[i].extent <= concepts[j].extent:
                leq[i] |= 1 << j
    return ConceptOrder(tuple(leq))


def cocomparability_graph(leq: Sequence[int]) -> tuple[int, ...]:
    """Adjacency bitmasks of the incomparability relation of an order.

    Accepts any reflexive order given as below-or-equal bitmask rows
    (:class:`ConceptOrder` ``.leq`` or a poset's ``leq``).
    """
    n = len(leq)
    geq = transpose(leq, n)
    full = (1 << n) - 1
    return tuple(full & ~(leq[i] | geq[i]) for i in range(n))


def transitive_orientation(adjacency: Sequence[int]) -> tuple[int, ...]:
    """Orient every edge so the result is transitive.

    Returns the conjugate order as strict rows: bit j of row i means i
    is oriented toward j, and each edge is oriented exactly once.
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
            # the class grows while it is read, first in first out
            klass = [(i, j)]
            for a, b in klass:
                # edges a-c with b,c nonadjacent must point a -> c
                for c in bits(remaining[a] & ~remaining[b] & ~(1 << b)):
                    if orient(a, c):
                        klass.append((a, c))
                # edges c-b with a,c nonadjacent must point c -> b
                for c in bits(remaining[b] & ~remaining[a] & ~(1 << a)):
                    if orient(c, b):
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
    return tuple(out)


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
    order: ConceptOrder, conjugate: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two linear orders combining an order with its conjugate.

    Returns index sequences sorted by leq union ``conjugate`` (strict
    rows from :func:`transitive_orientation`) and by leq union its
    reverse.  Verifies both unions really are total orders whose
    intersection is the original order; a failure raises
    :class:`NotTwoDimensional`.  No path in the package calls it: for a
    verified conjugate the unions are a realizer (Dushnik and Miller
    1941), which :func:`~ordfactor.twofactor.two_factorize` reads off
    the rows directly.  It stays as an independent check of that fact.
    """
    leq = order.leq
    n = len(leq)
    if len(conjugate) != n:
        raise NotTwoDimensional("conjugate order has wrong size")
    geq_c = transpose(conjugate, n)
    strict_leq = [leq[i] & ~(1 << i) for i in range(n)]
    first = [strict_leq[i] | conjugate[i] for i in range(n)]
    second = [strict_leq[i] | geq_c[i] for i in range(n)]
    seq1, seq2 = linear_sequence(first), linear_sequence(second)
    if seq1 is None or seq2 is None:
        raise NotTwoDimensional("union order is not a strict total order")
    for i in range(n):
        both = (first[i] & second[i]) | (1 << i)
        if both != leq[i]:
            raise NotTwoDimensional(f"realizer intersection differs at {i}")
    return seq1, seq2
