"""Posets, their non-order contexts, and two-dimension extensions.

A partial order can be extended to one of order dimension at most two
by adding comparabilities; the smallest number of added pairs equals
the smallest number of incidences whose removal two-factorizes the
context of the complement relation.  This module carries the
translation in both directions and builds an explicit realizer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .bitset import bits, row_pairs, transpose
from .context import FormalContext, is_string_list, json_object
from .errors import MalformedHeader, NotAPartialOrder
from .maximal import maximal_two_factorization


@dataclass(frozen=True)
class Poset:
    """A finite partial order.

    ``leq`` holds one bitmask per element: bit j of ``leq[i]`` means
    element i is below or equal to element j.  The relation must be
    reflexive, antisymmetric and transitive.
    """

    elements: tuple[str, ...]
    leq: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise NotAPartialOrder("element names must be distinct")
        n = len(self.elements)
        if len(self.leq) != n:
            raise NotAPartialOrder("one relation row per element required")
        for i, row in enumerate(self.leq):
            if row >> n:
                raise NotAPartialOrder(f"row {i} relates unknown elements")
            if not row >> i & 1:
                raise NotAPartialOrder(f"relation not reflexive at {i}")
        for i, row in enumerate(self.leq):
            # both rules read only the j above i, and j = i breaks neither
            for j in bits(row & ~(1 << i)):
                if self.leq[j] >> i & 1:
                    raise NotAPartialOrder(
                        f"{self.elements[i]} and {self.elements[j]} "
                        "are ordered both ways"
                    )
                if self.leq[j] & ~row:
                    raise NotAPartialOrder(f"relation not transitive at {i}")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.leq)

    @classmethod
    def from_relations(
        cls, elements: tuple[str, ...] | list[str], relations
    ) -> "Poset":
        """Build from generating pairs of names; the reflexive and
        transitive closure is applied before validation."""
        elements = tuple(elements)
        pos = {name: i for i, name in enumerate(elements)}
        n = len(elements)
        leq = [1 << i for i in range(n)]
        for a, b in relations:
            if a not in pos or b not in pos:
                raise NotAPartialOrder(f"relation over unknown element: {a!r}/{b!r}")
            leq[pos[a]] |= 1 << pos[b]
        for k in range(n):
            for i in range(n):
                if leq[i] >> k & 1:
                    leq[i] |= leq[k]
        return cls(elements, tuple(leq))


def poset_from_json(text: str) -> Poset:
    """Load ``{"elements": [...], "relations": [[a, b], ...]}``."""
    payload = json_object(text, "poset", ("elements", "relations"))
    elements, relations = payload["elements"], payload["relations"]
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


def poset_to_json(poset: Poset) -> str:
    names = poset.elements
    relations = [[names[i], names[j]] for i, j in row_pairs(poset.leq) if i != j]
    return json.dumps(
        {"elements": list(names), "relations": relations},
        sort_keys=True,
        indent=2,
    ) + "\n"


def poset_to_context(poset: Poset) -> FormalContext:
    """The context on the elements whose incidence is "not below".

    Cell (a, b) is incident iff a is not less than or equal to b, so
    the complement context is the order itself.
    """
    full = (1 << poset.n) - 1
    return FormalContext(
        poset.elements,
        poset.elements,
        tuple(row ^ full for row in poset.leq),
    )


@dataclass(frozen=True)
class DimensionExtension:
    """An order extension of dimension at most two with its realizer.

    ``k`` counts the added comparabilities, ``extension`` is the full
    extended relation as index pairs (reflexive pairs included), and
    ``realizer`` holds two element sequences whose linear orders
    intersect in exactly the extension.
    """

    k: int
    extension: frozenset[tuple[int, int]]
    realizer: tuple[tuple[int, ...], tuple[int, ...]]


def two_dimension_extension(
    poset: Poset,
    mode: str = "exact",
    budget: float | None = None,
    seed: int = 0,
) -> DimensionExtension:
    """Extend the order to dimension at most two with few added pairs.

    Runs the maximal factorization on the "not below" context.  Each
    factor's complement ranks the elements by how many cells of their
    row it holds, most first, ties broken by ascending element index;
    the realizer order places each element as soon as everything
    strictly below it in the poset is placed.  A mask of the ready
    elements, by rank, gives the next one as its lowest bit, and placing
    an element tests only the elements above it.  The two orders are thus
    linear extensions, and they meet in the returned extension.  With
    an exact single-round-certified factorization, ``k`` is minimum.
    """
    n = poset.n
    below = transpose(poset.leq, n)
    ctx = poset_to_context(poset)
    result = maximal_two_factorization(ctx, mode=mode, budget=budget, seed=seed)
    # bit i of at_or_before[j]: both orders place i no later than j
    at_or_before = [(1 << n) - 1] * n
    realizer = []
    for factor in (result.f1, result.f2):
        inside = factor.rows_in(ctx)[0]
        ranking = sorted(range(n), key=lambda v: inside[v].bit_count())
        rank = [0] * n
        for r, v in enumerate(ranking):
            rank[v] = r
        # bit r of ready: ranking[r] is unplaced and all below it placed
        ready = sum(1 << rank[v] for v in range(n) if below[v] == 1 << v)
        placed = 0
        sequence = []
        while ready:
            low = ready & -ready
            v = ranking[low.bit_length() - 1]
            ready ^= low
            placed |= 1 << v
            at_or_before[v] &= placed
            sequence.append(v)
            for u in bits(poset.leq[v] ^ 1 << v):
                if below[u] & ~placed == 1 << u:
                    ready |= 1 << rank[u]
        if len(sequence) != n:
            raise AssertionError("no element is ready: the order has a cycle")
        realizer.append(tuple(sequence))
    k = sum(col.bit_count() for col in at_or_before) - poset.pair_count
    return DimensionExtension(
        k,
        frozenset((i, j) for j, i in row_pairs(at_or_before)),
        (realizer[0], realizer[1]),
    )
