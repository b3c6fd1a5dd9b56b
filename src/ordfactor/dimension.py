"""Posets, their non-order contexts, and two-dimension extensions.

A partial order can be extended to one of order dimension at most two
by adding comparabilities; the smallest number of added pairs equals
the smallest number of incidences whose removal two-factorizes the
context of the complement relation.  This module carries the
translation in both directions and builds an explicit realizer.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .bitset import bits, transpose
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
        for i in range(n):
            for j in range(n):
                if i != j and self.leq[i] >> j & 1 and self.leq[j] >> i & 1:
                    raise NotAPartialOrder(
                        f"{self.elements[i]} and {self.elements[j]} "
                        "are ordered both ways"
                    )
                if self.leq[i] >> j & 1 and self.leq[j] & ~self.leq[i]:
                    raise NotAPartialOrder(f"relation not transitive at {i}")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.leq)

    def index(self, name: str) -> int:
        return self.elements.index(name)

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
    relations = [
        [poset.elements[i], poset.elements[j]]
        for i in range(poset.n)
        for j in range(poset.n)
        if i != j and poset.leq[i] >> j & 1
    ]
    return json.dumps(
        {"elements": list(poset.elements), "relations": relations},
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
    strictly below it in the poset is placed.  The two orders are thus
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
        inside = Counter(g for g, _ in factor.pairs)
        ranking = sorted(range(n), key=inside.__getitem__)
        placed = 0
        sequence = []
        for _ in range(n):
            # the first ranked element that is unplaced, all below it placed
            v = next(v for v in ranking if below[v] & ~placed == 1 << v)
            placed |= 1 << v
            at_or_before[v] &= placed
            sequence.append(v)
        realizer.append(tuple(sequence))
    k = sum(col.bit_count() for col in at_or_before) - poset.pair_count
    return DimensionExtension(
        k,
        frozenset((i, j) for j in range(n) for i in bits(at_or_before[j])),
        (realizer[0], realizer[1]),
    )
