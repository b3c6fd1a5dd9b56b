"""Ordinal two-factorizations: splitting an incidence into two Ferrers parts.

A Ferrers relation is a staircase: for any two of its pairs (g, m) and
(h, n) it also contains (g, n) or (h, m), equivalently its rows form a
chain under inclusion.  A context is two-factorizable when its incidence
is the union of two Ferrers relations; the construction here reads each
factor off one order of a realizer of the object and attribute concepts
of the complement context.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .bitset import bits, row_pairs, transpose
from .context import FormalContext, IncidencePair, remove_incidences
from .errors import (
    IndexOutOfRange,
    InvalidFactorization,
    NotTwoDimensional,
    NotTwoFactorizable,
    PairNotIncident,
)
from .lattice import (
    cocomparability_graph,
    intent_order,
    lectic_sorted,
    transitive_orientation,
)


class FerrersFactor:
    """One factor of a factorization: one attribute mask per object, bit
    m of the nonnegative ``rows[g]`` for (g, m), or the pairs it was
    built from until :meth:`rows_in` reads them against a context.
    ``pairs`` is built from the rows when first read; equality and
    hashing compare pair sets, and the repr lists them as sorted plain
    tuples."""

    def __init__(self, pairs: Iterable = (), *, rows: Iterable[int] | None = None):
        self._rows = None if rows is None else tuple(rows)
        self._pairs = frozenset(pairs) if rows is None else None

    @property
    def pairs(self) -> frozenset[IncidencePair]:
        if self._pairs is None:
            self._pairs = frozenset(map(IncidencePair._make, row_pairs(self._rows)))
        return self._pairs

    def rows_in(self, ctx: FormalContext) -> tuple[list[int], tuple | None]:
        """The rows cut to the incidence of ``ctx``, and the first pair by
        :func:`_pair_order` outside it (or, by ``has``, outside ``ctx``) or None."""
        rows, outside = self._rows, []
        if rows is None or len(rows) != ctx.n_objects:
            rows = [0] * ctx.n_objects
            for pair in self.pairs:
                try:
                    ctx.has(*pair)
                except IndexOutOfRange:
                    outside.append(pair)
                else:
                    rows[pair[0]] |= 1 << pair[1]
        inside = [row & own for row, own in zip(rows, ctx.rows)]
        for g, (row, own) in enumerate(zip(rows, inside)):
            if row != own:
                outside.append(IncidencePair(g, next(bits(row & ~own))))
                break
        return inside, min(outside, key=_pair_order, default=None)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FerrersFactor) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        # equal factors print alike, whether built from rows or pairs
        pairs = sorted(map(tuple, self.pairs), key=_pair_order)
        return f"FerrersFactor(pairs={pairs!r})"


def _pair_order(pair: tuple) -> tuple:
    """Pairs of ints by value, then any other pair by its repr: unlike
    ``<``, a total order on pairs of any index types."""
    ints = all(isinstance(i, int) for i in pair)
    return (False, pair) if ints else (True, repr(pair))


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of an exact or maximal factorization.

    ``f1`` and ``f2`` cover the incidence minus ``removed``; ``shared``
    is their intersection, which in a valid result consists of pairs
    isolated in the incompatibility graph of the covered context.
    ``certificate`` is true when ``removed`` is known to be of minimum
    size (see the maximal module); ``rounds`` counts transversal-removal
    rounds.
    """

    f1: FerrersFactor
    f2: FerrersFactor
    removed: frozenset[IncidencePair]
    certificate: bool
    rounds: int = 0

    @property
    def covered(self) -> frozenset[IncidencePair]:
        return self.f1.pairs | self.f2.pairs

    @property
    def shared(self) -> frozenset[IncidencePair]:
        return self.f1.pairs & self.f2.pairs


class Violation(NamedTuple):
    kind: str
    message: str


def _ferrers_violation(rows: list[int]) -> tuple | None:
    """A witness ((g, m), (h, n)) with neither (g, n) nor (h, m), or None:
    the first row g, by (size, object), not inside the next row h, which
    is no smaller, and h, each at its lowest attribute outside the other."""
    chain = sorted(range(len(rows)), key=lambda g: rows[g].bit_count())
    for g, h in zip(chain, chain[1:]):
        if rows[g] & ~rows[h]:
            m, n = next(bits(rows[g] & ~rows[h])), next(bits(rows[h] & ~rows[g]))
            return (IncidencePair(g, m), IncidencePair(h, n))
    return None


def is_ferrers(ctx: FormalContext, pairs: Iterable | FerrersFactor) -> bool:
    """Whether a subset of the incidence is a Ferrers relation.

    Its smallest pair that is no incidence raises what
    :meth:`FormalContext.has` raises for it, or :class:`PairNotIncident`.
    """
    factor = pairs if isinstance(pairs, FerrersFactor) else FerrersFactor(pairs)
    rows, stray = factor.rows_in(ctx)
    # has raises for a pair outside the context
    if stray is not None and not ctx.has(*stray):
        raise PairNotIncident(f"pair {tuple(stray)} is not an incidence")
    return _ferrers_violation(rows) is None


def two_factorize(ctx: FormalContext) -> FactorizationResult:
    """Split the incidence into two Ferrers relations, or fail.

    Raises :class:`NotTwoFactorizable` when no such split exists: when
    the incompatibility graph is not bipartite, or equivalently the
    complement's concept lattice has dimension above two (Ganter and
    Glodeanu 2012).  With γg and μm the object and attribute concepts of
    the complement, (g, m) is not incident iff γg ≤ μm.  Their intents
    are the complement's row g and the meet of its rows holding m (all
    attributes when none does).  The complement is a list of rows, not
    a context, and one walk over its incidences narrows each meet by
    every row holding m.  A concept lies below another iff its intent
    contains the other's, so the order is read off these masks, taken
    in lectic order.  When the context factorizes, these
    concepts alone have dimension at most two, as no subposet has a
    larger dimension than the lattice (Trotter 1992), so
    :func:`transitive_orientation` finds and verifies a transitive
    orientation T of their incomparability graph, or says no.  ≤ ∪ T and
    ≤ ∪ T⁻¹ are then a realizer (Dushnik and Miller 1941): factor 1 takes
    (g, m) when bit γg of row μm of ≤ ∪ T is set, i.e. μm comes first,
    and factor 2 reads ≤ ∪ T⁻¹ alike.
    * Its rows are the attributes whose μ precedes one position: nested.
    * A non-incidence has γg first in both orders, an incidence has μm
      first in one, so the factors cover exactly the incidence.
    * ``shared`` is the compatible core, the pairs isolated in the
      incompatibility graph.  μm ≤ γg iff every object h lacking m has
      row(h) ⊆ row(g), i.e. every incidence (h, n) has (g, n) or (h, m):
      (g, m) is compatible with all of them.  For an incidence the order
      is strict, and the two orders of a realizer agree exactly on the
      poset order, so μm comes first in both iff μm < γg.
    """
    full = (1 << ctx.n_attributes) - 1
    comp = [row ^ full for row in ctx.rows]
    meets = [full] * ctx.n_attributes
    for row in comp:
        for m in bits(row):
            meets[m] &= row
    intents = lectic_sorted({*comp, *meets}, ctx.n_attributes)
    leq = intent_order(intents)
    try:
        conjugate = transitive_orientation(cocomparability_graph(leq))
    except NotTwoDimensional as exc:
        raise NotTwoFactorizable(
            "complement object and attribute concepts have no conjugate order"
        ) from exc
    index = {intent: i for i, intent in enumerate(intents)}
    gamma = [index[row] for row in comp]
    mu = [index[meet] for meet in meets]
    factors = []
    for after in (conjugate, transpose(conjugate, len(leq))):
        # bit m of reach[c]: concept c lies in row μm of ≤ ∪ after
        reach = transpose([leq[i] | after[i] for i in mu], len(leq))
        factors.append([row & reach[c] for row, c in zip(ctx.rows, gamma)])
    f1, f2 = _canonical_labels(*factors)
    result = FactorizationResult(
        FerrersFactor(rows=f1), FerrersFactor(rows=f2), frozenset(), certificate=True
    )
    problems = validate_factorization(ctx, result)
    if problems:
        raise NotTwoFactorizable("; ".join(v.message for v in problems))
    return result


def _canonical_labels(f1: list[int], f2: list[int]) -> tuple[list[int], list[int]]:
    # factor 1 owns the smallest exclusive pair, the lowest bit where the
    # first rows that differ differ
    for a, b in zip(f1, f2):
        if a != b:
            return (f1, f2) if a & (a ^ b) & -(a ^ b) else (f2, f1)
    return f1, f2


def validate_factorization(
    ctx: FormalContext, result: FactorizationResult
) -> list[Violation]:
    """Check a result against the factorization invariants.

    Returns an empty list iff the result is valid; problems come back as
    data rather than exceptions.  That shared pairs are isolated in the
    covered context's incompatibility graph needs no separate check: a
    pair in both Ferrers factors is compatible with every covered pair.
    """
    violations = []
    factors = (result.f1, result.f2, FerrersFactor(result.removed))
    read = [factor.rows_in(ctx) for factor in factors]
    for label, (_, stray) in zip(("f1", "f2", "removed"), read):
        if stray is not None:
            message = f"{label} contains non-incidences, e.g. {stray}"
            violations.append(Violation("PairViolation", message))
    (rows1, stray1), (rows2, stray2), (removed, _) = read
    kept = [row & ~gone for row, gone in zip(ctx.rows, removed)]
    covered = [a | b for a, b in zip(rows1, rows2)]
    if stray1 is not None or stray2 is not None or covered != kept:
        message = "f1 and f2 do not cover exactly the incidence minus removed"
        violations.append(Violation("CoverageViolation", message))
    for label, rows in (("f1", rows1), ("f2", rows2)):
        witness = _ferrers_violation(rows)
        if witness:
            message = f"{label} violates the Ferrers condition at {witness}"
            violations.append(Violation("FerrersViolation", message))
    return violations


def require_valid(ctx: FormalContext, result: FactorizationResult) -> None:
    """Raise :class:`InvalidFactorization`, naming every violation, unless
    :func:`validate_factorization` finds none."""
    problems = validate_factorization(ctx, result)
    if problems:
        raise InvalidFactorization("; ".join(v.message for v in problems))


def canonical_partition(
    ctx: FormalContext, result: FactorizationResult
) -> FactorizationResult:
    """Normalize a valid result so shared is the whole compatible core.

    The core C, the isolated vertices of the covered context's
    incompatibility graph, is what both factors of :func:`two_factorize`
    share there; adding C to both factors keeps them Ferrers, and f1
    minus C, f2 minus C, C then partition the covered incidence.  Raises
    :class:`InvalidFactorization` on invalid input.
    """
    require_valid(ctx, result)
    core = two_factorize(remove_incidences(ctx, result.removed))
    core1, core2, f1, f2 = (
        factor.rows_in(ctx)[0] for factor in (core.f1, core.f2, result.f1, result.f2)
    )
    f1, f2 = ([row | a & b for row, a, b in zip(f, core1, core2)] for f in (f1, f2))
    if _ferrers_violation(f1) or _ferrers_violation(f2):
        raise InvalidFactorization("adding the core broke a factor")
    f1, f2 = _canonical_labels(f1, f2)
    return replace(result, f1=FerrersFactor(rows=f1), f2=FerrersFactor(rows=f2))
