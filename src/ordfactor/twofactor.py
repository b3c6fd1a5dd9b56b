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
from functools import reduce
from typing import Iterable, NamedTuple

from .bitset import transpose
from .context import FormalContext, IncidencePair, complement, remove_incidences
from .errors import (
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


@dataclass(frozen=True)
class FerrersFactor:
    """One factor of a factorization; a set of incidence pairs."""

    pairs: frozenset[IncidencePair]


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


def _ferrers_violation(pairs: frozenset[IncidencePair]) -> tuple | None:
    """A witness ((g, m), (h, n)) with neither (g, n) nor (h, m), or None:
    the first row g, by (size, object), not inside the next row h, which
    is no smaller, and h, each at its lowest attribute outside the other."""
    rows: dict[int, int] = {}
    for g, m in pairs:
        rows[g] = rows.get(g, 0) | 1 << m
    chain = sorted(rows, key=lambda g: (rows[g].bit_count(), g))
    for g, h in zip(chain, chain[1:]):
        only_g = rows[g] & ~rows[h]
        if only_g:
            only_h = rows[h] & ~rows[g]
            m = (only_g & -only_g).bit_length() - 1
            n = (only_h & -only_h).bit_length() - 1
            return (IncidencePair(g, m), IncidencePair(h, n))
    return None


def is_ferrers(ctx: FormalContext, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether a subset of the incidence is a Ferrers relation.

    A pair outside the context raises what :meth:`FormalContext.has`
    raises, any other non-incidence :class:`PairNotIncident`.
    """
    pair_set = frozenset(IncidencePair(g, m) for g, m in pairs)
    for g, m in sorted(pair_set):
        if not ctx.has(g, m):
            raise PairNotIncident(f"pair ({g}, {m}) is not an incidence")
    return _ferrers_violation(pair_set) is None


def two_factorize(ctx: FormalContext) -> FactorizationResult:
    """Split the incidence into two Ferrers relations, or fail.

    Raises :class:`NotTwoFactorizable` when no such split exists: when
    the incompatibility graph is not bipartite, or equivalently the
    complement's concept lattice has dimension above two (Ganter and
    Glodeanu 2012).  With γg and μm the object and attribute concepts of
    the complement, (g, m) is not incident iff γg ≤ μm.  Their intents
    are the complement's row g and the meet of its rows holding m (all
    attributes when none does), and a concept lies below another iff
    its intent contains the other's, so the order is read off these
    masks, taken in lectic order.  When the context factorizes, these
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
    comp = complement(ctx)
    full = (1 << comp.n_attributes) - 1
    meets = [
        reduce(int.__and__, (row for row in comp.rows if row >> m & 1), full)
        for m in range(comp.n_attributes)
    ]
    intents = lectic_sorted({*comp.rows, *meets}, comp.n_attributes)
    leq = intent_order(intents)
    try:
        conjugate = transitive_orientation(cocomparability_graph(leq))
    except NotTwoDimensional as exc:
        raise NotTwoFactorizable(
            "complement object and attribute concepts have no conjugate order"
        ) from exc
    index = {intent: i for i, intent in enumerate(intents)}
    gamma = [index[row] for row in comp.rows]
    mu = [index[meet] for meet in meets]
    first, second = (
        [below | above for below, above in zip(leq, after)]
        for after in (conjugate, transpose(conjugate, len(leq)))
    )
    pairs1, pairs2 = [], []
    for p in ctx.pairs():
        g, m = p
        if first[mu[m]] >> gamma[g] & 1:
            pairs1.append(p)
        if second[mu[m]] >> gamma[g] & 1:
            pairs2.append(p)
    f1, f2 = _canonical_labels(frozenset(pairs1), frozenset(pairs2))
    result = FactorizationResult(
        FerrersFactor(f1), FerrersFactor(f2), frozenset(), certificate=True
    )
    problems = validate_factorization(ctx, result)
    if problems:
        raise NotTwoFactorizable("; ".join(v.message for v in problems))
    return result


def _canonical_labels(
    f1: frozenset[IncidencePair], f2: frozenset[IncidencePair]
) -> tuple[frozenset[IncidencePair], frozenset[IncidencePair]]:
    # factor 1 owns the lexicographically smallest exclusive pair
    only1 = f1 - f2
    only2 = f2 - f1
    if only2 and (not only1 or min(only2) < min(only1)):
        return f2, f1
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
    incidence = frozenset(ctx.pairs())
    named = {
        "f1": result.f1.pairs,
        "f2": result.f2.pairs,
        "removed": result.removed,
    }
    for label, pairs in named.items():
        stray = pairs - incidence
        if stray:
            violations.append(
                Violation(
                    "PairViolation",
                    f"{label} contains non-incidences, e.g. {min(stray)}",
                )
            )
    covered = result.covered
    if covered != incidence - result.removed:
        violations.append(
            Violation(
                "CoverageViolation",
                "f1 and f2 do not cover exactly the incidence minus removed",
            )
        )
    for label in ("f1", "f2"):
        # stray pairs are reported above and may lie outside the context
        witness = _ferrers_violation(named[label] & incidence)
        if witness:
            violations.append(
                Violation(
                    "FerrersViolation",
                    f"{label} violates the Ferrers condition at {witness}",
                )
            )
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
    covered_ctx = (
        remove_incidences(ctx, result.removed) if result.removed else ctx
    )
    core = two_factorize(covered_ctx).shared
    f1 = result.f1.pairs | core
    f2 = result.f2.pairs | core
    if _ferrers_violation(f1) or _ferrers_violation(f2):
        raise InvalidFactorization("adding the core broke a factor")
    f1, f2 = _canonical_labels(f1, f2)
    return replace(result, f1=FerrersFactor(f1), f2=FerrersFactor(f2))
