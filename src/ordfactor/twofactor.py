"""Ordinal two-factorizations: splitting an incidence into two Ferrers parts.

A Ferrers relation is a staircase: for any two of its pairs (g, m) and
(h, n) it also contains (g, n) or (h, m), equivalently its rows form a
chain under inclusion.  A context is two-factorizable when its incidence
is the union of two Ferrers relations; the construction here reads both
factors off the concept lattice of the complement context, swept along
the two linear orders induced by a conjugate order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .bitset import bits
from .context import FormalContext, IncidencePair, complement, remove_incidences
from .errors import (
    ConceptBudgetExceeded,
    InvalidFactorization,
    NotTwoDimensional,
    NotTwoFactorizable,
    PairNotIncident,
)
from .incompat import build_incompatibility_graph, isolated_pairs
from .lattice import (
    cocomparability_graph,
    concept_order,
    enumerate_concepts,
    realizer_sequences,
    transitive_orientation,
)


@dataclass(frozen=True)
class FerrersFactor:
    """One factor of a factorization; a set of incidence pairs."""

    pairs: frozenset[IncidencePair]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[IncidencePair]:
        return iter(sorted(self.pairs))

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of an exact or maximal factorization.

    ``f1`` and ``f2`` cover the incidence minus ``removed``; ``shared``
    is contained in their intersection and consists of pairs isolated in
    the incompatibility graph of the covered context.  ``certificate``
    is true when ``removed`` is known to be of minimum size (see the
    maximal module); ``rounds`` counts transversal-removal rounds.
    """

    f1: FerrersFactor
    f2: FerrersFactor
    shared: frozenset[IncidencePair]
    removed: frozenset[IncidencePair]
    certificate: bool
    rounds: int = 0

    @property
    def covered(self) -> frozenset[IncidencePair]:
        return self.f1.pairs | self.f2.pairs


class Violation(NamedTuple):
    kind: str
    message: str


def _pair_set(pairs: Iterable[tuple[int, int]]) -> frozenset[IncidencePair]:
    return frozenset(IncidencePair(g, m) for g, m in pairs)


def _ferrers_violation(pairs: frozenset[IncidencePair]) -> tuple | None:
    """A witness ((g, m), (h, n)) with neither (g, n) nor (h, m), or None."""
    rows: dict[int, int] = {}
    for g, m in pairs:
        rows[g] = rows.get(g, 0) | 1 << m
    objects = sorted(rows)
    for a in range(len(objects)):
        for b in range(a + 1, len(objects)):
            g, h = objects[a], objects[b]
            only_g = rows[g] & ~rows[h]
            only_h = rows[h] & ~rows[g]
            if only_g and only_h:
                m = (only_g & -only_g).bit_length() - 1
                n = (only_h & -only_h).bit_length() - 1
                return (IncidencePair(g, m), IncidencePair(h, n))
    return None


def is_ferrers(ctx: FormalContext, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether a subset of the incidence is a Ferrers relation.

    Raises :class:`PairNotIncident` if some pair is not an incidence of
    the context.
    """
    pair_set = _pair_set(pairs)
    for g, m in sorted(pair_set):
        if not (0 <= g < ctx.n_objects and 0 <= m < ctx.n_attributes) or (
            not ctx.rows[g] >> m & 1
        ):
            raise PairNotIncident(f"pair ({g}, {m}) is not an incidence")
    return _ferrers_violation(pair_set) is None


def two_factorize(ctx: FormalContext) -> FactorizationResult:
    """Split the incidence into two Ferrers relations, or fail.

    Raises :class:`NotTwoFactorizable` when no such split exists, which
    happens exactly when the incompatibility graph is not bipartite.
    """
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
        shared=f1 & f2,
        removed=frozenset(),
        certificate=True,
        rounds=0,
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
    if only1 and only2 and min(only2) < min(only1):
        return f2, f1
    if not only1 and only2:
        return f2, f1
    return f1, f2


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
        "shared": result.shared,
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
        witness = _ferrers_violation(named[label])
        if witness:
            violations.append(
                Violation(
                    "FerrersViolation",
                    f"{label} violates the Ferrers condition at {witness}",
                )
            )
    if not result.shared <= result.f1.pairs & result.f2.pairs:
        violations.append(
            Violation("SharedViolation", "shared is not inside f1 and f2")
        )
    return violations


def canonical_partition(
    ctx: FormalContext, result: FactorizationResult
) -> FactorizationResult:
    """Normalize a valid result so shared is the whole compatible core.

    The core C consists of the isolated vertices of the covered
    context's incompatibility graph; adding C to both factors keeps them
    Ferrers, and f1 minus C, f2 minus C, C then partition the covered
    incidence.  Raises :class:`InvalidFactorization` on invalid input.
    """
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
    return FactorizationResult(
        FerrersFactor(f1),
        FerrersFactor(f2),
        shared=core,
        removed=result.removed,
        certificate=result.certificate,
        rounds=result.rounds,
    )
