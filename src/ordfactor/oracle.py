"""Ground-truth oracles and seeded context generators.

The brute-force searcher answers "how many incidences must go" by sheer
enumeration, which keeps the clever solvers honest on small inputs.  The
generators produce deterministic random contexts, either unconstrained
or two-factorizable by construction.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations

from .context import FormalContext, remove_incidences
from .errors import BudgetExceeded, NotFound
from .incompat import bipartition, build_incompatibility_graph


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and seed of a generated context."""

    objects: int
    attributes: int
    density: float
    seed: int


def random_context(spec: GeneratorSpec) -> FormalContext:
    """Independent Bernoulli cells at the requested density."""
    rng = random.Random(spec.seed)
    rows = []
    for _ in range(spec.objects):
        mask = 0
        for m in range(spec.attributes):
            if rng.random() < spec.density:
                mask |= 1 << m
        rows.append(mask)
    return FormalContext(_names("g", spec.objects), _names("m", spec.attributes), tuple(rows))


def random_two_factorizable_context(spec: GeneratorSpec) -> FormalContext:
    """Union of two random staircases, hence two-factorizable.

    Each staircase fixes a random attribute order and gives every
    object a random-length prefix of it, so its rows are nested by
    construction; the incidence is the union of the two.
    """
    rng = random.Random(spec.seed)
    rows = [0] * spec.objects
    for _ in range(2):
        order = list(range(spec.attributes))
        rng.shuffle(order)
        for g in range(spec.objects):
            length = sum(
                1 for _ in range(spec.attributes) if rng.random() < spec.density
            )
            for m in order[:length]:
                rows[g] |= 1 << m
    return FormalContext(_names("g", spec.objects), _names("m", spec.attributes), tuple(rows))


def brute_force_min_removal(
    ctx: FormalContext, k_max: int, budget: float | None = None
) -> int:
    """Smallest removal count that leaves a bipartite graph.

    Tries every subset of the incidence of size 0, 1, ... up to
    ``k_max`` with :func:`itertools.combinations`, rebuilding the
    incompatibility graph each time.  Raises :class:`NotFound` when no
    subset within the bound works and :class:`BudgetExceeded` when the
    enumeration outlasts ``budget`` seconds, read after each candidate.
    """
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


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))
