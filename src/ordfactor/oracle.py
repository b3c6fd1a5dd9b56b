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
from .errors import BudgetExceeded, NotFound, NotTwoFactorizable, deadline_after
from .twofactor import two_factorize


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and seed of a generated context."""

    objects: int
    attributes: int
    density: float
    seed: int


def random_context(spec: GeneratorSpec) -> FormalContext:
    """Independent Bernoulli cells at the requested density.

    Draw order: one ``rng.random()`` per cell, object by object and,
    within an object, attribute by attribute; the cell is an incidence
    when its draw is below ``spec.density``.  A test pins the rows.
    """
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

    Draw order, per staircase in turn: one ``rng.shuffle`` of the
    attributes, then for each object one ``rng.random()`` per attribute;
    the prefix length is the number of draws below ``spec.density``.
    A test pins the rows.
    """
    rng = random.Random(spec.seed)
    draw, density = rng.random, spec.density
    rows = [0] * spec.objects
    for _ in range(2):
        order = list(range(spec.attributes))
        rng.shuffle(order)
        # prefix[k] is the mask of the first k attributes of the order
        prefix = [0]
        for m in order:
            prefix.append(prefix[-1] | 1 << m)
        for g in range(spec.objects):
            length = sum(1 for _ in range(spec.attributes) if draw() < density)
            rows[g] |= prefix[length]
    return FormalContext(_names("g", spec.objects), _names("m", spec.attributes), tuple(rows))


def brute_force_min_removal(
    ctx: FormalContext, k_max: int, budget: float | None = None
) -> int:
    """Smallest removal count that leaves a two-factorizable context.

    Tries every subset of the incidence of size 0, 1, ... up to
    ``k_max`` with :func:`itertools.combinations` and decides what each
    leaves with :func:`two_factorize`, so it builds no incompatibility
    graph.  Raises :class:`NotFound` when no subset within the bound
    works and :class:`BudgetExceeded` when the enumeration outlasts
    ``budget`` seconds, read after each candidate.
    """
    deadline = deadline_after(budget)
    pairs = ctx.pairs()
    for k in range(min(k_max, len(pairs)) + 1):
        for subset in combinations(range(len(pairs)), k):
            try:
                two_factorize(remove_incidences(ctx, [pairs[i] for i in subset]))
                return k
            except NotTwoFactorizable:
                pass
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded(
                    "brute-force removal search out of time", lower_bound=k
                )
    raise NotFound(f"no removal of at most {k_max} incidences suffices")


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))
