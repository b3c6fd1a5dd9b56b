"""Ground-truth oracles and seeded context generators.

The brute-force searcher answers "how many incidences must go" by sheer
enumeration, which keeps the clever solvers honest on small inputs.  The
generators produce deterministic random contexts, either unconstrained
or two-factorizable by construction.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .context import FormalContext, remove_incidences
from .errors import BudgetExceeded, NotFound, NotTwoFactorizable, deadline_after
from .twofactor import two_factorize


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and seed of a generated context.

    Raises ValueError for a negative size or a NaN density; a density
    below 0 or above 1 gives no incidence or every one.
    """

    objects: int
    attributes: int
    density: float
    seed: int

    def __post_init__(self) -> None:
        if self.objects < 0 or self.attributes < 0:
            raise ValueError(
                f"objects and attributes must be nonnegative, got "
                f"{self.objects} and {self.attributes}"
            )
        if self.density != self.density:
            raise ValueError("density must not be NaN")


def random_context(spec: GeneratorSpec) -> FormalContext:
    """Independent Bernoulli cells at the requested density.

    Draw order: the rows are those of one ``rng.random()`` per cell,
    object by object and, within an object, attribute by attribute, the
    cell an incidence when its draw is below ``spec.density``; the draws
    are made in bulk by :func:`_below`.  A test pins the rows.
    """
    rng = random.Random(spec.seed)
    width = spec.attributes
    # reversed, so that each row's slice reads its last attribute first
    cells = _below(rng, spec.objects * width, spec.density)[::-1]
    if width:
        rows = [int(cells[i : i + width], 2) for i in range(0, len(cells), width)]
        rows.reverse()
    else:
        rows = [0] * spec.objects
    return FormalContext(_names("g", spec.objects), _names("m", width), tuple(rows))


def random_two_factorizable_context(spec: GeneratorSpec) -> FormalContext:
    """Union of two random staircases, hence two-factorizable.

    Each staircase fixes a random attribute order and gives every
    object a random-length prefix of it, so its rows are nested by
    construction; the incidence is the union of the two.

    Draw order, per staircase in turn: one ``rng.shuffle`` of the
    attributes, then the draws of one ``rng.random()`` per attribute for
    each object, made in bulk by :func:`_below`; the prefix length is
    the number of draws below ``spec.density``.  A test pins the rows.
    """
    rng = random.Random(spec.seed)
    width = spec.attributes
    rows = [0] * spec.objects
    for _ in range(2):
        order = list(range(width))
        rng.shuffle(order)
        # prefix[k] is the mask of the first k attributes of the order
        prefix = [0]
        for m in order:
            prefix.append(prefix[-1] | 1 << m)
        cells = _below(rng, spec.objects * width, spec.density)
        for g in range(spec.objects):
            rows[g] |= prefix[cells.count(b"1", g * width, g * width + width)]
    return FormalContext(_names("g", spec.objects), _names("m", width), tuple(rows))


def _below(rng: random.Random, n: int, density) -> bytes:
    """``b"1"`` or ``b"0"`` for each of ``n`` ``rng.random() < density``
    tests, byte i the i-th, leaving ``rng`` as those calls would.

    In Python 3.10 to 3.13, ``random()`` is K / 2**53 with
    K = (w0 >> 5) * 2**26 + (w1 >> 6), from two consecutive 32-bit words,
    and ``getrandbits(64 * n)`` is the next 2n words, word i at bit 32 i.
    The test is K < T, T the number of the 2**53 values below
    ``density``.  The top byte of w0 is K >> 45: one table maps it to
    ``1`` below T >> 45, to ``0`` above it, and a tie, about one draw in
    256, is settled on the whole of K.
    """
    if not 0 < density:  # NaN too
        threshold = 0
    elif not density < 1:
        threshold = 1 << 53
    else:
        # exact for a float or Fraction density: 2**53 is an int
        threshold = math.ceil(density * 2**53)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    top = threshold >> 45
    cells = bytearray(raw[3::8].translate((b"1" * top + b"=" + b"0" * 255)[:256]))
    i = cells.find(b"=")
    while i >= 0:
        word = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
        k = (word & 0xFFFFFFFF) >> 5 << 26 | word >> 38
        cells[i] = 49 if k < threshold else 48
        i = cells.find(b"=", i + 1)
    return bytes(cells)


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
