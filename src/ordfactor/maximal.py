"""Maximal ordinal two-factorizations via odd cycle transversals.

When the incompatibility graph is not bipartite, no two-factorization
exists; the best possible is to drop a minimum set of incidences whose
removal makes the rebuilt graph bipartite.  Removal can create fresh
incompatibilities, so the transversal step may have to repeat; a single
exact round certifies that the number of dropped incidences is globally
minimum, and the exact search capped below its size certifies any other.
"""
from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, replace
from typing import Generator, Sequence

from .bitset import bits, transpose
from .context import FormalContext, IncidencePair, remove_incidences
from .errors import BudgetExceeded, InvalidFactorization
from .incompat import (
    IncompatibilityGraph,
    bipartition,
    build_incompatibility_graph,
    pack_odd_cycles,
    two_color,
)
from .twofactor import (
    FactorizationResult,
    two_factorize,
    validate_factorization,
)

logger = logging.getLogger(__name__)

HEURISTIC_RESTARTS = 32


@dataclass(frozen=True)
class OctSolution:
    """Vertices whose deletion leaves the graph bipartite."""

    deleted: frozenset[IncidencePair]


def max_bipartite_subset(
    graph: IncompatibilityGraph,
    mode: str = "exact",
    budget: float | None = None,
    seed: int = 0,
) -> OctSolution:
    """Delete as few vertices as possible to make the graph bipartite.

    ``mode`` is ``"exact"`` (branch and bound, may raise
    :class:`BudgetExceeded` past the time budget; ``deleted`` is then the
    lexicographically smallest minimum odd cycle transversal) or
    ``"heuristic"`` (randomized coloring with local search, always
    returns).  Both are deterministic for a fixed mode and seed.
    """
    _check_mode(mode)
    deadline = time.monotonic() + budget if budget is not None else None
    if mode == "exact":
        deleted = _ExactOct(graph.adjacency, deadline).run(graph.n)
    else:
        deleted = _heuristic_oct(graph.adjacency, seed, deadline)
    return OctSolution(frozenset(graph.vertices[v] for v in deleted))


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")


def maximal_two_factorization(
    ctx: FormalContext,
    mode: str = "exact",
    budget: float | None = None,
    seed: int = 0,
) -> FactorizationResult:
    """Factorize after removing a transversal, repeating if needed.

    The loop drops a bipartite-inducing vertex set and rebuilds the
    graph until it is bipartite, then factorizes what is left.
    ``certificate`` is true when nothing was removed or exactly one
    exact round sufficed, in which case the removal is globally minimum.
    """
    _check_mode(mode)
    deadline = time.monotonic() + budget if budget is not None else None
    current = ctx
    removed: set[IncidencePair] = set()
    rounds = 0
    graph = build_incompatibility_graph(current)
    while not bipartition(graph).is_bipartite:
        if rounds >= ctx.incidence_count:
            raise AssertionError("transversal loop failed to terminate")
        # an exact search out of time raises BudgetExceeded before its
        # first subproblem, which every non-bipartite graph needs
        remaining = deadline - time.monotonic() if deadline is not None else None
        solution = max_bipartite_subset(graph, mode, remaining, seed)
        removed |= solution.deleted
        current = remove_incidences(current, solution.deleted)
        graph = build_incompatibility_graph(current)
        rounds += 1
    if rounds >= 2:
        logger.info(
            "input needed %d transversal rounds; single-round optimality "
            "does not apply",
            rounds,
        )
    return replace(
        two_factorize(current),
        removed=frozenset(removed),
        certificate=rounds == 0 or (rounds == 1 and mode == "exact"),
        rounds=rounds,
    )


def certify_global_optimality(
    ctx: FormalContext,
    result: FactorizationResult,
    budget: float | None = None,
) -> bool:
    """Whether the removal size of ``result`` is provably minimum.

    Removing incidences only adds edges among the kept ones, so every
    valid removal is an odd cycle transversal of the original graph.
    The result is certified when the exact search, deepened up to one
    less than the size of ``result.removed``, finds no transversal of
    the original graph; this holds for heuristic and multi-round
    results alike.  ``result`` is validated first, so each removed pair
    is a vertex.  A removed incidence whose return to the kept ones
    closes no odd cycle of the original graph gives a smaller
    transversal, so that answers False without a search.  Raises
    :class:`InvalidFactorization` on an invalid result and
    :class:`BudgetExceeded` when the search outlasts ``budget`` seconds.
    """
    problems = validate_factorization(ctx, result)
    if problems:
        raise InvalidFactorization("; ".join(v.message for v in problems))
    deadline = time.monotonic() + budget if budget is not None else None
    graph = build_incompatibility_graph(ctx)
    removed = [
        1 << i for i, pair in enumerate(graph.vertices) if pair in result.removed
    ]
    kept = (1 << graph.n) - 1 - sum(removed)
    if any(two_color(graph.adjacency, kept | v)[1] is None for v in removed):
        return False
    exact = _ExactOct(graph.adjacency, deadline)
    return exact.run(len(result.removed) - 1) is None


# -- exact solver ------------------------------------------------------

# a transversal's sorted vertices, or None when it exceeds the bound;
# within one bound every answer at a node is as large as its bound
_Answer = tuple[int, ...] | None


class _ExactOct:
    """Branch and bound for minimum odd cycle transversals.

    Each search node packs the odd cycles of its subgraph with
    :func:`pack_odd_cycles`, prunes when the packing's count (each
    cycle needs a deletion of its own) exceeds the size still allowed,
    and branches on the vertices of the smallest packed cycle.  Solved
    subgraphs are memoized within one bound, and size ties are broken
    toward the lexicographically smallest deleted set; every
    transversal meets every odd cycle, so the result does not depend on
    which cycle is branched on.
    """

    def __init__(self, adjacency: Sequence[int], deadline: float | None):
        self.adj = adjacency
        self.deadline = deadline
        # isolated vertices lie on no odd cycle
        self.active = sum(1 << v for v in range(len(adjacency)) if adjacency[v])

    def run(self, ub: int) -> tuple[int, ...] | None:
        """The lexicographically smallest minimum transversal if its
        size is at most ``ub``, else None: :meth:`search` deepens its
        bound from 0, so the first bound that succeeds is the minimum
        and each one that fails proves a lower bound."""
        for k in range(ub + 1):
            answer = self.search(k)
            if answer is not None:
                return answer
        return None

    def search(self, ub: int) -> _Answer:
        """:meth:`solve` on the whole graph.  The subproblems run on a
        list used as a stack: each answer goes to the generator that
        asked for it, so the search depth is not bounded by Python's.
        The clock is read before each subproblem is started, never
        before the root, so every search does its first node."""
        # a subgraph's bound is ub less the vertices its mask lacks, so
        # the mask alone keys the memo of one bound
        self.memo: dict[int, _Answer] = {}
        stack = [self.solve(self.active, ub)]
        answer = None
        while True:
            try:
                request = stack[-1].send(answer)
            except StopIteration as done:
                stack.pop()
                answer = done.value
                if not stack:
                    return answer
            else:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise BudgetExceeded("exact transversal search out of time")
                stack.append(self.solve(*request))
                answer = None

    def solve(
        self, active: int, ub: int
    ) -> Generator[tuple[int, int], _Answer, _Answer]:
        """Exact lex-smallest minimum transversal if its size <= ub.
        Yields each subproblem as ``(active, ub)`` and is sent its
        answer."""
        if active in self.memo:
            return self.memo[active]
        # a bipartite subgraph, like the empty one, needs no deletion
        result: _Answer = ()
        cycles = pack_odd_cycles(self.adj, active)
        if cycles:
            # prune: each packed cycle needs a deletion of its own
            branch = min(cycles, key=int.bit_count) if len(cycles) <= ub else 0
            result = None
            for v in bits(branch):
                sub = yield active & ~(1 << v), ub - 1
                if sub is None:
                    continue
                candidate = tuple(sorted(sub + (v,)))
                if result is None or candidate < result:
                    result = candidate
        self.memo[active] = result
        return result


# -- heuristic solver --------------------------------------------------

# a word's top byte below 128 is one randrange(2) result, its bit 6; from
# 128 up randrange draws again
_COIN = bytes.maketrans(bytes(range(128)), b"0" * 64 + b"1" * 64)
_REDRAW = bytes(range(128, 256))


def _coloring(rng: random.Random, n: int) -> int:
    """The mask of ``n`` ``rng.randrange(2)`` calls, bit v the v-th call,
    leaving ``rng`` as those calls would.

    In Python 3.10 to 3.13, ``randrange(2)`` is ``getrandbits(2)``, the
    top two bits of one 32-bit word, drawn again while it is 2 or more, and
    ``getrandbits(32 * w)`` is the next w words, word i at bit 32 i.  A
    word gives at most one call's result, so drawing one word per
    missing result never draws past the n-th.
    """
    digits = b""
    while len(digits) < n:
        need = n - len(digits)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        digits += words[3::4].translate(_COIN, _REDRAW)
    return int(digits[::-1], 2) if n else 0


def _heuristic_oct(
    adj: Sequence[int], seed: int, deadline: float | None
) -> tuple[int, ...]:
    """Randomized 2-coloring plus local search, best of several
    restarts.  The first vertex with the most conflicting edges is
    recolored when that strictly helps and evicted otherwise; evicted
    vertices that fit again afterwards are re-added.

    The coloring is the bitmask ``ones`` of color-1 vertices, drawn in
    bulk by :func:`_coloring`.  The conflict counts are bit-sliced:
    ``planes[j]`` is the mask of the vertices whose count has bit j set,
    and ``width``, the bit length of the largest degree, is enough for
    any count.  A restart counts every vertex's color-1 and color-0
    neighbours with ``map(int.bit_count, ...)``, transposes both lists
    into planes and keeps from each the vertices of that color.  The pick
    intersects the planes from the top down, keeping a plane's
    vertices whenever it has any, which leaves the vertices with the
    most conflicts.  A move then subtracts 1 from all of its
    same-colored active neighbours with one borrow ripple through the
    planes, adds 1 to the others with one carry ripple when it is a
    flip, and XORs the moved vertex's old and new count into the
    planes (an eviction writes 0).
    """
    n = len(adj)
    everything = (1 << n) - 1
    width = max((a.bit_count() for a in adj), default=0).bit_length()
    rng = random.Random(seed)
    best: tuple[int, tuple[int, ...]] | None = None
    for _ in range(HEURISTIC_RESTARTS):
        ones = _coloring(rng, n)
        active = everything
        # a vertex's conflicts are its neighbours of its own color
        to_ones, to_zeros = (
            transpose(list(map(int.bit_count, map(side.__and__, adj))), width)
            for side in (ones, everything ^ ones)
        )
        planes = [(a & ones) | (b & ~ones) for a, b in zip(to_ones, to_zeros)]
        while True:
            # evicted vertices count 0; the lowest bit of the vertices
            # with the most conflicts breaks the tie
            worst = everything
            worst_c = 0
            for j in range(width - 1, -1, -1):
                top = worst & planes[j]
                if top:
                    worst = top
                    worst_c |= 1 << j
            if not worst_c:
                break
            bit = worst & -worst
            nbrs = adj[bit.bit_length() - 1] & active
            mates = nbrs & (ones if ones & bit else ~ones)
            others = nbrs ^ mates
            # every mate conflicts with the moved vertex, so counts >= 1
            borrow = mates
            for j in range(width):
                if not borrow:
                    break
                plane = planes[j]
                planes[j] = plane ^ borrow
                borrow &= ~plane
            flipped = others.bit_count()
            if flipped < worst_c:
                carry = others
                for j in range(width):
                    if not carry:
                        break
                    plane = planes[j]
                    planes[j] = plane ^ carry
                    carry &= plane
                ones ^= bit
            else:
                flipped = 0  # an evicted vertex counts 0
                active ^= bit
            change = worst_c ^ flipped
            for j in range(change.bit_length()):
                if change >> j & 1:
                    planes[j] ^= bit
        for v in bits(everything & ~active):
            bit = 1 << v
            nbrs = adj[v] & active
            zeros = nbrs & ~ones
            if zeros and nbrs & ones:
                continue
            # take the color opposite to all active neighbours, else 0
            ones = ones | bit if zeros else ones & ~bit
            active |= bit
        evicted = tuple(bits(everything & ~active))
        candidate = (len(evicted), evicted)
        if best is None or candidate < best:
            best = candidate
        if deadline is not None and time.monotonic() > deadline:
            break
    return best[1]
