"""Maximal ordinal two-factorizations via odd cycle transversals.

When the incompatibility graph is not bipartite, no two-factorization
exists; the best possible is to drop a minimum set of incidences whose
removal makes the rebuilt graph bipartite.  Removal can create fresh
incompatibilities, so the transversal step may have to repeat; a single
exact round certifies that the number of dropped incidences is globally
minimum, and the exact search capped below its size certifies any other.
Deciding whether a small enough removal exists is NP-complete, so the
exact search's speed rests on its lower bound: each clique of c >= 4
vertices needs c - 2 deletions and each odd cycle beside them one.
"""
from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, replace
from typing import Generator, Sequence

from .bitset import bits, transpose
from .context import FormalContext, IncidencePair, remove_incidences
from .errors import BudgetExceeded, NotTwoFactorizable, deadline_after
from .incompat import IncompatibilityGraph, pack_odd_cycles, product_graph, two_color
from .twofactor import FactorizationResult, require_valid, two_factorize

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
    first minimum odd cycle transversal the search reaches, fixed for a
    given graph) or
    ``"heuristic"`` (randomized coloring with local search, always
    returns).  One 2-coloring goes first, so a bipartite graph loses
    nothing in either mode.  Both are deterministic for a fixed seed.
    """
    _check_mode(mode)
    deadline = deadline_after(budget)
    if two_color(graph.adjacency, (1 << graph.n) - 1)[1] is None:
        deleted = ()  # no search: the local search could evict from it
    elif mode == "exact":
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

    Each round drops the vertex set :func:`max_bipartite_subset`
    answers on the graph of what is left, and :func:`two_factorize`
    confirms the removal: it refuses exactly the contexts whose graph
    has an odd cycle, so its result ends the loop and only a refusal
    builds the next round's graph.  A graph is thus built once per round
    that needs a transversal, and once for a context that needs none.
    An empty answer also ends in :func:`two_factorize`, which raises for
    a context the solver left unrepaired.
    ``certificate`` is true when nothing was removed or exactly one
    exact round sufficed, in which case the removal is globally minimum.
    An exhausted budget raises :class:`BudgetExceeded`, whose
    ``lower_bound`` holds for every valid removal.
    """
    _check_mode(mode)
    deadline = deadline_after(budget)
    current = ctx
    removed: set[IncidencePair] = set()
    rounds = 0
    first = 0  # the first round's transversal size, set in that round
    graph = product_graph(current)
    while True:
        # an exact search out of time raises BudgetExceeded before its
        # first subproblem, which every non-bipartite graph needs
        remaining = deadline - time.monotonic() if deadline is not None else None
        try:
            solution = max_bipartite_subset(graph, mode, remaining, seed)
        except BudgetExceeded as exc:
            if not rounds:
                raise
            # every valid removal is a transversal of the first round's
            # graph, so its minimum, not this round's bound, bounds them
            raise BudgetExceeded(str(exc), lower_bound=first) from None
        if not solution.deleted:
            result = two_factorize(current)
            break
        if not rounds:
            first = len(solution.deleted)
        removed |= solution.deleted
        current = remove_incidences(current, solution.deleted)
        rounds += 1
        try:
            result = two_factorize(current)
            break
        except NotTwoFactorizable:
            graph = product_graph(current)
    if rounds >= 2:
        logger.info(
            "input needed %d transversal rounds; single-round optimality "
            "does not apply",
            rounds,
        )
    return replace(
        result,
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
    :class:`BudgetExceeded`, with ``best_known`` the size of
    ``result.removed``, when the search outlasts ``budget`` seconds.
    """
    require_valid(ctx, result)
    deadline = deadline_after(budget)
    graph = product_graph(ctx)
    removed = [
        1 << i for i, pair in enumerate(graph.vertices) if pair in result.removed
    ]
    kept = (1 << graph.n) - 1 - sum(removed)
    if any(two_color(graph.adjacency, kept | v)[1] is None for v in removed):
        return False
    exact = _ExactOct(graph.adjacency, deadline)
    try:
        return exact.run(len(result.removed) - 1) is None
    except BudgetExceeded as exc:
        exc.best_known = len(result.removed)
        raise


# -- exact solver ------------------------------------------------------

# a transversal's sorted vertices, or None when it exceeds the bound;
# within one bound every answer at a node is as large as its bound
_Answer = tuple[int, ...] | None


class _ExactOct:
    """Branch and bound for minimum odd cycle transversals.

    The root is a 2-core (:func:`_peel`): a vertex with fewer than 2
    neighbours lies on no cycle, so dropping it changes no transversal.
    A node is the root less the vertices its path deleted.  The
    vertex-disjoint cliques of :func:`_greedy_cliques` are found once
    per graph, until the deadline passes.  Each search node bounds its
    subgraph with :meth:`bound`, first from the odd cycles its parent
    packed that its deletion left whole, then, when that does not prune,
    from a fresh packing; it prunes when the bound exceeds the size
    still allowed, and branches on the vertices of the smallest cycle of
    the packing that counts more, or of a triangle of the first counted
    clique when no cycle is left, passing that packing on to its
    children.  The children partition the node's transversals: each may
    not delete the branch vertices its earlier siblings deleted, so no
    transversal is searched twice.  A node returns at its first child
    that succeeds, so the answer is the first minimum transversal the
    search reaches, fixed for a given graph.  No answer is kept between
    nodes: with the children partitioning, no two paths delete the same
    vertices, so no mask is solved twice at one bound.

    Dominated vertices follow their dominators.  If N(u) is a subset of
    N(v) in the root, u != v, every minimum transversal that holds u
    holds v: otherwise u could come back with v's colour, since all its
    neighbours have the other one, leaving a smaller transversal.
    Induced subgraphs only shrink neighbourhoods, so this holds at every
    node where both are left.  A child that deletes branch vertex v
    therefore also deletes D(v), the vertices still active that
    dominate v (:meth:`dominators`), and a branch vertex whose D(v)
    holds a forbidden vertex, or which with D(v) exceeds the size still
    allowed, is forbidden without a child.  Every minimum transversal
    of the root is closed under D, so the children still reach one
    whenever one fits the bound, and the search stays exact (Hüffner
    2009 uses reduction rules of this kind for graph bipartization).
    """

    def __init__(self, adjacency: Sequence[int], deadline: float | None):
        self.adj = adjacency
        self.deadline = deadline
        self.active = _peel(adjacency, (1 << len(adjacency)) - 1)
        self.cliques = _greedy_cliques(adjacency, self.active, deadline)
        self.known_dominators: dict[int, int] = {}

    def run(self, ub: int) -> tuple[int, ...] | None:
        """The first minimum transversal the search reaches if its size
        is at most ``ub``, else None: :meth:`search` deepens its bound
        from the root's lower bound, so the first bound that succeeds is
        the minimum and each one that fails proves a lower bound."""
        for k in range(self.bound(self.active, (), ub)[0], ub + 1):
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
        stack = [self.solve(self.active, ub, [], 0)]
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
                    # run has found no transversal at any smaller bound
                    raise BudgetExceeded(
                        "exact transversal search out of time; "
                        f"no transversal below {ub} vertices",
                        lower_bound=ub,
                    )
                stack.append(self.solve(*request))
                answer = None

    def solve(
        self, active: int, ub: int, kept: list[int], forbidden: int
    ) -> Generator[tuple[int, int, list[int], int], _Answer, _Answer]:
        """The first transversal of size <= ub without a vertex of
        ``forbidden`` that the children reach, tried in ascending order
        of the branch vertex.  ``active`` is the root's 2-core less the
        vertices the path deleted and ``kept`` holds vertex-disjoint odd
        cycles of it.  A child is ``active`` less the branch vertex v
        and its active dominators D(v), with ``ub`` less their number
        and the counted cycles that avoid them all, and it may not
        delete the branch vertices its earlier siblings deleted: a
        transversal of it holding one of them would, without that
        vertex, have been found by that sibling.  A branch vertex whose
        D(v) meets ``forbidden``, or whose deletion with D(v) exceeds
        ``ub``, gets no child and is forbidden to the later ones: no
        minimum transversal below the node holds it.  A node whose
        branch vertices are all forbidden fails.  Yields each
        subproblem as ``(active, ub, kept, forbidden)`` and is sent its
        answer."""
        # the inherited cycles may prune without a fresh packing; with
        # none, the fresh packing is the same one
        bound, branch, cycles = self.bound(active, kept, ub)
        if kept and bound <= ub:
            fresh = self.bound(active, (), ub)
            if fresh[0] >= bound:
                bound, branch, cycles = fresh
        # a bipartite subgraph, like the empty one, needs no deletion
        if not branch:
            return ()
        # prune when the bound exceeds the size still allowed
        for v in bits(branch & ~forbidden if bound <= ub else 0):
            gone = 1 << v | self.dominators(v) & active
            size = gone.bit_count()
            if size <= ub and not gone & forbidden:
                sub = yield (
                    active & ~gone,
                    ub - size,
                    [cycle for cycle in cycles if not cycle & gone],
                    forbidden,
                )
                if sub is not None:
                    return tuple(sorted(sub + tuple(bits(gone))))
            forbidden |= 1 << v
        return None

    def dominators(self, v: int) -> int:
        """The vertices w != v of the root's 2-core whose neighbours
        there include all of v's, as a mask.  They are found the first
        time v branches and cached; an all-pairs table at the root costs
        more than the search on large sparse cores."""
        known = self.known_dominators.get(v)
        if known is None:
            nbrs = self.adj[v] & self.active
            # a dominator is adjacent to every neighbour of v, so to
            # the lowest one
            low = nbrs & -nbrs
            known = 0
            for w in bits(self.adj[low.bit_length() - 1] & self.active & ~(1 << v)):
                if not nbrs & ~self.adj[w]:
                    known |= 1 << w
            self.known_dominators[v] = known
        return known

    def bound(
        self, active: int, kept: Sequence[int], ub: int
    ) -> tuple[int, int, list[int]]:
        """A lower bound on the transversals of the subgraph induced by
        ``active``, an odd cycle of it to branch on as a vertex mask, 0
        exactly when the subgraph is bipartite, and the odd cycles
        counted.

        ``kept`` holds vertex-disjoint odd cycles of the subgraph, which
        count 1 each.  A bipartite induced subgraph keeps at most 2
        vertices of a clique, so each listed clique with c >= 4 vertices
        in what they leave counts c - 2; each odd cycle packed in what
        those cliques leave counts 1.  The packing stops once the bound
        exceeds ``ub``: a bound of at most ``ub`` is the whole packing's,
        and a larger one prunes.  The branch is the smallest cycle, else
        the 3 lowest vertices of the first clique counted, a triangle.
        """
        rest = active
        for cycle in kept:
            rest ^= cycle
        bound = len(kept)
        first = 0
        for clique in self.cliques:
            part = clique & rest
            c = part.bit_count()
            if c >= 4:
                bound += c - 2
                rest ^= part
                first = first or part
        packed = pack_odd_cycles(self.adj, rest, max(ub + 1 - bound, 0))
        bound += len(packed)
        cycles = [*kept, *packed]
        if cycles:
            return bound, min(cycles, key=int.bit_count), cycles
        triangle = 0
        for _ in range(3):
            low = first & ~triangle
            triangle |= low & -low
        return bound, triangle, cycles


def _peel(adj: Sequence[int], active: int) -> int:
    """The 2-core of the subgraph induced by ``active``: every vertex
    with fewer than 2 neighbours in it leaves, repeatedly.  Such a
    vertex lies on no cycle, so the core has the subgraph's odd cycles
    and transversals.  Each vertex is checked once, and again when a
    neighbour leaves."""
    check = active
    while check:
        low = check & -check
        check ^= low
        nbrs = adj[low.bit_length() - 1] & active
        if nbrs.bit_count() < 2:
            active ^= low
            check |= nbrs
    return active


def _greedy_cliques(
    adj: Sequence[int], active: int, deadline: float | None
) -> list[int]:
    """Vertex-disjoint cliques of at least 4 vertices of the subgraph
    induced by ``active``, as vertex masks.  A clique grows from one
    vertex by the candidate with the most candidate neighbours, the
    lowest on ties, until no vertex is adjacent to all of its members;
    the largest such clique over the start vertices (the lowest start on
    ties) is taken, and the search repeats on the vertices that are
    left.  :func:`_has_4_clique` goes first each time, so a graph
    without 4-cliques costs one scan.  The clock is read after each
    start vertex's clique is grown; once it passes ``deadline`` the list
    ends with the largest clique of the round so far, if it has at
    least 4 vertices.  Any shorter list still bounds."""
    cliques = []
    late = False
    while not late and _has_4_clique(adj, active):
        best = 0
        for v in bits(active):
            cand = adj[v] & active
            # a clique from v has at most one vertex more than cand
            if cand.bit_count() < max(3, best.bit_count()):
                continue
            clique = 1 << v
            while cand:
                # the lowest candidate with the most candidate neighbours
                most = -1
                rest = cand
                while rest:
                    low = rest & -rest
                    rest ^= low
                    count = (adj[low.bit_length() - 1] & cand).bit_count()
                    if count > most:
                        most = count
                        pick = low
                clique |= pick
                cand &= adj[pick.bit_length() - 1]
            if clique.bit_count() > best.bit_count():
                best = clique
            if deadline is not None and time.monotonic() > deadline:
                late = True
                break
        if best.bit_count() < 4:
            break
        cliques.append(best)
        active &= ~best
    return cliques


def _has_4_clique(adj: Sequence[int], active: int) -> bool:
    """Whether the subgraph induced by ``active`` holds 4 pairwise
    adjacent vertices: each vertex in turn, then each of its
    neighbours above it, then each of their common neighbours above
    that, looks for a common neighbour above all three."""
    while active:
        low = active & -active
        active ^= low
        up = adj[low.bit_length() - 1] & active
        while up.bit_count() >= 3:
            low = up & -up
            up ^= low
            common = adj[low.bit_length() - 1] & up
            while common.bit_count() >= 2:
                low = common & -common
                common ^= low
                if adj[low.bit_length() - 1] & common:
                    return True
    return False


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
    any count.  The degrees are transposed into planes once per call.
    A restart counts every vertex's color-1 neighbours with one
    ``map(int.bit_count, ...)`` pass and one transpose; a color-1
    vertex's conflicts are that count, and a color-0 vertex's are its
    degree less that count, taken from the degree planes by one borrow
    ripple.  The pick starts at the highest nonzero plane and
    intersects the planes below it from the top down, keeping a plane's
    vertices whenever it has any, which leaves the vertices with the
    most conflicts; no count rises except on a flip, and a flip lifts
    the highest nonzero plane by at most one.  A move then subtracts 1
    from all of its same-colored active neighbours with one borrow
    ripple through the planes, adds 1 to the others with one carry
    ripple when it is a flip, and XORs the moved vertex's old and new
    count into the planes (an eviction writes 0).
    """
    n = len(adj)
    everything = (1 << n) - 1
    degrees = list(map(int.bit_count, adj))
    width = max(degrees, default=0).bit_length()
    degree_planes = transpose(degrees, width)
    up = tuple(range(width))
    # below[j]: the planes under plane j, from the top down
    below = [tuple(range(j - 1, -1, -1)) for j in up]
    rng = random.Random(seed)
    best_size = n + 1
    best: tuple[int, ...] = ()
    for _ in range(HEURISTIC_RESTARTS):
        ones = _coloring(rng, n)
        active = everything
        # a vertex's conflicts are its neighbours of its own color; a
        # color-0 vertex's are its degree less its color-1 neighbours,
        # subtracted plane by plane with a rippling borrow
        to_ones = transpose(list(map(int.bit_count, map(ones.__and__, adj))), width)
        planes = []
        borrow = 0
        for deg, one in zip(degree_planes, to_ones):
            planes.append((one & ones) | ((deg ^ one ^ borrow) & ~ones))
            borrow = (~deg & (one | borrow)) | (one & borrow)
        # planes[top:] hold no vertex
        top = width
        while True:
            while top and not planes[top - 1]:
                top -= 1
            if not top:
                break
            # evicted vertices count 0; the lowest bit of the vertices
            # with the most conflicts breaks the tie
            worst = planes[top - 1]
            worst_c = 1 << top - 1
            for j in below[top - 1]:
                both = worst & planes[j]
                if both:
                    worst = both
                    worst_c |= 1 << j
            bit = worst & -worst
            nbrs = adj[bit.bit_length() - 1] & active
            mates = nbrs & (ones if ones & bit else ~ones)
            others = nbrs ^ mates
            # every mate conflicts with the moved vertex, so counts >= 1
            # and mates has worst_c members
            borrow = mates
            for j in up:
                plane = planes[j]
                planes[j] = plane ^ borrow
                borrow &= ~plane
                if not borrow:
                    break
            flipped = others.bit_count()
            if flipped < worst_c:
                carry = others
                if carry:
                    for j in up:
                        plane = planes[j]
                        planes[j] = plane ^ carry
                        carry &= plane
                        if not carry:
                            break
                    if j >= top:
                        top = j + 1
                ones ^= bit
            else:
                flipped = 0  # an evicted vertex counts 0
                active ^= bit
            change = worst_c ^ flipped
            j = 0
            while change:
                if change & 1:
                    planes[j] ^= bit
                change >>= 1
                j += 1
        rest = everything ^ active
        while rest:
            bit = rest & -rest
            rest ^= bit
            nbrs = adj[bit.bit_length() - 1] & active
            zeros = nbrs & ~ones
            if zeros and nbrs & ones:
                continue
            # take the color opposite to all active neighbours, else 0
            ones = ones | bit if zeros else ones & ~bit
            active |= bit
        evicted = everything ^ active
        size = evicted.bit_count()
        # the smallest eviction wins, the lexicographically smallest on ties
        if size <= best_size:
            candidate = tuple(bits(evicted))
            if size < best_size or candidate < best:
                best_size = size
                best = candidate
        if deadline is not None and time.monotonic() > deadline:
            break
    return best
