"""Shared fixtures and helpers for the test suite."""
from collections import deque
import random
import time

import pytest

import ordfactor as of
from ordfactor.bitset import bits
from ordfactor.dimension import Poset
from ordfactor.errors import ConceptBudgetExceeded
from ordfactor.lattice import concept_cap
from ordfactor.maximal import HEURISTIC_RESTARTS


@pytest.fixture(scope="session")
def monuments():
    return of.load_dataset("monuments")


@pytest.fixture(scope="session")
def contranominal3():
    return of.load_dataset("contranominal3")


@pytest.fixture(scope="session")
def forced_overlap():
    return of.load_dataset("forced_overlap")


@pytest.fixture(scope="session")
def persistent_odd_cycle():
    return of.load_dataset("persistent_odd_cycle")


@pytest.fixture(scope="session")
def s3_poset():
    """The standard example S3: a_i below b_j exactly when i differs from j."""
    names = ("a1", "a2", "a3", "b1", "b2", "b3")
    relations = [
        (f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    ]
    return Poset.from_relations(names, relations)


@pytest.fixture(scope="session")
def published_transversal(persistent_odd_cycle):
    """The 17 incidences known to induce a bipartite subgraph of the
    18x18 fixture's incompatibility graph."""
    ctx = persistent_odd_cycle
    raw = [
        (6, "j"), (4, "n"), (7, "p"), (18, "p"), (6, "p"), (6, "n"),
        (12, "k"), (10, "g"), (6, "g"), (5, "p"), (2, "i"), (4, "p"),
        (12, "m"), (3, "i"), (12, "h"), (1, "p"), (2, "q"),
    ]
    return tuple(
        of.IncidencePair(g - 1, ctx.attributes.index(a)) for g, a in raw
    )


def induced_bipartite(graph, deleted):
    """Whether the subgraph induced by the non-deleted vertices is
    2-colorable.  ``deleted`` holds vertex indices."""
    keep = 0
    for i in range(graph.n):
        if i not in deleted:
            keep |= 1 << i
    color = {}
    for start in range(graph.n):
        if not keep >> start & 1 or start in color:
            continue
        color[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            mask = graph.adjacency[v] & keep
            while mask:
                low = mask & -mask
                mask ^= low
                w = low.bit_length() - 1
                if w not in color:
                    color[w] = 3 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def reference_heuristic_oct(adj, seed, deadline):
    """The heuristic transversal as a plain rescan of every vertex per
    step, with generator sums for the conflict counts.  It makes the
    same choices as ``maximal._heuristic_oct`` and is kept only to
    check that the incremental counts there change no decision."""
    n = len(adj)
    rng = random.Random(seed)
    best = None
    for _ in range(HEURISTIC_RESTARTS):
        color = [rng.randrange(2) for _ in range(n)]
        active = (1 << n) - 1 if n else 0
        while True:
            worst_v = -1
            worst_c = 0
            for v in range(n):
                if not active >> v & 1:
                    continue
                same = sum(
                    1
                    for w in bits(adj[v] & active)
                    if color[w] == color[v]
                )
                if same > worst_c:
                    worst_c = same
                    worst_v = v
            if worst_v < 0:
                break
            other = adj[worst_v] & active
            flipped = sum(
                1 for w in bits(other) if color[w] != color[worst_v]
            )
            if flipped < worst_c:
                color[worst_v] ^= 1
            else:
                active &= ~(1 << worst_v)
        for v in range(n):
            if active >> v & 1:
                continue
            seen = {color[w] for w in bits(adj[v] & active)}
            if len(seen) <= 1:
                color[v] = 1 - seen.pop() if seen else 0
                active |= 1 << v
        evicted = tuple(v for v in range(n) if not active >> v & 1)
        candidate = (len(evicted), evicted)
        if best is None or candidate < best:
            best = candidate
        if deadline is not None and time.monotonic() > deadline:
            break
    assert best is not None or n == 0
    return best[1] if best else ()


def reference_concept_masks(ctx, cap=None):
    """The (extent, intent) bitmasks of all concepts from NextClosure,
    in lectic order of intents, one lectic successor at a time.  It
    raises the same :class:`ConceptBudgetExceeded` past ``cap`` as
    ``lattice.enumerate_concepts`` and is kept only to check that
    enumeration by row intersections changes no concept, order or
    message."""
    if cap is None:
        cap = concept_cap(ctx)
    m = ctx.n_attributes
    full_attrs = (1 << m) - 1
    rows = ctx.rows

    def close(amask):
        # extent of the attribute set, then intent of that extent
        extent = 0
        intent = full_attrs
        for g, row in enumerate(rows):
            if row & amask == amask:
                extent |= 1 << g
                intent &= row
        return extent, intent

    extent, current = close(0)
    produced = 0
    while True:
        produced += 1
        if produced > cap:
            raise ConceptBudgetExceeded(
                f"more than {cap} concepts for a context of size "
                f"{ctx.n_objects}x{ctx.n_attributes}"
            )
        yield extent, current
        if current == full_attrs:
            return
        for i in range(m - 1, -1, -1):
            if current >> i & 1:
                continue
            below = (1 << i) - 1
            candidate = (current & below) | (1 << i)
            extent, closed = close(candidate)
            # lectic successor test: no new attribute below i
            if closed & below & ~current:
                continue
            current = closed
            break
        else:
            raise AssertionError("NextClosure failed to advance")


def random_poset(n, seed):
    """A random poset built from arcs along a shuffled linear order."""
    rng = random.Random(seed)
    names = tuple(chr(97 + i) for i in range(n))
    order = list(range(n))
    rng.shuffle(order)
    density = rng.choice((0.2, 0.4, 0.6))
    relations = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                relations.append((names[order[a]], names[order[b]]))
    return Poset.from_relations(names, relations)


_ACCEPTANCE_LINES = []


@pytest.fixture
def record_acceptance():
    def _record(number, ok, text):
        verdict = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {verdict}: {text}")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
