"""Independent result checker for the benchmark.

Nothing here imports ``ordfactor``: every claim a result makes is checked
against the raw cross table, parsed again from the same text the program
received.  Pairs are ``(object_index, attribute_index)`` tuples and rows
are attribute bitmasks, one per object.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

# Values fixed by the package's acceptance criteria.
MONUMENTS_EXACT_REMOVED = {
    ("Temple of Romulus", "GB1"),
    ("Basilica of Maxentius", "B"),
}
# The heuristic's seed-0 run on persistent_odd_cycle.
PERSISTENT_HEURISTIC_SEED0 = (74, 3)
# Minimum first-round removal for persistent_odd_cycle, proved with an
# external MILP solver; an exact certificate must match it.
PERSISTENT_MINIMUM = 12


@dataclass(frozen=True)
class Table:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def has(self, g: int, m: int) -> bool:
        return bool(self.rows[g] >> m & 1)

    def incidence(self) -> set[tuple[int, int]]:
        return {
            (g, m)
            for g, row in enumerate(self.rows)
            for m in range(len(self.attributes))
            if row >> m & 1
        }


def parse_table(text: str) -> Table:
    """Read a Burmeister .cxt text: ``B``, optional title, counts, names, rows."""
    lines = text.split("\n")
    if lines[0] != "B":
        raise ValueError("not a .cxt text")
    pos = 1 if lines[1].strip().isdigit() else 2  # skip the optional title
    n_obj, n_att = int(lines[pos]), int(lines[pos + 1])
    body = [line for line in lines[pos + 2 :] if line.strip()]
    objects = tuple(body[:n_obj])
    attributes = tuple(body[n_obj : n_obj + n_att])
    rows = []
    for line in body[n_obj + n_att : n_obj + n_att + n_obj]:
        if len(line) != n_att or set(line) - {"X", "."}:
            raise ValueError(f"bad row {line!r}")
        rows.append(sum(1 << m for m, cell in enumerate(line) if cell == "X"))
    if len(rows) != n_obj:
        raise ValueError("row count differs from the header")
    return Table(objects, attributes, tuple(rows))


def parse_poset(text: str) -> tuple[tuple[str, ...], set[tuple[int, int]]]:
    """Elements and the strict relation pairs of a poset JSON text."""
    payload = json.loads(text)
    elements = tuple(payload["elements"])
    index = {name: i for i, name in enumerate(elements)}
    return elements, {(index[a], index[b]) for a, b in payload["relations"]}


def _rows_of(pairs, n_objects: int) -> list[int]:
    rows = [0] * n_objects
    for g, m in pairs:
        rows[g] |= 1 << m
    return rows


def check_ferrers(pairs, n_objects: int) -> list[str]:
    """The rows of a Ferrers relation form a chain under inclusion."""
    rows = sorted(_rows_of(pairs, n_objects), key=int.bit_count)
    for small, big in zip(rows, rows[1:]):
        if small & ~big:
            return ["factor rows are not an inclusion chain"]
    return []


def check_factorization(table: Table, f1, f2, removed) -> list[str]:
    """Both factors Ferrers, covering exactly the incidence minus removed."""
    incidence = table.incidence()
    f1, f2, removed = set(f1), set(f2), set(removed)
    problems = []
    if not removed <= incidence:
        problems.append("removed holds a non-incidence")
    if f1 | f2 != incidence - removed:
        problems.append("factors do not cover exactly incidence minus removed")
    for label, factor in (("f1", f1), ("f2", f2)):
        problems += [f"{label}: {p}" for p in check_ferrers(factor, len(table.rows))]
    return problems


def incompatible(table: Table, a, b) -> bool:
    (g, m), (h, n) = a, b
    return (
        table.has(g, m)
        and table.has(h, n)
        and not table.has(g, n)
        and not table.has(h, m)
    )


def check_odd_walk(table: Table, walk) -> list[str]:
    """A "no" witness: an odd closed walk of pairwise incompatible incidences."""
    walk = [tuple(p) for p in walk]
    if len(walk) % 2 == 0:
        return [f"witness has even length {len(walk)}"]
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if not incompatible(table, a, b):
            return [f"witness step {a} -> {b} is not an incompatible pair"]
    return []


def isolated_incidences(table: Table) -> set[tuple[int, int]]:
    """Incidences compatible with every other incidence.

    (g, m) clashes with some (h, n) exactly when an object h lacking m
    has an attribute that g lacks.
    """
    out = set()
    for g, row in enumerate(table.rows):
        for m in range(len(table.attributes)):
            if row >> m & 1 and all(
                other >> m & 1 or not other & ~row for other in table.rows
            ):
                out.add((g, m))
    return out


def check_axes(f1, f2, axes) -> list[str]:
    """The biplot axes must give back the covered relation."""
    covered = set()
    for axis in axes:
        for g, position in enumerate(axis["positions"]):
            for group in axis["groups"][:position]:
                covered.update((g, m) for m in group)
    if covered != set(f1) | set(f2):
        return ["biplot axes do not reconstruct the factors"]
    return []


def check_realizer(n: int, relations, realizer, k: int) -> list[str]:
    """Two linear orders whose intersection contains the input order,
    with ``k`` counting the comparabilities the intersection adds."""
    problems = []
    positions = []
    for sequence in realizer:
        if sorted(sequence) != list(range(n)):
            return ["realizer sequence is not a permutation"]
        positions.append({v: p for p, v in enumerate(sequence)})
    meet = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and all(pos[a] < pos[b] for pos in positions)
    }
    if not set(relations) <= meet:
        problems.append("realizer intersection misses an input comparability")
    if len(meet) - len(relations) != k:
        problems.append(f"k={k} but the realizer adds {len(meet) - len(relations)}")
    return problems


def check_outcome(case, outcome: dict) -> list[str]:
    """Every problem with one operation's outcome; empty means verified."""
    verdict = outcome["verdict"]
    if verdict == "error":
        return [outcome["error"]]
    if case.op == "extend":
        if verdict == "budget":
            return [] if case.probe else ["budget ran out"]
        elements, relations = parse_poset(case.text)
        return check_realizer(
            len(elements), relations, outcome["realizer"], outcome["k"]
        )
    table = parse_table(case.text)
    if case.op == "recognize":
        return _check_recognize(table, outcome)
    if verdict == "budget":
        return [] if case.probe else ["budget ran out"]
    problems = check_factorization(
        table, outcome["f1"], outcome["f2"], outcome["removed"]
    )
    problems += outcome["violations"]
    return problems + _check_pins(case, table, outcome)


def _check_recognize(table: Table, outcome: dict) -> list[str]:
    problems = list(outcome["violations"])
    if set(map(tuple, outcome["isolated"])) != isolated_incidences(table):
        problems.append("check report lists the wrong isolated incidences")
    if outcome["verdict"] == "no":
        if outcome["witness"] is None:
            return problems + ["a 'no' without an odd cycle"]
        return problems + check_odd_walk(table, outcome["witness"])
    if outcome["witness"] is not None:
        problems.append("factorized although check found an odd cycle")
    if outcome["removed"]:
        problems.append("exact factorization removed incidences")
    problems += check_factorization(table, outcome["f1"], outcome["f2"], ())
    problems += check_axes(outcome["f1"], outcome["f2"], outcome["axes"])
    if outcome["render_bytes"] <= 0:
        problems.append("empty rendering")
    return problems


def _check_pins(case, table: Table, outcome: dict) -> list[str]:
    if case.name == "monuments" and case.mode == "exact":
        removed = {
            (table.objects[g], table.attributes[m]) for g, m in outcome["removed"]
        }
        if removed != MONUMENTS_EXACT_REMOVED or not outcome["certificate"]:
            return [f"monuments exact removal {sorted(removed)} is not the pinned pair"]
    if case.name == "persistent_odd_cycle" and case.mode == "heuristic" and case.seed == 0:
        found = (len(outcome["removed"]), outcome["rounds"])
        if found != PERSISTENT_HEURISTIC_SEED0:
            return [f"seed-0 heuristic gave (removed, rounds) {found}, pinned {PERSISTENT_HEURISTIC_SEED0}"]
    if case.name == "persistent_odd_cycle" and outcome["certificate"]:
        if len(outcome["removed"]) != PERSISTENT_MINIMUM:
            return [
                f"certified removal {len(outcome['removed'])} differs from "
                f"the known minimum {PERSISTENT_MINIMUM}"
            ]
    return []
