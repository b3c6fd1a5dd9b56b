"""Formal contexts and the Burmeister .cxt file format.

A formal context is a triple (G, M, I) of objects, attributes and a
boolean incidence relation between them.  Incidence is stored as one
attribute bitmask per object, so derivation operators reduce to word
parallel intersections.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .bitset import bits, transpose
from .errors import (
    CountMismatch,
    DuplicateName,
    IllegalCharacter,
    IndexOutOfRange,
    MalformedHeader,
    PairNotIncident,
)


class IncidencePair(NamedTuple):
    """A single cell of the incidence relation, by 0-based indices."""

    object_index: int
    attribute_index: int


def _check_names(kind: str, names: tuple[str, ...]) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateName(f"duplicate {kind} name: {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class FormalContext:
    """An immutable formal context.

    Attributes
    ----------
    objects : tuple of str
        Object names in declaration order, pairwise distinct.
    attributes : tuple of str
        Attribute names in declaration order, pairwise distinct.
    rows : tuple of int
        One bitmask per object; bit j is set iff the object has
        attribute j.
    title : str or None
        Optional title carried by the .cxt format.  Presentation
        metadata only, excluded from equality.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]
    title: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_names("object", self.objects)
        _check_names("attribute", self.attributes)
        if len(self.rows) != len(self.objects):
            raise CountMismatch(
                f"{len(self.objects)} objects but {len(self.rows)} incidence rows"
            )
        full = (1 << len(self.attributes)) - 1
        for g, row in enumerate(self.rows):
            if row & ~full:
                raise CountMismatch(f"row {g} sets bits beyond the attribute count")

    @classmethod
    def from_strings(
        cls,
        objects: Iterable[str],
        attributes: Iterable[str],
        rows: Iterable[str],
        title: str | None = None,
    ) -> "FormalContext":
        """Build from rows written in the 'X./x' cell notation."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        masks = []
        for text in rows:
            mask = 0
            if len(text) != len(attributes):
                raise CountMismatch(
                    f"row {text!r} has {len(text)} cells, expected {len(attributes)}"
                )
            for j, cell in enumerate(text):
                if cell in "Xx":
                    mask |= 1 << j
                elif cell != ".":
                    raise IllegalCharacter(f"illegal cell character {cell!r}")
            masks.append(mask)
        return cls(objects, attributes, tuple(masks), title)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def incidence_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def has(self, g: int, m: int) -> bool:
        if not (0 <= g < self.n_objects and 0 <= m < self.n_attributes):
            raise IndexOutOfRange(f"pair ({g}, {m}) outside the context")
        return bool(self.rows[g] >> m & 1)

    def pairs(self) -> list[IncidencePair]:
        """All incidences in lexicographic (object, attribute) order."""
        return [
            IncidencePair(g, m)
            for g, row in enumerate(self.rows)
            for m in bits(row)
        ]

    def row_string(self, g: int) -> str:
        return "".join(
            "X" if self.rows[g] >> m & 1 else "." for m in range(self.n_attributes)
        )

    def transpose(self) -> "FormalContext":
        cols = transpose(self.rows, self.n_attributes)
        return FormalContext(self.attributes, self.objects, tuple(cols), self.title)


def derive(ctx: FormalContext, side: str, subset: Iterable[int]) -> frozenset[int]:
    """Derivation operator: common attributes of objects, or dually.

    ``side`` says which kind of indices ``subset`` holds: ``"objects"``
    returns the attributes shared by all of them, ``"attributes"``
    returns the objects having all of them.  The empty subset derives to
    the full other side.
    """
    indices = list(subset)
    if side == "objects":
        for g in indices:
            if not 0 <= g < ctx.n_objects:
                raise IndexOutOfRange(f"object index {g} outside the context")
        mask = (1 << ctx.n_attributes) - 1
        for g in indices:
            mask &= ctx.rows[g]
        return frozenset(bits(mask))
    if side == "attributes":
        for m in indices:
            if not 0 <= m < ctx.n_attributes:
                raise IndexOutOfRange(f"attribute index {m} outside the context")
        amask = 0
        for m in indices:
            amask |= 1 << m
        return frozenset(g for g, row in enumerate(ctx.rows) if row & amask == amask)
    raise ValueError(f"side must be 'objects' or 'attributes', got {side!r}")


def complement(ctx: FormalContext) -> FormalContext:
    """The context with every incidence flipped."""
    full = (1 << ctx.n_attributes) - 1
    return FormalContext(
        ctx.objects, ctx.attributes, tuple(row ^ full for row in ctx.rows)
    )


def remove_incidences(
    ctx: FormalContext, pairs: Iterable[tuple[int, int]]
) -> FormalContext:
    """A copy of the context with the given incidences deleted."""
    rows = list(ctx.rows)
    for g, m in pairs:
        if not (0 <= g < ctx.n_objects and 0 <= m < ctx.n_attributes):
            raise IndexOutOfRange(f"pair ({g}, {m}) outside the context")
        bit = 1 << m
        if not rows[g] & bit:
            raise PairNotIncident(f"pair ({g}, {m}) is not an incidence")
        rows[g] ^= bit
    return FormalContext(ctx.objects, ctx.attributes, tuple(rows), ctx.title)


def _int_line(line: str) -> int | None:
    text = line.strip()
    if text.isdigit():
        return int(text)
    return None


def parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister .cxt data.

    Expected layout: a ``B`` line, an optional title line, the object
    and attribute counts, a separating blank line, the object names, the
    attribute names, and one ``X``/``.`` row per object.  Whitespace-only
    lines between sections are tolerated.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    pos = 0
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines) or lines[pos].strip() != "B":
        raise MalformedHeader("first nonblank line must be 'B'")
    pos += 1
    if pos >= len(lines):
        raise MalformedHeader("missing object and attribute counts")
    # The title line is optional; a line that is not a bare integer is
    # taken to be the title (possibly empty).
    title: str | None = None
    if _int_line(lines[pos]) is None:
        title = lines[pos].rstrip()
        pos += 1
    counts = []
    for _ in range(2):
        if pos >= len(lines) or _int_line(lines[pos]) is None:
            raise MalformedHeader("object and attribute counts must be integers")
        counts.append(_int_line(lines[pos]))
        pos += 1
    n_objects, n_attributes = counts

    def next_content_line() -> str:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise CountMismatch("file ends before all declared lines were read")
        line = lines[pos].rstrip()
        pos += 1
        return line

    objects = tuple(next_content_line().strip() for _ in range(n_objects))
    attributes = tuple(next_content_line().strip() for _ in range(n_attributes))
    if any(not name for name in objects) or any(not name for name in attributes):
        raise MalformedHeader("object and attribute names must be nonempty")
    rows = []
    for _ in range(n_objects):
        # zero-width rows would be blank lines, so they are not written
        line = next_content_line() if n_attributes else ""
        if len(line) != n_attributes:
            raise CountMismatch(
                f"row {line!r} has {len(line)} cells, expected {n_attributes}"
            )
        mask = 0
        for j, cell in enumerate(line):
            if cell == "X":
                mask |= 1 << j
            elif cell != ".":
                raise IllegalCharacter(f"illegal cell character {cell!r}")
        rows.append(mask)
    while pos < len(lines):
        if lines[pos].strip():
            raise CountMismatch(f"unexpected trailing content: {lines[pos]!r}")
        pos += 1
    return FormalContext(objects, attributes, tuple(rows), title)


def serialize_cxt(ctx: FormalContext) -> str:
    """Serialize to .cxt.  Round-trips through parse_cxt."""
    lines = ["B"]
    if ctx.title is not None:
        lines.append(ctx.title)
    lines.append(str(ctx.n_objects))
    lines.append(str(ctx.n_attributes))
    lines.append("")
    lines.extend(ctx.objects)
    lines.extend(ctx.attributes)
    if ctx.n_attributes:
        for g in range(ctx.n_objects):
            lines.append(ctx.row_string(g))
    return "\n".join(lines) + "\n"


def context_to_json(ctx: FormalContext) -> str:
    """A JSON mirror of the .cxt content, for tooling."""
    payload = {
        "title": ctx.title,
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "rows": [ctx.row_string(g) for g in range(ctx.n_objects)],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def is_string_list(value: object) -> bool:
    """Whether a parsed JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def context_from_json(text: str) -> FormalContext:
    try:
        payload = json.loads(text)
        objects = payload["objects"]
        attributes = payload["attributes"]
        rows = payload["rows"]
        title = payload.get("title")
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MalformedHeader(f"invalid context JSON: {exc}") from exc
    for key, value in (
        ("objects", objects),
        ("attributes", attributes),
        ("rows", rows),
    ):
        if not is_string_list(value):
            raise MalformedHeader(
                f"invalid context JSON: {key!r} must be a list of strings"
            )
    if title is not None and not isinstance(title, str):
        raise MalformedHeader("invalid context JSON: 'title' must be a string")
    if len(rows) != len(objects):
        raise CountMismatch(f"{len(objects)} objects but {len(rows)} rows")
    return FormalContext.from_strings(objects, attributes, rows, title)
