"""Formal contexts and the Burmeister .cxt file format.

A formal context is a triple (G, M, I) of objects, attributes and a
boolean incidence relation between them.  Incidence is stored as one
attribute bitmask per object, so derivation operators reduce to word
parallel intersections.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .bitset import bits, transpose
from .errors import (
    CountMismatch,
    DuplicateName,
    IllegalCharacter,
    IndexOutOfRange,
    MalformedHeader,
    PairNotIncident,
)


# A row string is its mask's base-2 numeral reversed, so that cell j is
# bit j; these tables map its cells to digits and back in one translate.
_NOT_CELLS = str.maketrans("", "", "Xx.")
_DIGIT_OF_CELL = str.maketrans("Xx.", "110")
_CELL_OF_DIGIT = str.maketrans("10", "X.")


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
        """Build from rows written as strings in the 'X./x' cell notation.

        Cell j of a row string is attribute j: ``X`` or ``x`` for an
        incidence, ``.`` for none.  Rows are checked in order: a row of
        the wrong length raises :class:`CountMismatch`, and a row holding
        any other character raises :class:`IllegalCharacter` naming the
        first such cell in it.
        """
        objects = tuple(objects)
        attributes = tuple(attributes)
        masks = []
        for text in rows:
            if len(text) != len(attributes):
                raise CountMismatch(
                    f"row {text!r} has {len(text)} cells, expected {len(attributes)}"
                )
            # checked first, since int() also reads "_", spaces and
            # Unicode digits such as "٣"
            illegal = text.translate(_NOT_CELLS)
            if illegal:
                raise IllegalCharacter(f"illegal cell character {illegal[0]!r}")
            masks.append(int(text[::-1].translate(_DIGIT_OF_CELL), 2) if text else 0)
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
        """Row g in the 'X.' cell notation, cell j for attribute j."""
        if not self.attributes:
            return ""
        numeral = format(self.rows[g], f"0{self.n_attributes}b")
        return numeral[::-1].translate(_CELL_OF_DIGIT)


def derive(ctx: FormalContext, side: str, subset: Iterable[int]) -> frozenset[int]:
    """Derivation operator: common attributes of objects, or dually.

    ``side`` says which kind of indices ``subset`` holds: ``"objects"``
    returns the attributes shared by all of them, ``"attributes"``
    returns the objects having all of them.  The empty subset derives to
    the full other side.
    """
    indices = list(subset)
    if side == "objects":
        rows, width = ctx.rows, ctx.n_attributes
    elif side == "attributes":
        rows, width = transpose(ctx.rows, ctx.n_attributes), ctx.n_objects
    else:
        raise ValueError(f"side must be 'objects' or 'attributes', got {side!r}")
    for i in indices:
        if not 0 <= i < len(rows):
            raise IndexOutOfRange(f"{side[:-1]} index {i} outside the context")
    mask = (1 << width) - 1
    for i in indices:
        mask &= rows[i]
    return frozenset(bits(mask))


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
    # isdigit would also pass superscripts such as "²", which int rejects
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        return None


def parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister .cxt data.

    Expected layout: a ``B`` line, an optional title line, the object
    and attribute counts, a separating blank line, the object names, the
    attribute names, and one row per object of ``X`` (or ``x``) for an
    incidence and ``.`` for none; without attributes there are no rows.
    Whitespace-only lines after the counts are skipped.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    pos = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if pos == len(lines) or lines[pos].strip() != "B":
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
    counts = [_int_line(line) for line in lines[pos : pos + 2]]
    if len(counts) < 2 or None in counts:
        raise MalformedHeader("object and attribute counts must be integers")
    n_objects, n_attributes = counts
    names = n_objects + n_attributes
    content = [line for line in lines[pos + 2 :] if line.strip()]
    # zero-width rows would be blank lines, so they are not written
    end = names + n_objects if n_attributes else names

    def rows() -> Iterator[str]:
        if len(content) >= names:
            for line in content[names:end] if n_attributes else [""] * n_objects:
                yield line.rstrip()
        # after the last row, so that a bad row is reported first
        if len(content) < end:
            raise CountMismatch("file ends before all declared lines were read")
        if len(content) > end:
            raise CountMismatch(f"unexpected trailing content: {content[end]!r}")

    objects = (name.strip() for name in content[:n_objects])
    attributes = (name.strip() for name in content[n_objects:names])
    return FormalContext.from_strings(objects, attributes, rows(), title)


def serialize_cxt(ctx: FormalContext) -> str:
    """Serialize to .cxt.  Round-trips through parse_cxt.

    Raises :class:`MalformedHeader` for a name or title that parse_cxt
    would read back differently: an empty name, a name with leading or
    trailing whitespace, a line break in a name or the title, a title
    that is a bare integer and a title with trailing whitespace.
    """
    for name in ctx.objects + ctx.attributes:
        if not name or name != name.strip() or "\n" in name or "\r" in name:
            raise MalformedHeader(f"name {name!r} cannot be written to .cxt")
    title = ctx.title or ""
    if "\n" in title or "\r" in title or title != title.rstrip() or (
        _int_line(title) is not None
    ):
        raise MalformedHeader(f"title {title!r} cannot be written to .cxt")
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


def json_object(text: str, kind: str, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object that has ``keys``; any failure, even nesting
    too deep, an integer past the digit limit or an escaped lone
    surrogate that UTF-8 cannot encode, is MalformedHeader."""
    try:
        payload = json.loads(text)
        for key in keys:
            payload[key]  # a missing key, or a payload that is no object
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError, TypeError, KeyError) as exc:
        raise MalformedHeader(f"invalid {kind} JSON: {exc}") from exc
    return payload


def context_from_json(text: str) -> FormalContext:
    keys = ("objects", "attributes", "rows")
    payload = json_object(text, "context", keys)
    for key in keys:
        if not is_string_list(payload[key]):
            raise MalformedHeader(
                f"invalid context JSON: {key!r} must be a list of strings"
            )
    objects, rows = payload["objects"], payload["rows"]
    title = payload.get("title")
    if title is not None and not isinstance(title, str):
        raise MalformedHeader("invalid context JSON: 'title' must be a string")
    if len(rows) != len(objects):
        raise CountMismatch(f"{len(objects)} objects but {len(rows)} rows")
    return FormalContext.from_strings(objects, payload["attributes"], rows, title)
