"""Biplots for two-factorizations.

Each Ferrers factor induces one axis.  Its distinct nonempty rows,
sorted by size, form a chain; each step adds one group of attributes,
largest extent first, and an object sits at the rank of its row in the
chain, 0 for an empty row.  Two axes drawn against each other place
every object at an integer coordinate pair from which the covered
incidence relation can be read back off.
"""
from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable

from .bitset import bits
from .context import FormalContext, IncidencePair
from .errors import MalformedHeader, NotFerrers, UnsupportedFormat
from .twofactor import FactorizationResult, FerrersFactor, is_ferrers

_FORMATS = ("csv", "svg", "tikz")


@dataclass(frozen=True)
class FactorAxis:
    """One axis of a biplot.

    ``groups`` holds attribute index tuples ordered from largest to
    smallest extent, ``labels`` the matching comma-joined attribute
    names, and ``positions`` one coordinate per object: the number of
    leading groups whose extent contains the object.
    """

    objects: tuple[str, ...]
    groups: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    positions: tuple[int, ...]


def factor_axis(ctx: FormalContext, pairs: Iterable | FerrersFactor) -> FactorAxis:
    """Build the axis of one Ferrers factor of ``ctx``.

    Group i holds the attributes that step i of the row chain adds to
    step i - 1.  Attributes without incidences in the factor do not
    appear on the axis.  Raises NotFerrers when the pairs are no
    staircase, and what :func:`is_ferrers` raises when one is no
    incidence.
    """
    factor = pairs if isinstance(pairs, FerrersFactor) else FerrersFactor(pairs)
    if not is_ferrers(ctx, factor):
        raise NotFerrers("axis requires a staircase-shaped factor")
    rows = factor.rows_in(ctx)[0]
    chain = sorted({row for row in rows if row}, key=int.bit_count)
    groups = tuple(
        tuple(bits(row & ~below)) for below, row in zip([0, *chain], chain)
    )
    labels = tuple(
        ",".join(ctx.attributes[m] for m in group) for group in groups
    )
    rank = {row: i for i, row in enumerate(chain, start=1)}
    positions = tuple(rank.get(row, 0) for row in rows)
    return FactorAxis(tuple(ctx.objects), groups, labels, positions)


def biplot_axes(
    ctx: FormalContext, result: FactorizationResult
) -> tuple[FactorAxis, FactorAxis]:
    """Both axes of a factorization, first factor on the x axis."""
    return factor_axis(ctx, result.f1), factor_axis(ctx, result.f2)


def reconstruct(
    axes: tuple[FactorAxis, FactorAxis]
) -> frozenset[IncidencePair]:
    """Read the covered incidence relation back off the two axes."""
    pairs: set[IncidencePair] = set()
    for axis in axes:
        for g, position in enumerate(axis.positions):
            for group in axis.groups[:position]:
                for m in group:
                    pairs.add(IncidencePair(g, m))
    return frozenset(pairs)


def render(
    axes: tuple[FactorAxis, FactorAxis],
    fmt: str = "svg",
    title: str | None = None,
) -> str:
    """Render the biplot as ``csv``, ``svg`` or ``tikz`` text."""
    if fmt not in _FORMATS:
        raise UnsupportedFormat(
            f"unknown format {fmt!r}, expected one of {', '.join(_FORMATS)}"
        )
    if axes[0].objects != axes[1].objects:
        raise ValueError("axes describe different object sets")
    if fmt == "csv":
        return _render_csv(axes)
    if fmt == "tikz":
        return _render_tikz(axes, title)
    return _render_svg(axes, title)


def _render_csv(axes: tuple[FactorAxis, FactorAxis]) -> str:
    # each comment stays on one line; the rows are quoted as in RFC 4180,
    # and so is a name starting with "#", which a reader that skips the
    # comment lines would skip too
    lines = [
        f"#axis{i}: "
        + ";".join(axis.labels).replace("\r", r"\r").replace("\n", r"\n")
        for i, axis in enumerate(axes, start=1)
    ]
    lines.append("object,x,y")
    for g, name in enumerate(axes[0].objects):
        if name.startswith("#") or any(ch in name for ch in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        lines.append(f"{name},{axes[0].positions[g]},{axes[1].positions[g]}")
    return "\n".join(lines) + "\n"


def _points(
    axes: tuple[FactorAxis, FactorAxis]
) -> list[tuple[int, int, float, float, str]]:
    """One marker per object.

    Objects sharing a coordinate are spread on a small circle at
    deterministic angles so every marker stays visible.
    """
    spots: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for g, name in enumerate(axes[0].objects):
        key = (axes[0].positions[g], axes[1].positions[g])
        spots.setdefault(key, []).append((g, name))
    out = []
    for (x, y), members in sorted(spots.items()):
        for k, (_, name) in enumerate(members):
            if len(members) == 1:
                dx = dy = 0.0
            else:
                angle = 2 * math.pi * k / len(members)
                dx, dy = math.cos(angle), math.sin(angle)
            out.append((x, y, dx, dy, name))
    return out


_STEP = 90
_MARGIN = 150
_JITTER = 10.0
# characters outside the XML 1.0 Char production
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _render_svg(
    axes: tuple[FactorAxis, FactorAxis], title: str | None
) -> str:
    for text in (title or "", *axes[0].objects, *axes[0].labels, *axes[1].labels):
        if _NOT_XML.search(text):
            raise MalformedHeader(f"{text!r} holds a character XML forbids")
    nx, ny = len(axes[0].groups), len(axes[1].groups)
    width = 2 * _MARGIN + _STEP * max(nx, 1)
    height = 2 * _MARGIN + _STEP * max(ny, 1)

    def sx(x: int) -> float:
        return _MARGIN + x * _STEP

    def sy(y: int) -> float:
        return height - _MARGIN - y * _STEP

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    ET.SubElement(
        svg, "rect", x="0", y="0",
        width=str(width), height=str(height), fill="white",
    )
    style = ET.SubElement(svg, "style")
    style.text = "text { font-family: sans-serif; font-size: 12px; }"
    if title:
        caption = ET.SubElement(
            svg, "text", x=str(width / 2), y="24",
            attrib={"text-anchor": "middle", "font-weight": "bold"},
        )
        caption.text = title
    for element, x1, y1, x2, y2 in (
        ("x", sx(0), sy(0), sx(max(nx, 1)), sy(0)),
        ("y", sx(0), sy(0), sx(0), sy(max(ny, 1))),
    ):
        ET.SubElement(
            svg, "line",
            x1=str(x1), y1=str(y1), x2=str(x2), y2=str(y2),
            stroke="black", attrib={"stroke-width": "1.5"},
        )
    for i, label in enumerate(axes[0].labels, start=1):
        tick = ET.SubElement(
            svg, "text", x=str(sx(i)), y=str(sy(0) + 20),
            attrib={"text-anchor": "middle"},
        )
        tick.text = label
    for j, label in enumerate(axes[1].labels, start=1):
        tick = ET.SubElement(
            svg, "text", x=str(sx(0) - 10), y=str(sy(j) + 4),
            attrib={"text-anchor": "end"},
        )
        tick.text = label
    for x, y, dx, dy, label in _points(axes):
        cx = sx(x) + _JITTER * dx
        cy = sy(y) - _JITTER * dy
        ET.SubElement(
            svg, "circle", cx=f"{cx:g}", cy=f"{cy:g}", r="4",
            fill="black",
        )
        text = ET.SubElement(
            svg, "text", x=f"{cx + 8:g}", y=f"{cy - 8:g}",
        )
        text.text = label
    return ET.tostring(svg, encoding="unicode") + "\n"


def _render_tikz(
    axes: tuple[FactorAxis, FactorAxis], title: str | None
) -> str:
    nx, ny = max(len(axes[0].groups), 1), max(len(axes[1].groups), 1)
    lines = [
        r"\documentclass[tikz,border=8pt]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[x=1.6cm,y=1.2cm]",
        rf"\draw[->] (0,0) -- ({nx}.4,0);",
        rf"\draw[->] (0,0) -- (0,{ny}.4);",
    ]
    for i, label in enumerate(axes[0].labels, start=1):
        lines.append(
            rf"\draw ({i},.08) -- ({i},-.08)"
            rf" node[below] {{{_tex(label)}}};"
        )
    for j, label in enumerate(axes[1].labels, start=1):
        lines.append(
            rf"\draw (.05,{j}) -- (-.05,{j})"
            rf" node[left] {{{_tex(label)}}};"
        )
    for x, y, dx, dy, label in _points(axes):
        px = round(x + 0.12 * dx, 3)
        py = round(y + 0.12 * dy, 3)
        lines.append(
            rf"\fill ({px},{py}) circle (2pt)"
            rf" node[above right] {{{_tex(label)}}};"
        )
    if title:
        lines.append(
            rf"\node[above] at ({nx / 2},{ny}.6) {{{_tex(title)}}};"
        )
    lines += [r"\end{tikzpicture}", r"\end{document}"]
    return "\n".join(lines) + "\n"


_TEX = str.maketrans(
    {
        **{ch: "\\" + ch for ch in "#$%&_{}"},
        "\\": r"\textbackslash{}",
        "^": r"\textasciicircum{}",
        "~": r"\textasciitilde{}",
    }
)


def _tex(text: str) -> str:
    return text.translate(_TEX)
