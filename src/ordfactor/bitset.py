"""Python integers as bitsets: the one toolkit every module shares.

A set of small nonnegative integers is stored as an ``int`` whose bit i
is set iff i is a member; a relation or graph is a sequence of such
rows.
"""
from __future__ import annotations

from typing import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """The members of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The transposed bit matrix: bit i of result row j is bit j of row i.

    ``width`` is the number of result rows and must exceed every bit
    index used in ``rows``.
    """
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return cols
