"""Python integers as bitsets: the one toolkit every module shares.

A set of small nonnegative integers is stored as an ``int`` whose bit i
is set iff i is a member; a relation or graph is a sequence of such
rows.
"""
from __future__ import annotations

from typing import Iterator, Sequence

# _DIGIT[b] maps a byte to b"1" when its bit b is set, else to b"0"
_DIGIT = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def bits(mask: int) -> Iterator[int]:
    """The members of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The transposed bit matrix: bit i of result row j is bit j of row i.

    ``rows`` must be nonnegative, and ``width``, the number of result
    rows, must exceed every bit index they use: a row of ``2**width`` or
    more raises ValueError.  Each row is laid out as ``(width + 7) // 8``
    little-endian bytes, so byte ``j // 8`` of every row, read by its
    bit ``j % 8`` as a base-2 digit from the last row to the first, is
    result row j.  Rows of at most 8 bits are one byte each, laid out
    by a single ``bytes`` call.
    """
    if not rows:
        return [0] * width
    if max(rows) >> width:
        raise ValueError(f"rows must be nonnegative and below 2**{width}")
    size = (width + 7) // 8
    if size == 1:
        raw = bytes(rows)
    else:
        raw = b"".join([row.to_bytes(size, "little") for row in rows])
    return [
        int(raw[j >> 3 :: size].translate(_DIGIT[j & 7])[::-1], 2)
        for j in range(width)
    ]
