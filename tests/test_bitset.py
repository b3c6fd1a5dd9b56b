"""The bitset kernels that replace per-bit Python loops."""
import random

import pytest

from ordfactor.bitset import row_pairs, transpose
from ordfactor.maximal import _coloring

from conftest import reference_transpose


def _matrices():
    rng = random.Random(0)
    for width in range(71):
        for n_rows in (0, 1, 7, 8, 9, 100):
            density = rng.random()
            yield [
                sum(1 << j for j in range(width) if rng.random() < density)
                for _ in range(n_rows)
            ], width
        yield [0] * 5, width
    for width in (1, 8, 17, 70):
        yield [rng.getrandbits(width) for _ in range(5000)], width
    # rows and columns past Python's 4,300-digit limit on int parsing
    yield [rng.getrandbits(4500) for _ in range(3)], 4500
    yield [0, 1 << 4400, (1 << 4500) - 1], 4500


def test_transpose_matches_the_reference_loop():
    checked = 0
    for rows, width in _matrices():
        assert transpose(rows, width) == reference_transpose(rows, width), width
        checked += 1
    assert checked == 71 * 7 + 6


def _reference_row_pairs(rows):
    return [
        (i, j)
        for i, row in enumerate(rows)
        for j in range(row.bit_length())
        if row >> j & 1
    ]


def test_row_pairs_match_the_reference_double_loop():
    """Row-major order, bits ascending within a row, in value and order:
    no rows, all-zero rows, bits past 2,000 and seeded random rows."""
    rng = random.Random(0)
    wide = 1 << 2047 | 1 << 2000 | 5
    cases = [[], [0, 0, 0], [0, wide, 0, 1 << 4500]]
    for _ in range(300):
        width = rng.randrange(1, 80)
        cases.append([rng.getrandbits(width) for _ in range(rng.randrange(12))])
    for rows in cases:
        assert list(row_pairs(rows)) == _reference_row_pairs(rows), rows
    assert list(row_pairs([0, wide])) == [(1, 0), (1, 2), (1, 2000), (1, 2047)]
    assert list(row_pairs(iter([6, 1]))) == [(0, 1), (0, 2), (1, 0)]


@pytest.mark.parametrize(
    "rows, width",
    [
        ([1], 0),
        ([0, 1 << 9], 9),
        ([1 << 16], 9),
        ([-1], 4),
    ],
)
def test_transpose_refuses_a_bit_at_or_above_width(rows, width):
    with pytest.raises(ValueError):
        transpose(rows, width)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000, 5000])
def test_coloring_is_n_randrange_calls(n):
    """One bulk draw gives the coloring of n ``randrange(2)`` calls and
    leaves the generator where those calls leave it, so each restart of
    the heuristic sees the stream it saw one call at a time."""
    for seed in range(200):
        calls, bulk = random.Random(seed), random.Random(seed)
        expected = sum(1 << v for v in range(n) if calls.randrange(2))
        assert _coloring(bulk, n) == expected, seed
        assert bulk.getstate() == calls.getstate(), seed
