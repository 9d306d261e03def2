"""Small GF(2) helpers on int-encoded bit vectors.

A vector in GF(2)^n is an int in 0..2^n-1.  A matrix is a tuple of n row
bitmasks.  Coordinates are written (z_0, ..., z_{n-1}) with z_{n-1} the
least-significant bit, so the int value doubles as the point index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dot(u: int, v: int) -> int:
    """GF(2) dot product of two bit vectors."""
    return (u & v).bit_count() & 1


def parity(x: np.ndarray, n: int) -> np.ndarray:
    """Parity of the low n bits of each entry of a nonnegative integer array.

    parity(u & v, n) is the GF(2) dot product of u and v, element-wise.
    """
    out = x & 1
    for k in range(1, n):
        out ^= (x >> k) & 1
    return out


def mat_vec(rows: Sequence[int], v: int) -> int:
    """Apply a GF(2) matrix (row bitmasks, row i = z_i output) to v."""
    n = len(rows)
    out = 0
    for i, row in enumerate(rows):
        if dot(row, v):
            out |= 1 << (n - 1 - i)
    return out


def rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) via Gaussian elimination on row bitmasks."""
    work = [r for r in rows if r]
    r = 0
    while work:
        pivot = work.pop()
        if pivot == 0:
            continue
        r += 1
        high = pivot.bit_length() - 1
        work = [(w ^ pivot) if (w >> high) & 1 else w for w in work]
        work = [w for w in work if w]
    return r


def is_invertible(rows: Sequence[int]) -> bool:
    return rank(rows) == len(rows)


def random_invertible(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    """Draw a uniformly random invertible n x n GF(2) matrix by rejection."""
    while True:
        rows = tuple(int(x) for x in rng.integers(0, 2**n, size=n))
        if is_invertible(rows):
            return rows
