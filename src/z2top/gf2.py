"""Small GF(2) helpers on int-encoded bit vectors.

A vector in GF(2)^n is an int in 0..2^n-1.  A matrix is a tuple of n row
bitmasks.  Coordinates are written (z_0, ..., z_{n-1}) with z_{n-1} the
least-significant bit, so the int value doubles as the point index.
"""

from __future__ import annotations

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

