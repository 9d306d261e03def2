"""Points, lines and hyperplanes of the binary projective space on 2^n - 1 points.

The canonical labelling is arithmetic: point p (1 <= p <= 2^n - 1) is the
nonzero bit vector whose int value is p, with coordinates (z_0, ..., z_{n-1})
and z_{n-1} the least-significant bit.  Under it, three points form a line
exactly when their indices XOR to zero, so line generation is branch-free.

Incidence is plain ints.  ``lines(n)`` gives each line as a sorted triple
(p, q, p ^ q) of point indices, and ``hyperplanes(n)[v - 1]`` is the sorted
tuple of points orthogonal to the normal v.  Both are read off two integer
arrays, which also feed the JSON and DOT text through one template kernel:
``geometry_json(n)`` and ``incidence_dot(n)`` return the documents as text.

Classical labellings from the literature (the octonion triples for n = 3 and
a classical listing of the fifteen 7-point planes for n = 4) are shipped as
fixtures and related to the canonical labelling by a relabelling search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError

#: Largest n for which lines/hyperplanes are materialized (counts grow as 4^n).
MAX_N_INCIDENCE = 12


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 2 or n > MAX_N_INCIDENCE:
        raise InvalidParameterError(f"n must be an integer in 2..{MAX_N_INCIDENCE}, got {n!r}")


def parity(x: np.ndarray, n: int) -> np.ndarray:
    """Parity of the low n bits of each entry of a nonnegative integer array.

    parity(u & v, n) is the GF(2) dot product of the points u and v, element-wise.
    """
    out = x & 1
    for k in range(1, n):
        out ^= (x >> k) & 1
    return out


def num_points(n: int) -> int:
    return 2**n - 1


def num_lines(n: int) -> int:
    return (2**n - 1) * (2 ** (n - 1) - 1) // 3


def _line_rows(n: int) -> np.ndarray:
    """The (num_lines, 3) rows (p, q, p ^ q), p < q < p ^ q, ordered by p, then q."""
    pts = np.arange(1, num_points(n) + 1, dtype=np.uint16)  # 16 bits hold every n <= MAX_N_INCIDENCE
    row, col = pts[:, None], pts
    # np.nonzero walks row-major: p first, then q.
    p, q = (pts[i] for i in np.nonzero((row < col) & (col < (row ^ col))))
    return np.stack([p, q, p ^ q], axis=1)


def _hyperplane_rows(n: int) -> np.ndarray:
    """Row v - 1 holds the 2^(n-1) - 1 points orthogonal to the normal v, increasing."""
    d = num_points(n)
    pts = np.arange(1, d + 1, dtype=np.uint16)
    on = parity(pts[:, None] & pts, n) == 0
    return np.broadcast_to(pts, (d, d))[on].reshape(d, 2 ** (n - 1) - 1)


def lines(n: int) -> list[tuple[int, int, int]]:
    """All lines as sorted triples (p, q, p ^ q), ordered by p, then q."""
    _check_n(n)
    return list(zip(*_line_rows(n).T.tolist()))


def hyperplanes(n: int) -> list[tuple[int, ...]]:
    """Entry v - 1 holds the 2^(n-1) - 1 points orthogonal to the normal v."""
    _check_n(n)
    return list(map(tuple, _hyperplane_rows(n).tolist()))


@dataclass(frozen=True)
class Collineation:
    """A relabelling of the points 1..2^n - 1 that respects the line structure.

    ``perm[p - 1]`` is the image of point p.  Instances built by
    :meth:`from_matrix` act linearly on the canonical coordinates and map the
    canonical line set onto itself; instances found by the relabelling search
    map the canonical line set onto a target labelling's line set.
    """

    n: int
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        d = num_points(self.n)
        if sorted(self.perm) != list(range(1, d + 1)):
            raise InvalidParameterError("perm is not a permutation of 1..2^n-1")

    @classmethod
    def from_matrix(cls, rows: Sequence[int], n: int) -> "Collineation":
        """p -> M p, row i of M (a bitmask) giving z_i; M is singular iff some p maps to 0."""
        if len(rows) != n:
            raise InvalidParameterError(f"expected {n} rows, got {len(rows)}")
        d = num_points(n)
        if not all(0 <= r <= d for r in rows):
            raise InvalidParameterError(f"row bitmasks must lie in 0..{d}, got {tuple(rows)}")
        pts = np.arange(1, d + 1, dtype=np.int64)
        images = sum(parity(r & pts, n) << (n - 1 - i) for i, r in enumerate(rows))
        perm = tuple(images.tolist())
        if 0 in perm:
            raise InvalidParameterError("rows must form an invertible n x n GF(2) matrix")
        return cls(n=n, perm=perm)


def _validated_triples(n: int, target_lines: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    d = num_points(n)
    if len(target_lines) != num_lines(n):
        raise InvalidParameterError(
            f"expected {num_lines(n)} lines for n={n}, got {len(target_lines)}"
        )
    triples = []
    for t in target_lines:
        t = tuple(sorted(t))
        if len(t) != 3 or len(set(t)) != 3 or not all(1 <= p <= d for p in t):
            raise InvalidParameterError(f"not a triple of distinct points in 1..{d}: {t}")
        triples.append(t)
    return triples


def _third_point_table(triples: Iterable[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """Map each pair (a, b), a < b, of a sorted triple to its third point.  A pair
    on two triples keeps the later one; the line-image check rejects such targets."""
    return {(a, b): c for p, q, r in triples for a, b, c in ((p, q, r), (p, r, q), (q, r, p))}


def _search_relabelling(
    n: int, third: Callable[[int, int], Optional[int]]
) -> Optional[tuple[int, ...]]:
    """Permutation (canonical -> target labels) closed under the target's
    third-point rule, or None when the rule leaves a pair without a fresh label.

    A basis point 2^j takes the smallest label not yet used, which lies outside
    the span of the earlier images; every other point c takes third(a, b) for
    the images a, b of c & -c and c ^ (c & -c).  As GL(n, 2) is transitive on
    ordered independent tuples, this is the lexicographically first frame.
    The caller checks that the permutation carries its incidence data over.
    """
    d = num_points(n)
    perm = [0] * (d + 1)
    used = [False] * (d + 1)
    smallest = 1
    for c in range(1, d + 1):
        low = c & -c
        if c == low:
            while used[smallest]:
                smallest += 1
            img = smallest
        else:
            img = third(perm[low], perm[c ^ low])
            if img is None or used[img]:
                return None
        perm[c] = img
        used[img] = True
    return tuple(perm[1:])


def find_collineation(
    n: int, target_lines: Sequence[Iterable[int]]
) -> Optional[Collineation]:
    """Find a relabelling carrying the canonical line set onto target_lines.

    Returns None when the target triples are not a genuine line structure.
    Accepts n up to MAX_N_INCIDENCE, like lines(), which the final check builds.
    """
    _check_n(n)
    triples = _validated_triples(n, target_lines)
    table = _third_point_table(triples)
    perm = _search_relabelling(n, lambda a, b: table.get((a, b) if a < b else (b, a)))
    if perm is None:
        return None
    image = {tuple(sorted((perm[p - 1], perm[q - 1], perm[r - 1]))) for p, q, r in lines(n)}
    return Collineation(n=n, perm=perm) if image == set(triples) else None


def _block_rule(blocks: Sequence[Iterable[int]], d: int) -> Callable[[int, int], Optional[int]]:
    """Third-point rule of a hyperplane design on points 1..d.

    A line meets every hyperplane in 1 or 3 points, so with v_p the bitmask of
    the blocks holding p, the third point of {p, q} is the point whose
    bitmask is NOT(v_p XOR v_q); None when no point has that bitmask.
    """
    masks = [0] * (d + 1)
    for i, block in enumerate(blocks):
        for p in block:
            masks[p] |= 1 << i
    point_of = {mask: p for p, mask in enumerate(masks) if p}
    full = (1 << len(blocks)) - 1
    return lambda p, q: point_of.get(full & ~(masks[p] ^ masks[q]))


def find_hyperplane_collineation(
    n: int, target_blocks: Sequence[Iterable[int]]
) -> Optional[Collineation]:
    """Find a relabelling carrying the canonical hyperplane point sets onto
    the given blocks (compared as unordered sets).

    The search walks the blocks' parity rule (:func:`_block_rule`); the
    hyperplane image check alone certifies what it returns.
    """
    _check_n(n)
    d = num_points(n)
    hsize = 2 ** (n - 1) - 1
    blocks = [frozenset(b) for b in target_blocks]
    if len(blocks) != d or any(len(b) != hsize for b in blocks):
        raise InvalidParameterError(f"expected {d} blocks of {hsize} points each")
    if any(not all(1 <= p <= d for p in b) for b in blocks):
        raise InvalidParameterError(f"block entries must lie in 1..{d}")
    perm = _search_relabelling(n, _block_rule(blocks, d))
    if perm is None:
        return None
    image = {frozenset(perm[p - 1] for p in h) for h in hyperplanes(n)}
    return Collineation(n=n, perm=perm) if image == set(blocks) else None


def classic_fano_lines() -> list[tuple[int, int, int]]:
    """The 7 triples of the classical octonion labelling of the 7-point plane."""
    return [
        (1, 2, 7),
        (1, 3, 6),
        (1, 4, 5),
        (2, 3, 5),
        (2, 4, 6),
        (3, 4, 7),
        (5, 6, 7),
    ]


def classic_planes_15() -> list[tuple[int, ...]]:
    """A classical labelling of the fifteen 7-point planes on 15 points.

    Transcribed verbatim (bracket order preserved); treat entries as
    unordered sets.
    """
    return [
        (1, 2, 3, 4, 5, 6, 7),
        (1, 2, 8, 11, 10, 9, 7),
        (1, 3, 8, 13, 12, 9, 6),
        (2, 3, 8, 14, 12, 10, 5),
        (1, 2, 13, 14, 15, 12, 7),
        (1, 3, 14, 11, 10, 15, 6),
        (1, 4, 8, 14, 15, 9, 5),
        (1, 4, 13, 11, 10, 12, 5),
        (2, 3, 11, 13, 15, 9, 5),
        (2, 4, 8, 13, 15, 10, 6),
        (2, 4, 11, 14, 12, 9, 6),
        (3, 4, 8, 11, 15, 12, 7),
        (3, 4, 9, 10, 14, 13, 7),
        (5, 6, 8, 11, 13, 14, 7),
        (5, 6, 9, 10, 12, 15, 7),
    ]


def classic_line_set(n: int) -> list[tuple[int, ...]]:
    """Line triples of the classical labelling, for n <= 4.

    n = 2 coincides with the canonical labelling; n = 3 is the octonion
    triple list; n = 4 is derived from the classical plane listing.
    """
    if n == 2:
        return lines(2)
    if n == 3:
        return classic_fano_lines()
    if n == 4:
        # Each line {p < q < r} is listed once, from its pair {p, q}, in sorted order.
        third = _block_rule(classic_planes_15(), 15)
        return [(p, q, r) for p, q in itertools.combinations(range(1, 16), 2) if (r := third(p, q)) > q]
    raise InvalidParameterError(f"classical labelling available for n in 2..4, got {n}")


# Text of int matrices.  Every row is written into one literal template,
# pieces[0] v_0 pieces[1] ... v_{k-1} pieces[k], from '<u4' words: each
# piece NUL-padded to whole words, and each value v < 10^8 as one word (the
# digits of v < 10^4, NUL-padded) or, in a block holding some v >= 10^4, as
# two (the digits of v // 10^4, NUL-padded, then v % 10^4 zero-padded to
# four digits, or a NUL word when v < 10^4).  One gather through an index
# matrix per row block, then one strip of the NULs, gives the block's text.

#: Words per block of _template_blocks' index matrix; a wider row is a block of its own.
_TEMPLATE_BLOCK_WORDS = 1 << 15
_GROUP = 10_000
_NUL_WORD = 2 * _GROUP


@functools.cache
def _number_words() -> np.ndarray:
    """'<u4' words: [g] the digits of g < 10^4 NUL-padded (a number's leading
    group), [10^4 + g] those of g zero-padded to four (a group after it), and
    [2 10^4] a NUL word."""
    g = np.arange(_GROUP, dtype=np.int16)  # small dtypes keep the build's peak low
    padded = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    # Byte c of g's leading word is byte c + 4 - (digits of g) of the padded one.
    shift = np.arange(4) + (3 - (g >= 10) - (g >= 100) - (g >= 1000))[:, None]
    lead = np.where(shift < 4, np.take_along_axis(padded, np.minimum(shift, 3), axis=1), 0)
    words = np.concatenate([lead, padded, np.zeros((1, 4), dtype=np.int16)])
    return words.astype(np.uint8).view("<u4").ravel()


@functools.lru_cache(maxsize=32)
def _template(pieces: tuple[str, ...], sep: str) -> tuple[np.ndarray, tuple]:
    """The words of a template's pieces, and for one and for two words a value
    the index row into _number_words() followed by those words (placeholders
    in the values' places) and the values' columns."""
    text = [piece.encode("ascii") for piece in pieces]
    text[-1] += sep.encode("ascii")
    text = [t + b"\0" * (-len(t) % 4) for t in text]
    widths = np.array([len(t) // 4 for t in text])  # words of each piece
    words = np.frombuffer(b"".join(text), dtype="<u4")
    numbers = len(_number_words())
    layouts = []
    for per in (1, 2):
        at = np.repeat(np.cumsum(widths[:-1]), per)  # value j's words follow piece j
        layouts.append((np.insert(np.arange(numbers, numbers + len(words)), at, 0), at + np.arange(len(at))))
    for array in (*layouts[0], *layouts[1]):
        array.setflags(write=False)  # shared by every call with these pieces
    return words, tuple(layouts)


def _template_blocks(values: np.ndarray, pieces: Sequence[str], sep: str = "") -> list[str]:
    """The text of the rows of a (rows, k) int matrix with entries in 0..10^8 - 1,
    each row written as pieces[0] v_0 pieces[1] ... v_{k-1} pieces[k] and the
    rows joined by sep, in blocks whose concatenation is that text.

    The pieces are ASCII text without NULs.
    """
    rows, k = values.shape
    if values.size and not (values.min() >= 0 and values.max() < _GROUP**2):
        raise ValueError("template values must lie in 0..10^8 - 1")
    words, layouts = _template(tuple(pieces), sep)
    source = np.concatenate([_number_words(), words])
    step = max(1, _TEMPLATE_BLOCK_WORDS // max(1, len(words) + 2 * k))
    blocks = []
    for start in range(0, rows, step):
        v = values[start : start + step].astype(np.intp)
        if v.size and v.max() >= _GROUP:
            high, low = np.divmod(v, _GROUP)
            cells = np.stack([np.where(high > 0, high, v), np.where(high > 0, _GROUP + low, _NUL_WORD)], axis=2)
        else:
            cells = v[:, :, None]
        const, cols = layouts[cells.shape[2] - 1]
        index = np.empty((len(v), len(const)), dtype=np.intp)
        index[:] = const
        index[:, cols] = cells.reshape(len(v), -1)
        blocks.append(np.take(source, index).tobytes().translate(None, b"\0").decode("ascii"))
    if blocks and sep:
        blocks[-1] = blocks[-1][: -len(sep)]
    return blocks


def geometry_json(n: int) -> str:
    """The geometry document as JSON text: points as bit strings, line triples
    and hyperplane incidences, byte for byte json.dumps(doc, sort_keys=True,
    indent=1) + "\\n" of that dict."""
    _check_n(n)
    h = 2 ** (n - 1) - 1
    normals = np.arange(1, num_points(n) + 1, dtype=np.uint16)[:, None]
    # The row arrays are arguments only, so they are freed before the join.
    parts = ['{\n "hyperplanes": [\n']
    parts += _template_blocks(
        np.hstack([normals, _hyperplane_rows(n)]),
        ['  {\n   "normal": ', ',\n   "points": [\n    ', *[",\n    "] * (h - 1), "\n   ]\n  }"],
        ",\n",
    )
    parts.append('\n ],\n "lines": [\n')
    parts += _template_blocks(_line_rows(n), ["  [\n   ", ",\n   ", ",\n   ", "\n  ]"], ",\n")
    points = ",\n  ".join([f'"{p:0{n}b}"' for p in range(1, num_points(n) + 1)])
    parts.append(f'\n ],\n "n": {n},\n "points": [\n  {points}\n ],\n "schema_version": 1\n}}\n')
    return "".join(parts)


def _dot_line_rows(n: int) -> np.ndarray:
    """Rows (i, i, p, i, q, i, r, i) of the lines L_i = {p, q, r}, i from 1."""
    triples = _line_rows(n)
    rows = np.empty((len(triples), 8), dtype=np.uint32)
    rows[:, [0, 1, 3, 5, 7]] = np.arange(1, len(triples) + 1, dtype=np.uint32)[:, None]
    rows[:, 2::2] = triples
    return rows


def incidence_dot(n: int) -> str:
    """Bipartite point-line incidence graph in DOT format."""
    _check_n(n)
    pts = np.arange(1, num_points(n) + 1, dtype=np.uint16)
    parts = [f"graph incidence_{n} {{\n"]
    parts += _template_blocks(np.stack([pts, pts], axis=1), ["  p", ' [shape=circle, label="', '"];\n'])
    parts += _template_blocks(
        _dot_line_rows(n),
        ["  L", ' [shape=box, label="L', '"];\n  p', " -- L", ";\n  p", " -- L", ";\n  p", " -- L", ";\n"],
    )
    parts.append("}\n")
    return "".join(parts)
