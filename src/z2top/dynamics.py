"""The (2^n - 1)-dimensional quadratic top flow and its two coordinate systems.

In omega coordinates, component i of the velocity sums the products
omega_j * omega_k over the lines {i, j, k} through i.  The a coordinates sum
omega over each hyperplane complement; in them the flow collapses to
da_i/dt = a_i (S - a_i) with S the mean of the a's scaled by 2 / (d + 1).

The linear map between the two is the symmetric 0/1 matrix A with
A[v][p] = <rev(v), p> over GF(2), where rev reverses the n-bit string.  The
bit-reversed pairing makes the 3-variable case read a_1 = omega_2 + omega_3
(and cyclically), and satisfies A @ A = 2^(n-2) (I + J) exactly, which gives
the closed-form inverse used by a_inverse.

omega_rhs has two routes.  Below n = _HADAMARD_MIN_N it gathers the pair
products of each line sum through the pair_idx table.  From there up, where
that gather of (d - 1) d / 2 products dominates, it uses that a line is a
triple {i, j, k} with i ^ j ^ k = 0: omega' is half the XOR self-convolution
of x = [0, omega], which the Walsh-Hadamard transform H turns into a square,

    omega' = H (H x)^2 [1:] / 2^(n+1),

two O(d sqrt(d)) products, about 4 times faster than the gather at n = 8
and 20 times at n = 10 on a 2-vCPU x86 host.  Each component lies within
d eps / 4 sum_{j,k} |omega_j omega_k| of the exact line sum (0.021 d eps at
worst on random states) and is exact on small integer states, so from n = 8 up
the trajectories differ from the pair table's in their last bits (the move
from the earlier a-coordinate form was at most 1.2e-15 relative on run --n 8
--seed 1 and 6.9e-15 on run --n 10).  Below n = 8 the bytes are unchanged.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Literal, Optional, Sequence

import numpy as np

from . import geometry
from .errors import InvalidParameterError
from .integrate import COMPLETED, adaptive_rk

#: Largest n for which the dense RHS index tables are built.
MAX_N_SYSTEM = 10

#: Smallest n whose omega_rhs runs through the Walsh-Hadamard transform.  On a
#: 2-vCPU x86 host the squared form wins from n = 7 (15-19 us against 23-24 us
#: for the gather) and loses at n = 6 (13 us against 8 us), so n = 6, which
#: reduce runs, stays on the gather; n = 7 is in no benchmark workload, and the
#: threshold stays at 8 so that the n <= 7 bytes stay pinned.
_HADAMARD_MIN_N = 8

#: Fraction of the majorant's earliest pole time that the default horizon spans.
HORIZON_BUDGET = 0.4

#: Values per block of both text writers; a wider row is a block of its own.
#: The JSON writer's arrays go in blocks of twice as many values: one kernel
#: call fewer per run --n 5 document.  At that size the CSV writer's byte index
#: (25 intp per value) raised the peak RSS of run --n 8 by 1.6 MB.
_BLOCK_VALUES = 4096

#: json.dumps with keys sorted and no indent, so that json's C encoder runs.
_json_dumps = functools.partial(json.dumps, sort_keys=True, check_circular=False)


def _json_floats(values: list) -> list[str]:
    """Each float of values as json's C encoder writes it, in one call."""
    return _json_dumps(values)[1:-1].split(", ")


RhsKind = Literal["omega", "a"]


@dataclass(frozen=True, eq=False)
class TopSystem:
    """Immutable bundle of the transform matrix and the RHS index tables.

    The tables depend on n alone: each is built once per n per process and is
    read-only, so every system of that n shares the same three arrays.
    """

    n: int
    d: int
    a_matrix: np.ndarray
    # pair_idx[i] lists the (d+1)/2 - 1 pairs {j, k} (0-based, j < k, j
    # increasing) such that {i+1, j+1, k+1} is a line.  Its [:, :, 0] and
    # [:, :, 1] planes are contiguous, which keeps the gathers on them fast.
    pair_idx: np.ndarray = field(repr=False)
    # The same pairs as an (m - 1, 2, d) array, m = (d + 1) / 2: pair_cols[p]
    # holds the p-th j and k of every point, the layout invariants._gamma takes.
    pair_cols: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, n: int) -> "TopSystem":
        if not isinstance(n, int) or n < 2 or n > MAX_N_SYSTEM:
            raise InvalidParameterError(f"n must be an integer in 2..{MAX_N_SYSTEM}, got {n!r}")
        return cls(n, geometry.num_points(n), *_tables(n))

    def check_state(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise InvalidParameterError(f"state must have length {self.d}, got shape {x.shape}")
        return x


@functools.cache
def _tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (a_matrix, pair_idx, pair_cols) of n; those of n = 2..10
    take about 34 MB."""
    d = geometry.num_points(n)
    pts = np.arange(1, d + 1, dtype=np.int64)
    rev = np.array(geometry.Collineation.from_matrix([1 << k for k in range(n)], n).perm)
    a = (np.kron(_sylvester(n // 2), _sylvester(n - n // 2))[rev, 1:] < 0).astype(np.int64)
    # The line through i and q is {i, q, q ^ i}; take each pair once, q < q ^ i.
    i = pts[:, None]
    q = np.broadcast_to(pts, (d, d))[pts < (pts ^ i)].reshape(d, 2 ** (n - 1) - 1)
    planes = np.stack([q - 1, (q ^ i) - 1]).astype(np.intp, copy=False)
    cols = np.ascontiguousarray(planes.transpose(2, 0, 1))
    for table in (a, planes, cols):
        table.flags.writeable = False  # views taken after inherit it
    return a, planes.transpose(1, 2, 0), cols


@functools.cache
def _sylvester(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix H[u, v] = (-1)^<u, v>, as floats."""
    u = np.arange(2**k)
    return 1.0 - 2.0 * geometry.parity(u[:, None] & u, k)


def _hadamard(x: np.ndarray, n: int) -> np.ndarray:
    """H @ x for a length-2^n vector: H = H_P (x) H_Q, so on the (2^P, 2^Q)
    reshape X, P = n // 2, it is H_P X H_Q.  einsum without optimize never
    calls BLAS, so the bytes do not depend on the BLAS build or threads."""
    hp, hq = _sylvester(n // 2), _sylvester(n - n // 2)
    y = np.einsum("ij,jk->ik", hp, x.reshape(len(hp), len(hq)))
    return np.einsum("ij,jk->ik", y, hq).ravel()


def omega_rhs(system: TopSystem, omega: Sequence[float]) -> np.ndarray:
    """Velocity in omega coordinates: sum of omega_j omega_k over lines through i."""
    w = system.check_state(omega)
    n = system.n
    if n < _HADAMARD_MIN_N:
        return (w[system.pair_idx[:, :, 0]] * w[system.pair_idx[:, :, 1]]).sum(axis=1)
    z = _hadamard(np.concatenate(([0.0], w)), n)
    return _hadamard(z * z, n)[1:] / 2 ** (n + 1)


def a_transform(system: TopSystem, omega) -> np.ndarray:
    """a = A @ omega, each a summing omega over one hyperplane complement, for one
    state or a (..., d) stack of them; the only product of A with a state."""
    x = np.asarray(omega, dtype=float)
    if x.shape[-1:] != (system.d,):
        raise InvalidParameterError(f"states must have length {system.d}, got shape {x.shape}")
    return x @ system.a_matrix.T


def a_inverse(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Solve A @ omega = a using A^-1 = (A - J/2) / 2^(n-2)."""
    a = system.check_state(a)
    return (a_transform(system, a) - a.sum() / 2.0) / 2 ** (system.n - 2)


def a_rhs(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Velocity in a coordinates: a_i (S - a_i) with S = sum(a) / 2^(n-1)."""
    a = system.check_state(a)
    s = a.sum() / 2 ** (system.n - 1)
    return a * (s - a)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples of one integration plus its termination status."""

    kind: str  # "omega" | "a" | "zk" | "r"
    times: np.ndarray  # shape (m,)
    states: np.ndarray  # shape (m, dim)
    termination: str

    def __len__(self) -> int:
        return len(self.times)

    @property
    def completed(self) -> bool:
        return self.termination == COMPLETED

    def to_csv(self) -> str:
        """Header t,x_1..x_dim, then one row per sample, every value as '%.17g'."""
        dim = self.states.shape[1]
        rows = max(1, _BLOCK_VALUES // (dim + 1))
        blocks = ["t," + ",".join([f"x_{j}" for j in range(1, dim + 1)]) + "\n"]
        for start in range(0, len(self.times), rows):
            stop = start + rows
            values = np.column_stack((self.times[start:stop], self.states[start:stop]))
            blocks.append(_format_g17(values).decode("ascii"))
        return "".join(blocks)

    def to_json_dict(self, **metadata) -> dict:
        return self._document(self.times.tolist(), self.states.tolist(), metadata)

    def _document(self, t, x, metadata: dict) -> dict:
        out = {"schema_version": 1, "kind": self.kind, "termination": self.termination,
               "t": t, "x": x}
        out.update(metadata)
        return out


def _majorant_horizon(w: np.ndarray, rate: int, power: int) -> float:
    """HORIZON_BUDGET times 1 / (rate power u0^power), the pole time of the
    majorant u' = rate u^(power + 1) from u0 = max |w|; it must be a finite
    positive double."""
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        return HORIZON_BUDGET
    try:
        horizon = HORIZON_BUDGET / (rate * power * peak**power)
    except (OverflowError, ZeroDivisionError):  # peak**power left the double range
        horizon = 0.0
    if not 0.0 < horizon < np.inf:  # NaN fails too
        raise InvalidParameterError(
            f"max |omega0| = {peak!r} gives no finite default horizon; pass --t-end"
        )
    return horizon


def guarded_horizon(system: TopSystem, omega0: Sequence[float]) -> float:
    """Pole-free default horizon for positive data.

    Comparison with the uniform majorant u' = (2^(n-1) - 1) u^2 puts the
    first pole no earlier than 1 / ((2^(n-1) - 1) max omega0); HORIZON_BUDGET
    keeps a safety margin below it.
    """
    return _majorant_horizon(system.check_state(omega0), 2 ** (system.n - 1) - 1, 1)


def integrate(
    system: TopSystem,
    rhs_kind: RhsKind,
    x0: Sequence[float],
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    sample_interval: Optional[float] = None,
) -> Trajectory:
    """Adaptively integrate the flow in omega or a coordinates."""
    x0 = system.check_state(x0)
    if rhs_kind == "omega":
        rhs = lambda t, x: omega_rhs(system, x)
    elif rhs_kind == "a":
        rhs = lambda t, x: a_rhs(system, x)
    else:
        raise InvalidParameterError(f"rhs_kind must be 'omega' or 'a', got {rhs_kind!r}")
    return Trajectory(
        rhs_kind, *adaptive_rk(rhs, x0, t_end, rel_tol, abs_tol, sample_interval=sample_interval)
    )


# '%.17g' % x for a block of doubles, byte for byte.  For 1e-6 < |x| < 1e17
# the 17 digits are N = round(|x| * 10^(16 - X)), X = floor(log10 |x|):
# 10^0..10^22 are exact doubles, Dekker's two-product gives the product
# exactly as hi + lo, and hi is an even integer (the product is above 2^53),
# so N = hi + rint(lo) rounds half to even, as dtoa does.  Each value's text
# is gathered from a 28-byte row of its own through a template chosen by
# (X, significant digits, sign).  The row is seven '<u4' words:
# [lead digit, separator, '.', '-'], the four 4-digit groups of N,
# ['0', 'e', '5', '6'] and four spaces, which pad every text to one width
# and are deleted at the end.  ±0.0 are kernel values too; nan, ±inf,
# 0 < |x| <= 1e-6 and |x| >= 1e17 go through '%.17g' one value at a time.
#
# The shortest mode writes json's float text, repr's shortest digits, for
# 1e-6 < |x| < 1e16, with '.0' after an integral value.  Let rest = hi + lo - N,
# |rest| <= 1/2.  The candidates D16 and D15, |x| rounded to 16 and 15 digits,
# come from N by int64 division; the sign of (N mod 10 - 5) + rest is exact,
# so they are correctly rounded.  A candidate below 2^53 reads back as |x|
# when one division by an exact power of ten gives |x| (Clinger's fast path).
# A text of at most 15 digits that reads back as |x| lies within half an ulp
# of it, less than half a unit in the 15th digit, so it is D15: when D15 reads
# back, it is repr's text.  Otherwise repr writes 16 digits, the nearest of
# them, when D16 reads back, and N when not; N becomes 100 D15 or 10 D16, or
# stays.  Where D15 does not read back, ties between two 16- or 17-digit
# candidates and D16 >= 2^53 go through json one value at a time.  A power of
# two has a lopsided rounding interval, which the argument for D16 does not
# cover; the tests check every one in the range.

_X_MIN, _X_MAX = -6, 16
#: Text columns per value: the longest '%.17g' or json float text (24 bytes)
#: and a separator.
_G17_WIDTH = 25
_G17_ROW = 28
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(_X_MAX - _X_MIN + 1)], dtype=np.float64)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


#: Rows 10^k and its split halves, so that one take gathers all three.
_POW10_SPLIT = np.stack([_POW10, *_split(_POW10)])


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = a * 10^(16 - x) exactly (Dekker's two-product)."""
    scale, s_hi, s_lo = np.take(_POW10_SPLIT, _X_MAX - x, axis=1)
    a_hi, a_lo = _split(a)
    hi = a * scale
    return hi, ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


# The kernel's tables are built by array arithmetic on first use and cached,
# so a process that writes no CSV neither builds nor holds them.


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The words of every 4-digit group, the significant-digit ends of every
    group at each of its four places, and the head and tail words of a row."""
    g = np.arange(10_000, dtype=np.int16)  # small dtypes keep the build's peak low
    group_words = geometry._number_words()[10_000:20_000]  # g zero-padded to four digits
    # The significant digits of N through group j's last nonzero digit, or 1
    # (the lead digit) when group j is zero.
    sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    places = np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    ends = np.where(g > 0, places + sig.astype(np.uint8), 1).astype(np.uint8, copy=False)
    head = np.frombuffer(b"0,.-0\n.-", dtype=np.uint8).reshape(2, 1, 4).repeat(10, axis=1)
    head[:, :, 0] += np.arange(10, dtype=np.uint8)
    head_words = head.view("<u4").ravel()  # [lead + 10 * row end]
    tail_words = np.frombuffer(b"0e56    ", dtype="<u4")
    return group_words, ends, head_words, tail_words


@functools.cache
def _text_templates(shortest: bool) -> np.ndarray:
    """Row byte sources of the text of every key ((X + 6) * 17 + nd - 1) * 2 + sign.

    Fixed notation, X >= -4: the digits after -X leading zeros when X < 0,
    the point after the whole part unless nothing follows it ('%.17g'), or
    '.0' after an integral value (repr).  X = -5, -6: d.ddd, then e-05 or e-06.
    """
    sep, dot, minus, zero, e, five, six, pad = 1, 2, 3, 20, 21, 22, 23, 24
    x, nd = (m.reshape(-1, 1) for m in np.meshgrid(
        np.arange(_X_MIN, _X_MAX + 1, dtype=np.int16), np.arange(1, 18, dtype=np.int16),
        indexing="ij"))
    c = np.arange(_G17_WIDTH, dtype=np.int16)
    fixed = x >= -4
    zeros = np.where(fixed, np.maximum(-x, 0), 0)
    whole = np.where(fixed, np.maximum(x, 0) + 1, 1)
    end = zeros + nd
    frac = end > whole
    point = frac | (fixed & shortest)
    body = np.where(frac, end + 1, np.where(point, whole + 2, whole))
    k = np.where(c < whole, c, c - 1) - zeros  # digit index
    digit = np.where(k < 0, zero, np.where(k == 0, 0, k + 3))
    t = c - body
    exponent = np.select([t == 0, t == 1, t == 2], [e, minus, zero], np.where(x == -5, five, six))
    tail = np.where(fixed, 0, 4)
    src = np.select(
        [(c < whole) | (frac & (c > whole) & (c < body)), point & (c == whole),
         point & (c == whole + 1), (t >= 0) & (t < tail), t == tail],
        [digit, dot, zero, exponent, sep],
        pad,
    )
    negative = np.concatenate([np.full_like(src[:, :1], minus), src[:, :-1]], axis=1)
    return np.stack([src, negative], axis=1).reshape(-1, _G17_WIDTH).astype(np.intp)


def _g17_decimal(v: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, X, slow) of a flat float64 array: the 17 digits N and the decimal
    exponent X of each |v| (both 0 at ±0.0), and the indices of the values
    that '%.17g', or with shortest json, must write itself."""
    a = np.abs(v)
    fast = (a > 1e-6) & (a < (1e16 if shortest else 1e17))  # the double 1e-6 is below 10^-6
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), _X_MIN, _X_MAX).astype(np.int64)
    hi, lo = _scaled(a, x)
    # floor(log10) can miss the exponent by one next to a power of ten.
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = np.flatnonzero(low | high)
    if miss.size:
        x[miss] += np.where(high[miss], 1, -1)
        hi[miss], lo[miss] = _scaled(a[miss], x[miss])
    # No double below 10^(X+1) rounds up to it at 17 digits, so N < 10^17.
    step = np.rint(lo)
    n = hi.astype(np.int64) + step.astype(np.int64)
    if shortest:
        n, odd = _shortest(a, x, n, lo - step)  # lo - rint(lo) is exact
        fast &= ~odd
    zero = v == 0.0
    n[zero] = 0
    x[zero] = 0
    return n, x, np.flatnonzero(~(fast | zero))


def _shortest(a, x, n, rest) -> tuple[np.ndarray, np.ndarray]:
    """(repr's digits as N, or N itself; the values json must write) of each
    a = (N + rest) 10^(X - 16), |rest| <= 1/2."""
    scale = _POW10[15 - x]
    # D16 = m16 and D15 = m15 / 10; m15 <= 10^16 < 2^54 is even, so it is an
    # exact double, as m16 is below 2^53.
    q16 = n // 10
    s16 = (n - q16 * 10 - 5) + rest
    m16 = q16 + (s16 > 0)
    q15 = q16 // 10
    m15 = (q15 + ((n - q15 * 100 - 50) + rest > 0)) * 10
    fits15 = m15 / scale == a
    fits16 = m16 / scale == a
    odd = ~fits15 & ((s16 == 0) | (np.abs(rest) == 0.5) | (m16 >= 2**53))
    return np.where(fits15, 10 * m15, np.where(fits16, 10 * m16, n)), odd


def _g17_rows(
    v: np.ndarray, width: int, shortest: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 28-byte rows and template keys of a flat float64 array of rows of
    width values, and the indices of the values that must be written one at
    a time."""
    group_words, ends_table, head_words, tail_words = _digit_tables()
    n, x, slow = _g17_decimal(v, shortest)
    q = n // 10**8
    lead = q // 10**8
    hi8, lo8 = q - lead * 10**8, n - q * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    groups = (g1, hi8 - g1 * 10**4, g3, lo8 - g3 * 10**4)
    e1, e2, e3, e4 = (ends[g] for ends, g in zip(ends_table, groups))
    nd = np.maximum(np.maximum(e1, e2), np.maximum(e3, e4))
    key = ((x - _X_MIN) * 17 + nd - 1) * 2 + np.signbit(v)

    row = np.empty((v.size, _G17_ROW // 4), dtype="<u4")
    row_end = np.zeros(width, dtype=np.int64)
    row_end[-1] = 10
    row[:, 0] = head_words[(lead.reshape(-1, width) + row_end).ravel()]
    for j, g in enumerate(groups):
        row[:, 1 + j] = group_words[g]
    row[:, 5], row[:, 6] = tail_words
    return row, key, slow


#: Row ends of the shortest mode: ']' is in no JSON number, unlike a line break.
_ROW_END_BRACKET = bytes.maketrans(b"\n", b"]")


def _format_g17(values: np.ndarray, shortest: bool = False) -> bytes:
    """The rows of a (rows, width) float64 block as text: each value as
    '%.17g' % x, joined by ',' within a row, each row ended by a newline.
    With shortest, each value as json writes it (float.__repr__, NaN,
    Infinity, -Infinity) and each row ended by ']'."""
    width = values.shape[1]
    v = np.asarray(values, dtype=np.float64).ravel()
    row, key, slow = _g17_rows(v, width, shortest)
    templates = _text_templates(shortest)
    source = row.view(np.uint8).ravel()
    # The byte index holds 25 intp per value; the writers' blocks bound its size.
    index = np.take(templates, key, axis=0)
    index += np.arange(0, v.size * _G17_ROW, _G17_ROW, dtype=np.intp)[:, None]
    text = np.take(source, index)
    if slow.size:
        row_ends = (slow % width == width - 1).tolist()
        y = v[slow].tolist()
        cells = _json_floats(y) if shortest else ["%.17g" % value for value in y]
        cells = [cell + ("\n" if e else ",") for cell, e in zip(cells, row_ends)]
        padded = "".join([cell.ljust(_G17_WIDTH) for cell in cells]).encode("ascii")
        text[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _G17_WIDTH)
    row_end = _ROW_END_BRACKET if shortest else None
    return text.tobytes().translate(row_end, b" ")


def _json_text(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=1) + "\\n" for the documents the CLI
    writes, without json's pure-Python encoder, which indent selects.

    doc maps str keys to JSON scalars, to flat lists of them, to a list of
    non-empty rows, each a list of numbers, or to a vector or (rows,
    width >= 1) array, which stands for its .tolist().  A scalar is
    json.dumps(value).  A flat list, and each chunk of about _BLOCK_VALUES
    row values, is one call of json's C encoder, whose item separator lays
    it out as indent=1 does; json escapes every line break inside a string,
    so only the seams between rows are left to fix.  A non-empty float64
    array goes through _format_g17's shortest mode in blocks of about
    2 * _BLOCK_VALUES values, any other array through its .tolist().  Every
    piece goes into one list that is joined once, so the peak memory is
    about twice the text.
    """
    parts = []
    for key in sorted(doc):
        value = doc[key]
        parts += [",\n " if parts else "{\n ", _json_str(key), ": "]
        if isinstance(value, np.ndarray) and (value.dtype != np.float64 or not value.size):
            value = value.tolist()
        if isinstance(value, np.ndarray):
            _json_array(parts, value)
        elif not isinstance(value, list) or not value:
            parts.append(json.dumps(value))
        elif set(map(type, value)) != {list}:
            parts += ["[\n  ", _json_dumps(value, separators=(",\n  ", ": "))[1:-1], "\n ]"]
        else:
            step = max(1, _BLOCK_VALUES * len(value) // sum(map(len, value)))
            lead = "[\n  [\n   "
            for start in range(0, len(value), step):
                text = _json_dumps(value[start : start + step], separators=(",\n   ", ": "))
                parts += [lead, text[2:-2].replace("],\n   [", "\n  ],\n  [\n   "), "\n  ]"]
                lead = ",\n  [\n   "
            parts.append("\n ]")
    parts.append("\n}\n" if parts else "{}\n")
    return "".join(parts)


def _json_array(parts: list, values: np.ndarray) -> None:
    """Append the indent=1 text of a non-empty float64 vector or (rows, width)
    array, the value of a top-level key, to parts.  The kernel ends each row
    (each value of a vector) with ']' and joins a row's values with ','; two
    replaces turn those into the item separators."""
    rows = values.reshape(len(values), -1)
    if values.ndim == 1:
        lead, seam, close = "[\n  ", b",\n  ", "\n ]"
    else:
        lead, seam, close = "[\n  [\n   ", b"\n  ],\n  [\n   ", "\n  ]\n ]"
    parts.append(lead)
    step = max(1, 2 * _BLOCK_VALUES // rows.shape[1])
    for start in range(0, len(rows), step):
        text = _format_g17(rows[start : start + step], shortest=True)
        if values.ndim > 1:
            text = text.replace(b",", b",\n   ")
        parts.append(text.replace(b"]", seam).decode("ascii"))
    parts[-1] = parts[-1][: -len(seam)] + close


def trajectory_json(trajectory: Trajectory, **metadata) -> str:
    """The trajectory JSON document, to_json_dict(**metadata), as text."""
    return _json_text(trajectory._document(trajectory.times, trajectory.states, metadata))
