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

cli's run integrates the diagonal a-flow from initial_a's a0 at every n, O(d)
per RHS call, and writes omega_trajectory's samples; its guard reads max|a|.
a_transform and a_inverse run on one BLAS-free Walsh-Hadamard butterfly at
every n, so their bytes follow neither the BLAS build nor its threads.
TopSystem.a_matrix is A as a dense table, a reference for tests; nothing here
computes with it.

omega_rhs serves reduce alone, whose omega flow is the independent route it
compares the scalar quadrature with.  Below n = _HADAMARD_MIN_N it gathers the
pair products of each line sum through the pair_idx table.  From there up,
where that gather of (d - 1) d / 2 products dominates, it uses that a line is
a triple {i, j, k} with i ^ j ^ k = 0: omega' is half the XOR self-convolution
of x = [0, omega], which H turns into a square,

    omega' = H (H x)^2 [1:] / 2^(n+1),

two O(d log d) butterflies, about 3 times faster than the gather at n = 8 and
30 times at n = 10 on a 2-vCPU x86 host.  Each component lies within
d eps / 4 sum_{j,k} |omega_j omega_k| of the exact line sum (4 eps times that
sum at worst on random states) and is exact on small integer states.
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
from .integrate import COMPLETED, adaptive_rk, finite_vector

#: Largest n for which the dense RHS index tables are built.
MAX_N_SYSTEM = 10

#: Smallest n whose omega_rhs, which only reduce calls, runs through the
#: Walsh-Hadamard butterfly.  On a 2-vCPU x86 host the butterfly form wins
#: from n = 8 (27-30 us against 81-87 us for the gather) and loses at n = 7
#: (24-26 us against 21-22 us).
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
    # rev[v - 1] is v with its n bits reversed: a_v reads row rev(v) of H.
    rev: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, n: int) -> "TopSystem":
        if not isinstance(n, int) or n < 2 or n > MAX_N_SYSTEM:
            raise InvalidParameterError(f"n must be an integer in 2..{MAX_N_SYSTEM}, got {n!r}")
        return cls(n, geometry.num_points(n), *_tables(n))

    #: Homogeneity degree q of the velocity: each term is a product of q components.
    degree = 2

    @property
    def terms(self) -> int:
        """Unit monomials per velocity component: the 2^(n-1) - 1 lines through a point."""
        return 2 ** (self.n - 1) - 1

    def check_state(self, x: Sequence[float]) -> np.ndarray:
        """x as a float array of shape (d,); zktop.ZkSystem shares this body."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise InvalidParameterError(f"state must have length {self.d}, got shape {x.shape}")
        return x


@functools.cache
def _tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (a_matrix, pair_idx, rev) of n; those of n = 2..10 take about 22 MB."""
    d = geometry.num_points(n)
    pts = np.arange(1, d + 1, dtype=np.int64)
    rev = np.array(geometry.Collineation.from_matrix([1 << k for k in range(n)], n).perm,
                   dtype=np.intp)
    a = geometry.parity(rev[:, None] & pts, n)
    # The line through i and q is {i, q, q ^ i}; take each pair once, q < q ^ i.
    i = pts[:, None]
    q = np.broadcast_to(pts, (d, d))[pts < (pts ^ i)].reshape(d, -1)
    planes = np.stack([q - 1, (q ^ i) - 1]).astype(np.intp, copy=False)
    for table in (a, planes, rev):
        table.flags.writeable = False  # views taken after inherit it
    return a, planes.transpose(1, 2, 0), rev


def _butterfly(x: np.ndarray, odd) -> np.ndarray:
    """A Walsh-Hadamard butterfly over axis 0 of a float (2^n, ...) array: each
    of the n stages writes np.add(L, R) and odd(L, R, out) of entry u of the
    halves L and R to entries 2u and 2u + 1, which moves the top index bit to
    the bottom, so every bit ends in place.  The stages alternate between two
    buffers whose views are made once.  Every entry is summed in one fixed
    order, so a column comes out as it does alone."""
    half = len(x) // 2
    buffers = np.empty((2, *x.shape))
    halves = [(b[:half], b[half:]) for b in buffers]
    outs = [(s[:, 0], s[:, 1]) for s in buffers.reshape(2, half, 2, *x.shape[1:])]
    left, right = x[:half], x[half:]
    for stage in range(half.bit_length()):
        np.add(left, right, outs[stage & 1][0])
        odd(left, right, outs[stage & 1][1])
        left, right = halves[stage & 1]
    return buffers[stage & 1]


def _hadamard(x: np.ndarray) -> np.ndarray:
    """H x along axis 0 of a float (2^n, ...) array, H[u, v] = (-1)^<u, v>."""
    return _butterfly(x, np.subtract)


def omega_rhs(system: TopSystem, omega: Sequence[float]) -> np.ndarray:
    """Velocity in omega coordinates: sum of omega_j omega_k over lines through i."""
    w = system.check_state(omega)
    if system.n < _HADAMARD_MIN_N:
        return (w[system.pair_idx[:, :, 0]] * w[system.pair_idx[:, :, 1]]).sum(axis=1)
    z = _hadamard(np.concatenate(([0.0], w)))
    return _hadamard(z * z)[1:] / 2 ** (system.n + 1)


def _a_map(system: TopSystem, x, image) -> np.ndarray:
    """image(z) for z = [0, x] as (2^n, states) columns, of one state or a
    (..., d) stack of them, as C-contiguous rows: each comes out as it does
    alone, and a reduction along it sums in the same order."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (system.d,):
        raise InvalidParameterError(f"states must have length {system.d}, got shape {x.shape}")
    z = np.zeros((system.d + 1, x.size // system.d))
    z[1:] = x.reshape(-1, system.d).T
    return np.ascontiguousarray(image(z).T).reshape(x.shape)


def a_transform(system: TopSystem, omega) -> np.ndarray:
    """a = A @ omega, each a_v summing omega over one hyperplane complement, for
    one state or a (..., d) stack of them.  The butterfly carries the even and
    the odd sum of each entry u of [0, omega] (over <u, p> = 0 and = 1), from
    (omega_u, 0); entry 2u + 1 of a stage flips the parity of R's points, so R's
    even sums join L's odd ones and the other way round.  a_v, the odd sum of
    rev(v), adds only the omega of its complement and exact zeros: it lies
    within n eps / 2 of their sum of |omega_p|, whatever the omega outside."""
    def odd_sums(z):
        even_odd = np.zeros((len(z), 2, z.shape[1]))
        even_odd[:, 0] = z
        cross = lambda left, right, out: np.add(left, right[:, ::-1], out)
        return _butterfly(even_odd, cross)[system.rev, 1]
    return _a_map(system, omega, odd_sums)


def initial_a(system: TopSystem, omega0) -> np.ndarray:
    """a_transform of a finite omega0, the initial a of run and reduce; an omega0
    whose hyperplane sums overflow a double is a usage error, before any flow."""
    omega0 = finite_vector(system.check_state(omega0))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a0 = a_transform(system, omega0)
    if not np.isfinite(a0).all():
        raise InvalidParameterError("the hyperplane sums of omega0 overflow a double")
    return a0


def a_inverse(system: TopSystem, a) -> np.ndarray:
    """Solve A @ omega = a, for one state or a (..., d) stack of them:
    A^-1 = (A - J/2) / 2^(n-2) is -H[rev, 1:] / 2^(n-1), an exact power-of-two
    scale, and 0.0 - z keeps a zero unsigned."""
    return _a_map(system, a, lambda z: (0.0 - _hadamard(z)[system.rev]) * 0.5 ** (system.n - 1))


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


def omega_trajectory(system: TopSystem, omega0: np.ndarray, flow: Trajectory) -> Trajectory:
    """The omega samples of an a-flow from initial_a(system, omega0): row 0 is
    omega0 bit for bit, every other row a_inverse of its a sample."""
    omega = np.vstack((omega0, a_inverse(system, flow.states[1:])))
    return Trajectory("omega", flow.times, omega, flow.termination)


def guarded_horizon(system, x0: Sequence[float]) -> float:
    """Pole-free default horizon of a TopSystem or a zktop.ZkSystem: u = max |x|
    obeys u' <= terms u^q, q = system.degree, a majorant whose pole lies at
    1 / (terms (q - 1) u0^(q - 1)); HORIZON_BUDGET keeps a margin below it."""
    peak = float(np.max(np.abs(system.check_state(x0))))
    if peak == 0.0:
        return HORIZON_BUDGET
    power = system.degree - 1
    try:  # terms * power is an exact int, so the closed forms hold bit for bit
        horizon = HORIZON_BUDGET / (system.terms * power * peak**power)
    except (OverflowError, ZeroDivisionError):  # peak**power left the double range
        horizon = 0.0
    if not 0.0 < horizon < np.inf:  # NaN fails too
        raise InvalidParameterError(
            f"max |omega0| = {peak!r} gives no finite default horizon; pass --t-end"
        )
    return horizon


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
# is gathered into a 25-byte slot from a 24-byte row of its own through a
# template chosen by (X, significant digits, sign).  The row is six '<u4'
# words: [lead digit, space, '.', '-'], the four 4-digit groups of N and
# ['0', 'e', '5', '6'].  The space pads every text to the slot, whose last
# column no text reaches (the longest, '%.17g' % -5e-324, has 24 bytes); the
# separator goes there after the gather, and the pads are deleted at the
# end.  ±0.0 are kernel values too; nan, ±inf, 0 < |x| <= 1e-6 and
# |x| >= 1e17 go through '%.17g' one value at a time.
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
_G17_ROW = 24
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
    group at each of its four places, the head word of each lead digit and
    the tail word of a row."""
    g = np.arange(10_000, dtype=np.int16)  # small dtypes keep the build's peak low
    group_words = geometry._number_words()[10_000:20_000]  # g zero-padded to four digits
    # The significant digits of N through group j's last nonzero digit, or 1
    # (the lead digit) when group j is zero.
    sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    places = np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    ends = np.where(g > 0, places + sig.astype(np.uint8), 1).astype(np.uint8, copy=False)
    head = np.frombuffer(b"0 .-", dtype=np.uint8).reshape(1, 4).repeat(10, axis=0)
    head[:, 0] += np.arange(10, dtype=np.uint8)
    return group_words, ends, head.view("<u4").ravel(), np.frombuffer(b"0e56", dtype="<u4")


@functools.cache
def _text_templates(shortest: bool) -> np.ndarray:
    """Row byte sources of the text of every key ((X + 6) * 17 + nd - 1) * 2 + sign.

    Fixed notation, X >= -4: the digits after -X leading zeros when X < 0,
    the point after the whole part unless nothing follows it ('%.17g'), or
    '.0' after an integral value (repr).  X = -5, -6: d.ddd, then e-05 or e-06.
    """
    pad, dot, minus, zero, e, five, six = 1, 2, 3, 20, 21, 22, 23
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
         point & (c == whole + 1), (t >= 0) & (t < tail)],
        [digit, dot, zero, exponent],
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


def _g17_rows(v: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 24-byte rows and template keys of a flat float64 array, and the
    indices of the values that must be written one at a time."""
    group_words, ends_table, head_words, tail_word = _digit_tables()
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
    row[:, 0] = head_words[lead]
    for j, g in enumerate(groups):
        row[:, 1 + j] = group_words[g]
    row[:, 5] = tail_word
    return row, key, slow


def _format_g17(values: np.ndarray, shortest: bool = False) -> bytes:
    """The rows of a (rows, width) float64 block as text: each value as
    '%.17g' % x, joined by ',' within a row, each row ended by a newline.
    With shortest, each value as json writes it (float.__repr__, NaN,
    Infinity, -Infinity) and each row ended by ']', which is in no JSON
    number.  Each text is padded with spaces to _G17_WIDTH bytes, the last
    of which takes the separator; the pads are deleted at the end."""
    width = values.shape[1]
    v = np.asarray(values, dtype=np.float64).ravel()
    row, key, slow = _g17_rows(v, shortest)
    templates = _text_templates(shortest)
    source = row.view(np.uint8).ravel()
    # The byte index holds 25 intp per value; the writers' blocks bound its size.
    index = np.take(templates, key, axis=0)
    index += np.arange(0, v.size * _G17_ROW, _G17_ROW, dtype=np.intp)[:, None]
    text = np.take(source, index)
    if slow.size:
        y = v[slow].tolist()
        cells = _json_floats(y) if shortest else ["%.17g" % value for value in y]
        padded = "".join([cell.ljust(_G17_WIDTH) for cell in cells]).encode("ascii")
        text[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _G17_WIDTH)
    text[:, -1] = ord(",")
    text[width - 1 :: width, -1] = ord("]" if shortest else "\n")
    return text.tobytes().translate(None, b" ")


def _json_text(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=1) + "\\n" for the documents the CLI
    writes, without json's pure-Python encoder, which indent selects.

    doc maps str keys to JSON scalars, to flat lists of them, or to a
    non-empty float64 vector or (rows, width >= 1) array; json.dumps refuses
    any other array with TypeError.  A scalar is json.dumps(value).  A flat
    list is one call of json's C encoder, whose item separator lays it
    out as indent=1 does; a list that holds a list or a dict raises
    TypeError.  A non-empty float64 array goes through _format_g17's
    shortest mode in blocks of about 2 * _BLOCK_VALUES values.  Every piece
    goes into one list that is joined once, so the peak memory is about
    twice the text.
    """
    parts = []
    for key in sorted(doc):
        value = doc[key]
        parts += [",\n " if parts else "{\n ", _json_str(key), ": "]
        if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.size:
            _json_array(parts, value)
        elif not isinstance(value, list) or not value:
            parts.append(json.dumps(value))
        else:
            if any(isinstance(item, (list, tuple, dict)) for item in value):
                raise TypeError(f"the list of {key!r} holds a list or a dict; it must be flat")
            parts += ["[\n  ", _json_dumps(value, separators=(",\n  ", ": "))[1:-1], "\n ]"]
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
    """The trajectory JSON document as text: kind, termination, the float64 t
    and x arrays and the metadata; json.loads gives its dict."""
    return _json_text({"schema_version": 1, "kind": trajectory.kind,
                       "termination": trajectory.termination, "t": trajectory.times,
                       "x": trajectory.states, **metadata})
