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
    """Each float of values as json's C encoder writes it, in one call of
    json.dumps without options, which reuses json's default encoder."""
    return json.dumps(values)[1:-1].split(", ")


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


# The text kernel writes a block of doubles byte for byte as Python does, in
# four layouts: '%.17g' % x (the CSV), json's float text, which is repr's
# shortest digits (the JSON documents), and the drift table's '%24.16e' and
# '%13.3e'.
#
# Decimal step.  Each finite nonzero |x| has 17 digits N = round(|x| 10^(16 - X)),
# X = floor(log10 |x|), and rest = |x| 10^(16 - X) - N, |rest| <= 1/2.  For
# 1e-6 < |x| < 1e17, 10^(16 - X) <= 10^22 is an exact double, Dekker's
# two-product gives the product exactly as hi + lo, and hi is an even integer
# (the product is above 2^53), so N = hi + rint(lo) rounds half to even, as
# dtoa does, and rest is exact.  Every other finite |x| = m 2^e (np.frexp)
# takes 10^(16 - X) = (t + t_lo) 2^c, 1 <= t < 2, from a double-double table
# built once from Python ints: Dekker's product of m and t, plus m t_lo,
# shifted by e + c, lies within about 1e-14 of the scaled value.  Such a value
# is written one at a time (it is slow) when _TOL, far above that error,
# cannot certify it: rest within _TOL of +-1/2, N = 10^17, or N = 10^16 with
# |rest| < _TOL, where X itself is in doubt.  tol is that bound per value, 0
# where the product is exact.  A block of mostly such values takes the table
# for all of its values, exact (tol 0) where t_lo = 0.
#
# Shortest mode.  The candidates D16 and D15, |x| rounded to 16 and 15 digits,
# come from N by int64 division; the sign of (N mod 10 - 5) + rest is certain
# unless it lies within tol of 0 (a tie, written one at a time).  A text of at
# most 15 digits that reads back as |x| lies within half an ulp of it, less
# than half a unit in the 15th digit, so it is D15: when D15 reads back, it is
# repr's text.  Otherwise repr writes 16 digits, the nearest of them, when
# D16 reads back, and N when not; N becomes 100 D15 or 10 D16, or stays.  An
# exact value below 10^16 whose D16 is below 2^53 reads back when one
# division by an exact power of ten gives |x| (Clinger's fast path).  Every
# other candidate reads back when it lies inside |x|'s rounding interval
# scaled by 10^(16 - X): half an ulp on each side, but a quarter below a
# power of two, whose interval is lopsided; there the 16-digit value above |x|
# can read back when D16 below it does not.  A candidate within _TOL of an
# interval end is slow, and so are the subnormals below 1e-309, whose ulp
# reaches a unit in the 15th digit.  A block of mostly such values takes the
# interval for all of its values.
#
# '%24.16e' writes N; '%13.3e' writes N rounded to 4 digits from N and rest
# in the same way, ties slow.  A rounding that carries to 10^17 moves X up.
#
# Text step.  Each value's text is gathered into a 25-byte slot from a 32-byte
# row of its own through a template chosen by (class of X, significant digits,
# sign).  The row is eight '<u4' words: [lead digit, NUL, '.', '-'], the four
# 4-digit groups of N, ['0', ' ', NUL, NUL] and X's exponent text ('e', the
# sign and two or three digits, NUL-padded), which only blocks that need it
# fill.  A class is one X of fixed notation, or the exponent notation with
# two or three exponent digits.  NULs pad every text to the slot, whose last
# column no text reaches (the longest, '%.17g' % -5e-324, has 24 bytes); the
# separator goes there after the gather, and the pads are deleted at the
# end.  nan, +-inf and the slow values go through Python's own formatting of
# the layout one at a time.

_X_MIN, _X_MAX = -6, 16  # the exact route's exponents
_E_MIN, _E_MAX = -325, 309  # the tables' exponents: every finite double's X, and one more
_TOL = 1e-9  # the bound on a double-double rest's error, in units of N
#: Text columns per value: the longest '%.17g' or json float text (24 bytes)
#: and a separator.
_G17_WIDTH = 25
_ROW_BYTES = 32
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(_X_MAX - _X_MIN + 1)], dtype=np.float64)
#: Values per run of the byte index: the rows' offsets go in by two adds
#: over whole runs (numpy adds a run of 6,400 entries at full speed, a
#: 25-entry row not), and a block's index is allocated in whole runs.
_RUN = 256
#: Row word 5: '0' and ' ', which some templates write.
_ZERO_SPACE = np.frombuffer(b"0 \0\0", dtype="<u4")[0]

#: Each layout's largest X in fixed notation (from X = -4), whether an integral
#: value gets '.0', the significant digits it always writes, and the width it
#: right-aligns a text to (0: none).
_LAYOUTS = {
    "%.17g": (16, False, 1, 0),
    "repr": (15, True, 1, 0),
    "%24.16e": (-5, False, 17, 24),
    "%13.3e": (-5, False, 4, 13),
}


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


# The kernel's tables are built on first use and cached, so a process that
# writes no text neither builds nor holds them.


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows t, t's split halves and t_lo of 10^(16 - X) = (t + t_lo) 2^c,
    1 <= t < 2, t_lo the rounded rest, for X = _E_MIN.._E_MAX, the c, and the
    bound on a rest's error from each row: _TOL, or 0 where t_lo = 0."""
    rows, shifts = [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        c = num.bit_length() - den.bit_length()
        num, den = (num, den << c) if c >= 0 else (num << -c, den)
        if num < den:
            num, c = num << 1, c - 1
        t = num / den  # int / int rounds correctly
        rows.append((t, (num * 2**52 - int(t * 2**52) * den) / (den << 52)))
        shifts.append(c)
    t, t_lo = np.array(rows).T
    return np.stack([t, *_split(t), t_lo]), np.array(shifts), np.where(t_lo == 0.0, 0.0, _TOL)


def _scaled_dd(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo within about 2^-103 hi of a * 10^(16 - x), for any finite a > 0."""
    table, shifts, _ = _pow10_table()
    t, t_hi, t_lo, t_rest = np.take(table, x - _E_MIN, axis=1)
    m, e = np.frexp(a)
    m_hi, m_lo = _split(m)
    hi = m * t
    lo = (((m_hi * t_hi - hi) + m_hi * t_lo + m_lo * t_hi) + m_lo * t_lo) + m * t_rest
    e += shifts[x - _E_MIN]
    return np.ldexp(hi, e), np.ldexp(lo, e)


def _digits(a: np.ndarray, x_min: int, x_max: int, scaled) -> tuple[np.ndarray, ...]:
    """(N, X, rest) of each a > 0 from the product scaled(a, X), X in [x_min - 1, x_max + 1]."""
    x = np.clip(np.floor(np.log10(a)), x_min, x_max).astype(np.int64)
    hi, lo = scaled(a, x)
    # floor(log10) can miss the exponent by one next to a power of ten.
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = np.flatnonzero(low | high)
    if miss.size:
        x[miss] += np.where(high[miss], 1, -1)
        hi[miss], lo[miss] = scaled(a[miss], x[miss])
    step = np.rint(lo)
    return hi.astype(np.int64) + step.astype(np.int64), x, lo - step  # lo - rint(lo) is exact


def _decimal(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(N, X, rest, tol, slow) of a flat float64 array: the 17 digits, the
    decimal exponent and the rest of each |v| (N = 0 at ±0.0 and where slow,
    X = rest = 0 at ±0.0), the bound on each rest's error, and the mask of the
    values that must be written one at a time."""
    a = np.abs(v)
    zero = a == 0.0
    fast = (a > 1e-6) & (a < 1e17)  # the double 1e-6 is below 10^-6
    far = ~(fast | zero) & (a < np.inf)
    slow = ~(fast | zero | far)  # nan and +-inf
    if 2 * np.count_nonzero(far) > a.size:
        # Mostly far values: one double-double pass over all, exact (tol 0)
        # where 10^(16 - X) is a double.
        n, x, rest = _digits(np.where(fast | far, a, 1.0), _E_MIN + 1, _E_MAX - 1, _scaled_dd)
        tol = np.take(_pow10_table()[2], x - _E_MIN)
        slow |= _unsure(n, rest, tol)
    else:
        # No double below 10^(X+1) rounds up to it at 17 digits here, so N < 10^17.
        n, x, rest = _digits(np.where(fast, a, 1.0), _X_MIN, _X_MAX, _scaled)
        tol, far = np.zeros(a.shape), np.flatnonzero(far)
        if far.size:
            n[far], x[far], rest[far] = _digits(a[far], _E_MIN + 1, _E_MAX - 1, _scaled_dd)
            tol[far] = _TOL
            slow[far] = _unsure(n[far], rest[far], _TOL)
    n[slow | zero] = 0
    return n, x, rest, tol, slow


def _unsure(n, rest, tol) -> np.ndarray:
    """Where tol cannot certify N's rounding (rest next to +-1/2) or X (the
    scaled value next to 10^16 or 10^17)."""
    return (
        (np.abs(np.abs(rest) - 0.5) < tol) | (n == 10**17)
        | ((n == 10**16) & (np.abs(rest) < tol))
    )


def _g17_decimal(v: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, X, slow) of a flat float64 array: the 17 digits N and the decimal
    exponent X of each |v| (both 0 at ±0.0), or with shortest repr's digits,
    and the indices of the values that '%.17g', or json, must write itself."""
    n, x, rest, tol, slow = _decimal(v)
    if shortest:
        n, x, odd = _shortest(np.abs(v), n, x, rest, tol)
        slow |= odd
    return n, x, np.flatnonzero(slow)


def _shortest(a, n, x, rest, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(repr's digits as N, or N itself, and their X; the mask of the values
    json must write) of each a = (N + rest) 10^(X - 16), rest within tol."""
    # D16 = m16 and D15 = m15 / 10; m15 <= 10^16 < 2^54 is even, so it is an
    # exact double, as m16 is below 2^53 where Clinger's path takes it.
    q16 = n // 10
    s16 = (n - q16 * 10 - 5) + rest
    m16 = q16 + (s16 > 0)
    q15 = q16 // 10
    m15 = (q15 + ((n - q15 * 100 - 50) + rest > 0)) * 10
    tie = (np.abs(s16) <= tol) | (0.5 - np.abs(rest) <= tol)  # |rest| <= 1/2
    far = (x > 15) | (tol > 0.0) | (m16 >= 2**53)  # out of Clinger's reach
    if 2 * np.count_nonzero(far) > a.size:  # mostly: the interval decides every value
        return _read_back(a, n, x, rest, m15, m16, tie)
    scale = np.take(_POW10, 15 - x, mode="clip")  # exact where Clinger's path applies
    fits15 = m15 / scale == a
    odd = ~fits15 & tie
    digits = np.where(fits15, 10 * m15, np.where(m16 / scale == a, 10 * m16, n))
    far = np.flatnonzero(far)
    if far.size:
        x = x.copy()
        digits[far], x[far], odd[far] = _read_back(
            a[far], n[far], x[far], rest[far], m15[far], m16[far], tie[far]
        )
    return digits, x, odd


def _read_back(a, n, x, rest, m15, m16, tie) -> tuple[np.ndarray, ...]:
    """_shortest's (N, X, odd) of each a = (N + rest) 10^(X - 16) whose
    candidates read back by a's rounding interval; a candidate within _TOL of
    an end of it is odd."""
    table, shifts, _ = _pow10_table()
    m, e = np.frexp(a)
    # Half an ulp above a, and below it, in units of N; the ulp of a
    # subnormal is 2^-1074.
    row = x - _E_MIN
    above = np.ldexp(table[0, row], shifts[row] + np.maximum(e, -1021) - 54)
    below = np.where((m == 0.5) & (e > -1021), above / 2, above)
    d15 = (10 * m15 - n) - rest
    d16 = (10 * m16 - n) - rest
    inside = lambda d: (d < above) & (d > -below)
    edge = lambda d: (np.abs(d - above) <= _TOL) | (np.abs(d + below) <= _TOL)
    fits15 = inside(d15)
    # Below a power of two the 16-digit value above a can read back when D16 does not.
    up = (d16 < 0) & ~inside(d16) & (below < above)
    fits16 = inside(np.where(up, d16 + 10, d16))
    doubt16 = edge(d16) | (up & edge(d16 + 10))
    odd = edge(d15) | (x <= -310) | ~fits15 & (tie | doubt16)
    n = np.where(fits15, 10 * m15, np.where(fits16, 10 * (m16 + up), n))
    carry = n == 10**17  # '1e+23' for the double below 10^23
    return np.where(carry, 10**16, n), x + carry, odd


def _rounded(n, x, rest, tol, digits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N rounded to digits significant digits, its X, the ties) of N + rest, rest within tol."""
    unit = 10 ** (17 - digits)
    q = n // unit
    s = (n - q * unit - unit // 2) + rest
    q = q + (s > 0)
    carry = q == 10**digits
    return np.where(carry, 10**16, q * unit), x + carry, np.abs(s) <= tol


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The words of every 4-digit group, the significant-digit ends of every
    group at each of its four places, the head word of each lead digit and
    the exponent words of each X."""
    g = np.arange(10_000, dtype=np.int16)  # small dtypes keep the build's peak low
    group_words = geometry._number_words()[10_000:20_000]  # g zero-padded to four digits
    # The significant digits of N through group j's last nonzero digit, or 1
    # (the lead digit) when group j is zero.
    sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    places = np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    ends = np.where(g > 0, places + sig.astype(np.uint8), 1).astype(np.uint8, copy=False)
    head = np.frombuffer(b"0\0.-", dtype=np.uint8).reshape(1, 4).repeat(10, axis=0)
    head[:, 0] += np.arange(10, dtype=np.uint8)
    exponents = b"".join([(b"e%+03d" % x).ljust(8, b"\0") for x in range(_E_MIN, _E_MAX + 1)])
    return group_words, ends, head.view("<u4").ravel(), np.frombuffer(exponents, dtype="<u8")


@functools.cache
def _text_templates(layout: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Row byte sources of the text of every key (class * 17 + nd - 1) * 2 + sign
    in layout, the key of each X = _E_MIN.._E_MAX less 2 nd + sign, and the
    first key of the exponent notation.

    Fixed notation: the digits after -X leading zeros when X < 0, the point
    after the whole part unless nothing follows it ('%.17g'), or '.0' after an
    integral value (repr).  Exponent notation: d.ddd, then 'e', the sign and
    two or three digits.  The sign goes first; spaces align the text right.
    """
    fixed_max, point_zero, shown, width = _LAYOUTS[layout]
    pad, dot, minus, zero, space, e = 1, 2, 3, 20, 21, 24
    fixed = fixed_max + 5  # classes X = -4..fixed_max; then two- and three-digit exponents
    cls, nd = (m.reshape(-1, 1) for m in np.meshgrid(
        np.arange(fixed + 2, dtype=np.int16), np.arange(1, 18, dtype=np.int16),
        indexing="ij"))
    nd = np.maximum(nd, shown)
    x = cls - 4
    c = np.arange(_G17_WIDTH, dtype=np.int16)
    in_fixed = cls < fixed
    zeros = np.where(in_fixed, np.maximum(-x, 0), 0)
    whole = np.where(in_fixed, np.maximum(x, 0) + 1, 1)
    end = zeros + nd
    frac = end > whole
    point = frac | (in_fixed & point_zero)
    body = np.where(frac, end + 1, np.where(point, whole + 2, whole))
    size = body + np.where(in_fixed, 0, 4 + (cls > fixed))
    k = np.where(c < whole, c, c - 1) - zeros  # digit index
    digit = np.where(k < 0, zero, np.where(k == 0, 0, k + 3))
    src = np.select(
        [(c < whole) | (frac & (c > whole) & (c < body)), point & (c == whole),
         point & (c == whole + 1), c < size],
        [digit, dot, zero, e + c - body],
        pad,
    )
    signed = np.concatenate([np.full_like(src[:, :1], minus), src], axis=1)
    templates = []
    for sign in (0, 1):
        lead = np.maximum(width - size - sign, 0)  # spaces before the text
        at = np.clip(c - lead + 1 - sign, 0, _G17_WIDTH)
        templates.append(np.where(c < lead, space, np.take_along_axis(signed, at, axis=1)))
    templates = np.stack(templates, axis=1).reshape(-1, _G17_WIDTH).astype(np.intp)
    xs = np.arange(_E_MIN, _E_MAX + 1)
    classes = np.where((xs >= -4) & (xs <= fixed_max), xs + 4, fixed + (np.abs(xs) >= 100))
    return templates, classes * 34 - 2, fixed * 34


@functools.cache
def _run_offsets() -> np.ndarray:
    """The byte offsets of _RUN consecutive rows, each repeated for its slot."""
    return np.repeat(np.arange(0, _RUN * _ROW_BYTES, _ROW_BYTES), _G17_WIDTH)


def _gather(v, n, x, slow, layout: str) -> np.ndarray:
    """The (values, _G17_WIDTH) uint8 text slots of a flat float64 array with
    digits N and exponents X in layout, NUL-padded, the values at the indices
    slow in Python's own text."""
    group_words, ends_table, head_words, exp_words = _digit_tables()
    templates, heads, exponents = _text_templates(layout)
    q = n // 10**8
    lead = q // 10**8
    hi8, lo8 = q - lead * 10**8, n - q * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    groups = (g1, hi8 - g1 * 10**4, g3, lo8 - g3 * 10**4)
    e1, e2, e3, e4 = (ends[g] for ends, g in zip(ends_table, groups))
    nd = np.maximum(np.maximum(e1, e2), np.maximum(e3, e4))
    key = np.take(heads, x - _E_MIN) + nd * 2 + np.signbit(v)

    row = np.empty((v.size, _ROW_BYTES // 8), dtype="<u8")
    if v.size and key.max() >= exponents:  # some text has an exponent
        row[:, 3] = np.take(exp_words, x - _E_MIN)
    row = row.view("<u4")
    row[:, 0] = head_words[lead]
    for j, g in enumerate(groups):
        row[:, 1 + j] = group_words[g]
    row[:, 5] = _ZERO_SPACE
    # The byte index holds 25 intp per value; the writers' blocks bound its
    # size.  Row i's offset _ROW_BYTES i goes in by two adds over whole runs.
    run = max(1, min(_RUN, v.size))
    index = np.empty((-(-v.size // run) * run, _G17_WIDTH), dtype=np.intp)
    np.take(templates, key, axis=0, out=index[: v.size], mode="clip")
    runs = index.reshape(-1, run * _G17_WIDTH)
    runs += _run_offsets()[: runs.shape[1]]
    if len(runs) > 1:
        runs += np.arange(0, len(runs) * run * _ROW_BYTES, run * _ROW_BYTES)[:, None]
    text = np.take(row.view(np.uint8).ravel(), index[: v.size])
    if slow.size:
        y = v[slow].tolist()
        cells = _json_floats(y) if layout == "repr" else [layout % value for value in y]
        padded = "".join([cell.ljust(_G17_WIDTH, "\0") for cell in cells]).encode("ascii")
        text[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _G17_WIDTH)
    return text


def _format_g17(values: np.ndarray, shortest: bool = False) -> bytes:
    """The rows of a (rows, width) float64 block as text: each value as
    '%.17g' % x, joined by ',' within a row, each row ended by a newline.
    With shortest, each value as json writes it (float.__repr__, NaN,
    Infinity, -Infinity) and each row ended by ']', which is in no JSON
    number.  Each text is padded with NULs to _G17_WIDTH bytes, the last
    of which takes the separator; the pads are deleted at the end."""
    width = values.shape[1]
    v = np.asarray(values, dtype=np.float64).ravel()
    n, x, slow = _g17_decimal(v, shortest)
    text = _gather(v, n, x, slow, "repr" if shortest else "%.17g")
    text[:, -1] = ord(",")
    text[width - 1 :: width, -1] = ord("]" if shortest else "\n")
    return text.tobytes().translate(None, b"\0")


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
