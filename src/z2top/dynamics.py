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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Literal, Optional, Sequence

import numpy as np

from . import gf2, geometry
from .errors import InvalidParameterError
from .integrate import COMPLETED, adaptive_rk

#: Largest n for which the dense RHS index tables are built.
MAX_N_SYSTEM = 10

#: Fraction of the majorant's earliest pole time that the default horizon spans.
HORIZON_BUDGET = 0.4

#: Rows per block of Trajectory.to_csv.
_CSV_BLOCK_ROWS = 64

RhsKind = Literal["omega", "a"]


@dataclass(frozen=True, eq=False)
class TopSystem:
    """Immutable bundle of the transform matrix and the RHS index tables."""

    n: int
    d: int
    a_matrix: np.ndarray
    # pair_idx[i] lists the (d+1)/2 - 1 pairs {j, k} (0-based, j < k, j
    # increasing) such that {i+1, j+1, k+1} is a line.  Its [:, :, 0] and
    # [:, :, 1] planes are contiguous, which keeps the gathers on them fast.
    pair_idx: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, n: int) -> "TopSystem":
        if not isinstance(n, int) or n < 2 or n > MAX_N_SYSTEM:
            raise InvalidParameterError(f"n must be an integer in 2..{MAX_N_SYSTEM}, got {n!r}")
        d = geometry.num_points(n)
        pts = np.arange(1, d + 1, dtype=np.int64)
        rev = np.zeros_like(pts)
        for k in range(n):
            rev |= ((pts >> k) & 1) << (n - 1 - k)
        a = gf2.parity(rev[:, None] & pts, n)
        # The line through i and q is {i, q, q ^ i}; take each pair once, q < q ^ i.
        i = pts[:, None]
        q = np.broadcast_to(pts, (d, d))[pts < (pts ^ i)].reshape(d, 2 ** (n - 1) - 1)
        planes = np.stack([q - 1, (q ^ i) - 1]).astype(np.intp, copy=False)
        return cls(n=n, d=d, a_matrix=a, pair_idx=planes.transpose(1, 2, 0))

    def check_state(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise InvalidParameterError(f"state must have length {self.d}, got shape {x.shape}")
        return x


def omega_rhs(system: TopSystem, omega: Sequence[float]) -> np.ndarray:
    """Velocity in omega coordinates: sum of omega_j omega_k over lines through i."""
    w = system.check_state(omega)
    return (w[system.pair_idx[:, :, 0]] * w[system.pair_idx[:, :, 1]]).sum(axis=1)


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
        dim = self.states.shape[1]
        template = ",".join(["%.17g"] * (dim + 1)) + "\n"
        times = self.times.tolist()
        blocks = ["t," + ",".join([f"x_{j}" for j in range(1, dim + 1)]) + "\n"]
        # Rows are formatted one at a time and joined in blocks: a tolist() of
        # the whole array, or one string per row kept to the end, raises the
        # peak memory above what csv.writer needed.
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            rows = zip(times[start:stop], self.states[start:stop])
            blocks.append("".join([template % (t, *x.tolist()) for t, x in rows]))
        return "".join(blocks)

    def to_json_dict(self, **metadata) -> dict:
        out = {
            "schema_version": 1,
            "kind": self.kind,
            "termination": self.termination,
            "t": self.times.tolist(),
            "x": self.states.tolist(),
        }
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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_items(items, ind: str) -> str:
    """The items of a non-empty list, one per line at indent ind, comma-separated.

    Items that are all exactly float or all exactly int, or equal-length rows
    of such, go through one % template.  The type test is exact because
    '%r' % np.float64(x) and '%d' % True misprint.
    """
    sep = ",\n" + ind
    rows = set(map(type, items)) <= {list, tuple} and len(set(map(len, items))) == 1
    values = tuple(chain.from_iterable(items)) if rows else items
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        cell = "%r" if kinds == {float} else "%d"
        if rows:
            nl = "\n" + ind + " "
            cell = "[" + nl + ("," + nl).join([cell] * len(items[0])) + "\n" + ind + "]"
        block = sep.join([cell] * len(items)) % tuple(values)
        if "n" in block:  # only nan and inf spell an n
            block = block.replace("nan", "NaN").replace("inf", "Infinity")
        return block
    return sep.join([_json_value(x, ind) for x in items])


def _json_value(obj, ind: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=1) writes it, nested at indent ind."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    inner = ind + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + inner + _json_items(obj, inner) + "\n" + ind + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep = ",\n" + inner
        body = sep.join([_json_str(k) + ": " + _json_value(obj[k], inner) for k in sorted(obj)])
        return "{\n" + inner + body + "\n" + ind + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1) + "\\n", without json's pure-Python encoder.

    json drops to that encoder whenever indent is set.  Keys must be str.
    """
    return _json_value(obj, "") + "\n"


def trajectory_json(trajectory: Trajectory, **metadata) -> str:
    return _json_text(trajectory.to_json_dict(**metadata))
