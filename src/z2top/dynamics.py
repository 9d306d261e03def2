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

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from . import gf2, geometry
from .errors import InvalidParameterError
from .integrate import COMPLETED, adaptive_rk

#: Largest n for which the dense RHS index tables are built.
MAX_N_SYSTEM = 10

#: Fraction of the majorant's earliest pole time that the default horizon spans.
HORIZON_BUDGET = 0.4

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


def a_transform(system: TopSystem, omega: Sequence[float]) -> np.ndarray:
    """a = A @ omega: each a sums omega over one hyperplane complement."""
    return system.a_matrix @ system.check_state(omega)


def a_inverse(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Solve A @ omega = a using A^-1 = (A - J/2) / 2^(n-2)."""
    a = system.check_state(a)
    return (system.a_matrix @ a - a.sum() / 2.0) / 2 ** (system.n - 2)


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + [f"x_{j}" for j in range(1, self.states.shape[1] + 1)])
        for t, row in zip(self.times, self.states):
            writer.writerow([format(t, ".17g")] + [format(x, ".17g") for x in row])
        return buf.getvalue()

    def to_json_dict(self, **metadata) -> dict:
        out = {
            "schema_version": 1,
            "kind": self.kind,
            "termination": self.termination,
            "t": [float(t) for t in self.times],
            "x": [[float(x) for x in row] for row in self.states],
        }
        out.update(metadata)
        return out


def guarded_horizon(system: TopSystem, omega0: Sequence[float]) -> float:
    """Pole-free default horizon for positive data.

    Comparison with the uniform majorant u' = (2^(n-1) - 1) u^2 puts the
    first pole no earlier than 1 / ((2^(n-1) - 1) max omega0); HORIZON_BUDGET
    keeps a safety margin below it.
    """
    w = system.check_state(omega0)
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        return HORIZON_BUDGET
    return HORIZON_BUDGET / ((2 ** (system.n - 1) - 1) * peak)


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


def trajectory_json(trajectory: Trajectory, **metadata) -> str:
    return json.dumps(trajectory.to_json_dict(**metadata), sort_keys=True, indent=1) + "\n"
