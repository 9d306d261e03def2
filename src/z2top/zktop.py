"""The k+1 variable generalization: each velocity is the product of the others.

d omega_i / dt = prod_{j != i} omega_j.  All squares share one time
derivative, so the pairwise differences omega_i^2 - omega_j^2 are conserved.
The associated quadrature is hyperelliptic of genus k - 1.  Only the flow,
these integrals and the genus count are in scope; the package does not ship
a reduced solver for general k yet.  ZkSystem carries the flow's degree k
and its one term per component, from which dynamics.guarded_horizon bounds
the pole as it does the top's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import TopSystem, Trajectory
from .errors import InvalidParameterError
from .integrate import adaptive_rk
from .invariants import DriftReport, _series_drift


@dataclass(frozen=True)
class ZkSystem:
    """k + 1 coupled variables, k >= 2."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise InvalidParameterError(f"k must be an integer >= 2, got {self.k!r}")

    #: Unit monomials per velocity component: the product of the other k.
    terms = 1

    @property
    def d(self) -> int:
        return self.k + 1

    @property
    def degree(self) -> int:
        """Homogeneity degree q = k of the velocity."""
        return self.k

    check_state = TopSystem.check_state


@functools.lru_cache(maxsize=8)
def _others(dim: int) -> np.ndarray:
    """Row i lists the indices j != i of 0..dim-1 in increasing order."""
    j = np.arange(dim - 1)
    table = j + (j >= np.arange(dim)[:, None])
    table.flags.writeable = False
    return table


def zk_rhs(system: ZkSystem, omega: Sequence[float]) -> np.ndarray:
    """Component i is the product of all other components, taken in index order."""
    w = system.check_state(omega)
    return w[_others(system.d)].prod(axis=1)


def _square_differences(w: np.ndarray) -> np.ndarray:
    """omega_i^2 - omega_{i+1}^2 over the last axis of a (..., k + 1) array."""
    sq = w * w
    return sq[..., :-1] - sq[..., 1:]


def zk_invariants(system: ZkSystem, omega: Sequence[float]) -> np.ndarray:
    """Adjacent differences of squares, omega_i^2 - omega_{i+1}^2, i = 1..k."""
    return _square_differences(system.check_state(omega))


def zk_genus(k: int) -> int:
    """Genus of the hyperelliptic quadrature: k - 1."""
    if not isinstance(k, int) or k < 2:
        raise InvalidParameterError(f"k must be an integer >= 2, got {k!r}")
    return k - 1


def integrate_zk(
    system: ZkSystem,
    omega0: Sequence[float],
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    sample_interval: Optional[float] = None,
) -> Trajectory:
    omega0 = system.check_state(omega0)
    rhs = lambda t, x: zk_rhs(system, x)
    return Trajectory(
        "zk", *adaptive_rk(rhs, omega0, t_end, rel_tol, abs_tol, sample_interval=sample_interval)
    )


@np.errstate(over="ignore", invalid="ignore")  # a NaN drift fails the gate
def zk_drift_report(system: ZkSystem, trajectory: Trajectory) -> DriftReport:
    """Drift of the pairwise square-difference integrals along a trajectory."""
    if trajectory.states.shape[1] != system.d:
        raise InvalidParameterError("trajectory dimension does not match the system")
    names = tuple(f"D_{i + 1}_{i + 2}" for i in range(system.k))
    values = _square_differences(trajectory.states).T  # (k, samples)
    return DriftReport(names, *_series_drift(trajectory.times, values), skipped_samples=0)
