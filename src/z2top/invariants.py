"""First integrals of the top flow and drift measurement along trajectories.

With T the (2^(n-1) - 1)-th root of the product of the a's, the quantities
N_ij = T (a_i - a_j) / (a_i a_j) are conserved, antisymmetric, and satisfy
N_ij = N_1j - N_1i, so the N_1j form a basis of 2^n - 2 independent
integrals.  The products of the N's over the lines through a point collapse
to the polynomial integrals gamma_i = a_i * prod (a_j - a_k), which stay
defined outside the positive orthant where T does not.

T is computed in the log domain, exp(sum(log a) / (2^(n-1) - 1)), so no
product of 2^n - 1 entries is ever formed and T and the N_ij stay finite up
to MAX_N_SYSTEM; the reduction takes its 2^(n-1)-th root the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import TopSystem, Trajectory
from .errors import BranchError, InvalidParameterError

#: Initial values smaller than this are tracked by absolute drift.
ABS_DRIFT_FLOOR = 1e-12
#: Central-difference step of the Jacobian rank checks, relative to max(1, |x|).
JACOBIAN_STEP = 1e-6
#: Singular values below this fraction of the largest count as zero in a rank.
RANK_SV_CUTOFF = 1e-8


def _positive_a(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    a = system.check_state(a)
    if np.any(a <= 0.0):
        raise BranchError("all a entries must be positive for the real root branch")
    return a


def _product_root(x: np.ndarray, k: int) -> np.ndarray:
    """(prod x)^(1/k) over the last axis of a positive (..., d) array.

    Summed in logs, exp(sum(log x) / k), so no product is formed: a plain
    product of 2^n - 1 entries leaves the double range from n = 8 on.
    """
    return np.exp(np.add.reduce(np.log(x), axis=-1) / k)


def _n_block(a: np.ndarray, n: int, rows: slice, cols: slice) -> np.ndarray:
    """N_ij = T (a_i - a_j) / (a_i a_j) for i in rows, j in cols, over (..., d) arrays."""
    t = _product_root(a, 2 ** (n - 1) - 1)[..., None, None]
    ai = a[..., rows, None]
    aj = a[..., None, cols]
    return t * (ai - aj) / (ai * aj)


def _gamma(a: np.ndarray, pair_idx: np.ndarray) -> np.ndarray:
    """gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k), over (..., d) arrays.

    The product runs over the pairs in order, one (..., d) factor at a time,
    so no temporary outgrows a.
    """
    j, k = pair_idx[:, :, 0], pair_idx[:, :, 1]
    prod = a[..., j[:, 0]] - a[..., k[:, 0]]
    for col in range(1, j.shape[1]):
        prod *= a[..., j[:, col]] - a[..., k[:, col]]
    return a * prod


def big_T(system: TopSystem, a: Sequence[float]) -> float:
    """(prod a_k)^(1 / (2^(n-1) - 1)), real branch; requires a > 0."""
    return float(_product_root(_positive_a(system, a), 2 ** (system.n - 1) - 1))


def n_matrix(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Antisymmetric matrix N_ij = T (a_i - a_j) / (a_i a_j); requires a > 0."""
    return _n_block(_positive_a(system, a), system.n, slice(None), slice(None))


def gamma(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Polynomial integrals gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k).

    Pairs are ordered j < k by canonical index, which fixes the overall sign.
    """
    return _gamma(system.check_state(a), system.pair_idx)


@dataclass(frozen=True)
class DriftEntry:
    name: str
    initial: float
    max_drift: float
    t_at_max: float
    mode: str  # "relative" | "absolute"


@dataclass(frozen=True)
class DriftReport:
    entries: tuple[DriftEntry, ...]
    skipped_samples: int  # samples where positivity failed for the N row

    @property
    def max_drift(self) -> float:
        """Largest drift of any entry; NaN when any entry is NaN, so a gate fails."""
        return float(np.max([e.max_drift for e in self.entries], initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "skipped_samples": self.skipped_samples,
            "max_drift": self.max_drift,
            "invariants": [
                {
                    "name": e.name,
                    "initial": e.initial,
                    "max_drift": e.max_drift,
                    "t_at_max": e.t_at_max,
                    "mode": e.mode,
                }
                for e in self.entries
            ],
        }

    def table(self) -> str:
        lines = [f"{'invariant':<12} {'initial':>24} {'max drift':>13} {'t(max)':>10}"]
        for e in self.entries:
            lines.append(
                f"{e.name:<12} {e.initial:>24.16e} {e.max_drift:>13.3e} {e.t_at_max:>10.6f}"
            )
        return "\n".join(lines)


def _series_drift(
    names: Sequence[str], times: np.ndarray, values: np.ndarray
) -> tuple[DriftEntry, ...]:
    """One entry per column of values (samples x series), each against its t = 0 value."""
    v0 = values[0]
    relative = ~(np.abs(v0) < ABS_DRIFT_FLOOR)  # a NaN start stays relative
    drift = np.abs(values - v0) / np.where(relative, np.abs(v0), 1.0)
    worst = np.argmax(drift, axis=0)
    return tuple(
        DriftEntry(
            name=name,
            initial=float(v0[j]),
            max_drift=float(drift[i, j]),
            t_at_max=float(times[i]),
            mode="relative" if relative[j] else "absolute",
        )
        for j, (name, i) in enumerate(zip(names, worst))
    )


def drift_report(system: TopSystem, trajectory: Trajectory) -> DriftReport:
    """Max drift of the N_1j and gamma_i along a trajectory, against t = 0.

    Accepts omega- or a-coordinate trajectories.  Samples where positivity
    fails are skipped for the N_1j series (counted, not fatal); the gamma_i
    are polynomial and always evaluated.
    """
    if trajectory.states.shape[1] != system.d:
        raise InvalidParameterError("trajectory dimension does not match the system")
    if trajectory.kind == "a":
        a_samples = trajectory.states
    elif trajectory.kind == "omega":
        a_samples = trajectory.states @ system.a_matrix.T
    else:
        raise InvalidParameterError(f"unsupported trajectory kind {trajectory.kind!r}")

    times = trajectory.times
    d = system.d
    entries = _series_drift(
        [f"gamma_{i + 1}" for i in range(d)], times, _gamma(a_samples, system.pair_idx)
    )
    positive = np.all(a_samples > 0.0, axis=1)
    skipped = int(len(times) - positive.sum())
    if positive[0]:
        n_rows = _n_block(a_samples[positive], system.n, slice(0, 1), slice(1, None))[:, 0]
        names = [f"N_1_{j + 2}" for j in range(d - 1)]
        entries += _series_drift(names, times[positive], n_rows)
    return DriftReport(entries=entries, skipped_samples=skipped)


def _jacobian_rank(f, x: np.ndarray) -> int:
    """Numerical rank of the Jacobian of f at x, by central differences.

    Singular values below RANK_SV_CUTOFF * sigma_max count as zero.
    """
    columns = []
    for col in range(len(x)):
        h = JACOBIAN_STEP * max(1.0, abs(x[col]))
        xp, xm = x.copy(), x.copy()
        xp[col] += h
        xm[col] -= h
        columns.append((f(xp) - f(xm)) / (2 * h))
    sv = np.linalg.svd(np.column_stack(columns), compute_uv=False)
    return int(np.sum(sv > RANK_SV_CUTOFF * sv[0]))


def independent_count(system: TopSystem, a: Sequence[float]) -> int:
    """Numerical rank of the Jacobian of the basis integrals {N_1j} at a > 0."""
    a = _positive_a(system, a)
    return _jacobian_rank(lambda x: _n_block(x, system.n, slice(0, 1), slice(1, None))[0], a)


def gamma_jacobian_rank(system: TopSystem, a: Sequence[float]) -> int:
    """Numerical rank of the Jacobian of the gamma_i (detects the one relation)."""
    return _jacobian_rank(lambda x: gamma(system, x), system.check_state(a))
