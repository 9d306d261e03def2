"""Reduction of the a-flow to one scalar quadrature, and the route comparison.

With T the product root of the a's and U the mean of their inverses, the
column means of the conserved N_ij are the constants M_j = T (1/a_j - U),
computed in that closed form in O(d).  So every a_j is a function of the
two symmetric variables T and U alone, and R = T U obeys the scalar equation

    dR/dt = (prod_j (R + M_j))^(1 / 2^(n-1)) = T,

and the full state is recovered as a_j = T / (R + M_j).  The closure
identity prod_j (R0 + M_j) = T0^(2^(n-1)), checked in logs, is the one gate
on the constants.  The integrand of the associated quadrature lives on a
surface of genus (2^(n-1) - 1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import TopSystem, Trajectory, _json_text, a_transform, integrate
from .errors import BranchError, DegenerateOrbitError, InvalidParameterError
from .integrate import adaptive_rk, check_run, finite_vector
from .invariants import _product_root

_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class ReductionData:
    """Constants of one orbit: M_j = T0 (1/a_j - U0) and the initial T, U, R = T U.

    Their one gate: closure_residual must not exceed _IDENTITY_TOL."""

    n: int
    M: np.ndarray
    t0: float
    u0: float
    r0: float
    closure_residual: float  # |prod(R0 + M_j) / T0^(2^(n-1)) - 1|, evaluated in logs


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a NaN closure raises
def compute_reduction(system: TopSystem, a0: Sequence[float]) -> ReductionData:
    """Constants M_j, T0, U0, R0 for strictly positive, pairwise distinct a0."""
    a0 = system.check_state(a0)
    if np.any(a0 <= 0.0):
        raise DegenerateOrbitError("a0 must be strictly positive")
    if len(np.unique(a0)) != system.d:
        raise DegenerateOrbitError("a0 entries must be pairwise distinct")
    t0 = float(_product_root(a0, system.terms))
    inverse = 1.0 / a0
    u0 = float(np.mean(inverse))
    m = t0 * (inverse - u0)
    r0 = t0 * u0

    closure = abs(np.expm1(np.log(r0 + m).sum() - 2 ** (system.n - 1) * np.log(t0)))
    if not closure <= _IDENTITY_TOL:  # NaN fails too
        raise DegenerateOrbitError(
            f"reduction constants fail their closure identity "
            f"(residual {closure:.2e}); a0 is too close to degenerate"
        )
    return ReductionData(
        n=system.n, M=m, t0=t0, u0=u0, r0=float(r0), closure_residual=float(closure)
    )


def _branch_factors(r, m: np.ndarray) -> np.ndarray:
    """The factors R + M_j, each positive on the real branch (R + M_j = T / a_j);
    r is a float, or an (..., 1) array of values of R."""
    factors = r + m
    # argmin: cheaper than min(), and it picks a NaN; its index is into the flat array.
    if not factors.ravel()[factors.argmin()] > 0.0:
        raise BranchError(f"R + M_j must stay positive, got min {float(factors.min())!r}")
    return factors


def scalar_rhs(r: float, m: Sequence[float], n: int) -> float:
    """dR/dt = (prod_j (R + M_j))^(1 / 2^(n-1)), real branch only."""
    return float(_product_root(_branch_factors(r, np.asarray(m, dtype=float)), 2 ** (n - 1)))


def integrate_R(
    data: ReductionData,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    sample_interval: Optional[float] = None,
) -> Trajectory:
    """Integrate the scalar R equation from R0; halts on branch failure."""
    m = data.M

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        return np.array([scalar_rhs(float(x[0]), m, data.n)])

    x0 = np.array([data.r0])
    return Trajectory(
        "r", *adaptive_rk(rhs, x0, t_end, rel_tol, abs_tol, sample_interval=sample_interval)
    )


def reconstruct_a(r, data: ReductionData) -> np.ndarray:
    """a_j = T / (R + M_j) with T the product root at this R: a (d,) state for
    one R, an (s, d) stack with one row per R for an array of s values."""
    factors = _branch_factors(np.asarray(r, dtype=float)[..., None], data.M)
    return _product_root(factors, 2 ** (data.n - 1))[..., None] / factors


def genus(n: int) -> int:
    """Genus of the surface carrying the scalar quadrature: (2^(n-1) - 1)^2.

    The product under the 2^(n-1)-th root has degree 2^n - 1 in R, so the
    integrand needs 2^(n-1) sheets with 2^(n-1) cuts each; the count below
    is exact integer arithmetic.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")
    return (2 ** (n - 1) - 1) ** 2


@dataclass(frozen=True)
class RouteComparison:
    """Full-flow vs scalar-quadrature solutions sampled on a common grid."""

    n: int
    genus: int
    t_grid: np.ndarray
    max_rel_err: float
    per_component_err: np.ndarray
    omega_termination: str
    scalar_termination: str

    def json_text(self) -> str:
        """The reduce report as text, json.dumps(doc, sort_keys=True, indent=1) + "\\n";
        json.loads gives its dict.  t_grid and per_component_err go to json's C
        encoder as lists, which beats the text kernel below a few hundred values."""
        return _json_text({**vars(self), "schema_version": 1, "t_grid": self.t_grid.tolist(),
                           "per_component_err": self.per_component_err.tolist()})


def compare_routes(
    system: TopSystem,
    omega0: Sequence[float],
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    sample_interval: Optional[float] = None,
) -> RouteComparison:
    """Integrate the full flow and the scalar reduction; compare a(t) pointwise.

    The two routes share one output grid.  Error is relative to the
    full-flow values, reported per component and as an overall max.  Every
    argument is checked before the orbit, so a usage error comes first.
    """
    omega0 = finite_vector(system.check_state(omega0))  # the transform would make inf nan
    sample_interval, _ = check_run(t_end, rel_tol, abs_tol, sample_interval, samples=128)
    data = compute_reduction(system, a_transform(system, omega0))

    full = integrate(
        system, "omega", omega0, t_end, rel_tol, abs_tol, sample_interval=sample_interval
    )
    scalar = integrate_R(
        data, t_end, rel_tol, abs_tol, sample_interval=sample_interval
    )

    # Early-terminated trajectories end with an off-grid sample; compare the
    # common grid-aligned prefix, which holds t = 0 at least.
    shared = min(len(full), len(scalar))
    aligned = full.times[:shared] == scalar.times[:shared]
    if not aligned.all():
        shared = int(np.argmin(aligned))
    a_full = a_transform(system, full.states[:shared])
    a_scalar = reconstruct_a(scalar.states[:shared, 0], data)
    rel = np.abs(a_scalar - a_full) / np.abs(a_full)
    return RouteComparison(
        n=system.n,
        genus=genus(system.n),
        t_grid=full.times[:shared],
        max_rel_err=float(rel.max()),
        per_component_err=rel.max(axis=0),
        omega_termination=full.termination,
        scalar_termination=scalar.termination,
    )
