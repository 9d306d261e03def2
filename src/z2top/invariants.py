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
from itertools import chain
from typing import Sequence

import numpy as np

from .dynamics import TopSystem, Trajectory, _json_floats, _json_str, a_transform
from .errors import BranchError, DegenerateOrbitError, InvalidParameterError

#: Initial values smaller than this are tracked by absolute drift.
ABS_DRIFT_FLOOR = 1e-12

#: Largest (2, d, chunk) pair buffer of _gamma, in bytes.
_GAMMA_BUFFER_BYTES = 512 * 1024


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


def _n_entries(t, ai, aj) -> np.ndarray:
    """N_ij = T (a_i - a_j) / (a_i a_j), broadcast over T, a_i and a_j."""
    return t * (ai - aj) / (ai * aj)


def _gamma(a: np.ndarray, pair_cols: np.ndarray) -> np.ndarray:
    """gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k), over (d,) and
    (d, samples) arrays, with the pairs as TopSystem.pair_cols lays them out.

    The product runs over the pairs in order, one factor at a time.  Each
    factor is one take of both pair columns into a (2, d, chunk) buffer, so on
    a (d, samples) array it gathers whole rows; the samples go in chunks
    whose buffer stays within _GAMMA_BUFFER_BYTES, which keeps it in cache.
    """
    step = max(1, _GAMMA_BUFFER_BYTES // (2 * a.itemsize * len(a)))
    if a.ndim == 2 and a.shape[1] > step:
        out = np.empty_like(a)
        for start in range(0, a.shape[1], step):
            # np.take would copy a strided chunk on every call; copy it once.
            chunk = np.ascontiguousarray(a[:, start : start + step])
            out[:, start : start + step] = _gamma(chunk, pair_cols)
        return out
    prod = a[pair_cols[0, 0]] - a[pair_cols[0, 1]]
    pair = np.empty((2,) + prod.shape, dtype=prod.dtype)
    for col in pair_cols[1:]:
        # mode="clip" changes no index here; it keeps take from buffering out.
        np.take(a, col, axis=0, out=pair, mode="clip")
        prod *= np.subtract(pair[0], pair[1], out=pair[0])
    return np.multiply(prod, a, out=prod)  # a * prod in place: IEEE products commute


def big_T(system: TopSystem, a: Sequence[float]) -> float:
    """(prod a_k)^(1 / (2^(n-1) - 1)), real branch; requires a > 0."""
    return float(_product_root(_positive_a(system, a), system.terms))


def n_matrix(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Antisymmetric matrix N_ij = T (a_i - a_j) / (a_i a_j); requires a > 0."""
    a = _positive_a(system, a)
    return _n_entries(_product_root(a, system.terms), a[:, None], a)


def gamma(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Polynomial integrals gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k).

    Pairs are ordered j < k by canonical index, which fixes the overall sign.
    """
    return _gamma(system.check_state(a), system.pair_cols)


#: drift.json as json.dumps(doc, sort_keys=True, indent=1) lays out the document and one entry.
_DRIFT_DOC = (
    '{\n "invariants": [%s],\n "max_drift": %s,\n "schema_version": 1,\n "skipped_samples": %d\n}\n'
)
_DRIFT_ENTRY = "\n  {%s\n  }," % ",".join(
    f'\n   "{key}": %s' for key in ("initial", "max_drift", "mode", "name", "t_at_max")
)
_TABLE_HEADER = f"{'invariant':<12} {'initial':>24} {'max drift':>13} {'t(max)':>10}"
_TABLE_ROW = "\n%-12s %24.16e %13.3e %s"  # t(max) is written "%10.6f" beforehand


@dataclass(frozen=True, eq=False)
class DriftReport:
    """One row per invariant in each column: name, initial value, largest drift, time of
    that drift, and whether that drift is relative to |initial| (else absolute)."""

    names: tuple[str, ...]
    initial: np.ndarray
    max_drift: np.ndarray
    t_at_max: np.ndarray
    relative: np.ndarray  # bool
    skipped_samples: int  # samples where positivity failed for the N row

    @property
    def worst_drift(self) -> float:
        """Largest drift of any entry; NaN when any entry is NaN, so a gate fails."""
        return float(np.max(self.max_drift, initial=0.0))

    def json_text(self) -> str:
        """drift.json: json.dumps(doc, sort_keys=True, indent=1) + "\\n", each float as
        json's C encoder writes it (float.__repr__, NaN, Infinity, -Infinity)."""
        k = len(self.names)
        values = np.concatenate((self.initial, self.max_drift, [self.worst_drift]))
        num = _json_floats(values.tolist())
        times = _each_time_once(self.t_at_max, _json_floats)
        modes = np.where(self.relative, '"relative"', '"absolute"').tolist()
        rows = zip(num[:k], num[k : 2 * k], modes, map(_json_str, self.names), times)
        entries = (_DRIFT_ENTRY * k)[:-1] % tuple(chain.from_iterable(rows)) + "\n " if k else ""
        return _DRIFT_DOC % (entries, num[-1], self.skipped_samples)

    def table(self) -> str:
        times = _each_time_once(self.t_at_max, lambda ts: ["%10.6f" % t for t in ts])
        rows = zip(self.names, self.initial.tolist(), self.max_drift.tolist(), times)
        return (_TABLE_HEADER + _TABLE_ROW * len(self.names)) % tuple(chain.from_iterable(rows))


def _each_time_once(t: np.ndarray, write) -> list[str]:
    """write's text of each sample time in t, calling write once on the distinct
    values: a report repeats a few sample times hundreds of times.  The values
    are told apart by their bits, so 0.0 and -0.0 keep their own text."""
    bits, inverse = np.unique(t.view(np.int64), return_inverse=True)
    texts = write(bits.view(np.float64).tolist())
    return [texts[i] for i in inverse.tolist()]


def _series_drift(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """(initial, max drift, t at max, relative) of each row (series) of values, from sample 0."""
    v0 = values[:, 0]
    relative = ~(np.abs(v0) < ABS_DRIFT_FLOOR)  # a NaN start stays relative
    drift = np.abs(values - v0[:, None]) / np.where(relative, np.abs(v0), 1.0)[:, None]
    worst = np.argmax(drift, axis=1)
    return v0, drift[np.arange(len(worst)), worst], times[worst], relative


@np.errstate(over="ignore", invalid="ignore")  # a NaN drift fails the gate
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
        a_samples = a_transform(system, trajectory.states)
    else:
        raise InvalidParameterError(f"unsupported trajectory kind {trajectory.kind!r}")

    times, d = trajectory.times, system.d
    positive = np.all(a_samples > 0.0, axis=1)
    keep = slice(None) if positive.all() else positive  # a slice takes views, not copies
    # T sums each sample's logs along a contiguous (samples, d) row, in numpy's order.
    t = _product_root(a_samples[keep], system.terms) if positive[0] else None
    a = np.ascontiguousarray(a_samples.T)  # (d, samples): each gather takes whole rows
    del a_samples  # the transform's (samples, d) result is not needed past here
    names = [f"gamma_{i + 1}" for i in range(d)]
    columns = [_series_drift(times, _gamma(a, system.pair_cols))]
    if positive[0]:
        names += [f"N_1_{j + 2}" for j in range(d - 1)]
        columns.append(_series_drift(times[keep], _n_entries(t, a[0, keep], a[1:, keep])))
    return DriftReport(tuple(names), *map(np.concatenate, zip(*columns)), int((~positive).sum()))


def _rank(jacobian: np.ndarray) -> int:
    """Numerical rank: singular values up to sigma_max * max(shape) * eps count as zero."""
    return int(np.linalg.matrix_rank(jacobian))


def independent_count(system: TopSystem, a: Sequence[float]) -> int:
    """Rank of the Jacobian of the basis integrals {N_1j} at a > 0.

    With k = 2^(n-1) - 1 and T = (prod a)^(1/k), the Jacobian is exact:
    dN_1j/da_l = N_1j / (k a_l) + T (delta_1l / a_1^2 - delta_jl / a_j^2).
    """
    a = _positive_a(system, a)
    k = system.terms
    t = _product_root(a, k)
    jac = np.outer(_n_entries(t, a[0], a[1:]), 1.0 / (k * a))
    jac[:, 0] += t / a[0] ** 2
    jac[:, 1:] -= np.diag(t / a[1:] ** 2)
    return _rank(jac)


def gamma_jacobian_rank(system: TopSystem, a: Sequence[float]) -> int:
    """Rank of the Jacobian of the gamma_i, where every gamma_i != 0 (one relation).

    Its rows rescaled by 1 / gamma_i are the exact Jacobian of log|gamma_i|,
    G[i, l] = delta_il / a_i + sum over lines {i, j, k} of
    (delta_jl - delta_kl) / (a_j - a_k), so both have the same rank.  The pairs
    through i partition the other points, so each G[i, l] has one term.
    """
    a = system.check_state(a)
    j, k = system.pair_idx[:, :, 0], system.pair_idx[:, :, 1]
    diff = a[j] - a[k]
    if not (np.all(a) and np.all(diff)):
        raise DegenerateOrbitError("some gamma_i vanishes: an a_i is 0 or a_j = a_k on a line")
    jac = np.diag(1.0 / a)
    rows = np.arange(system.d)[:, None]
    jac[rows, j] = 1.0 / diff
    jac[rows, k] = -1.0 / diff
    return _rank(jac)
