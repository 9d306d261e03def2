"""First integrals of the top flow and drift measurement along trajectories.

With T the (2^(n-1) - 1)-th root of the product of the a's, the quantities
N_ij = T (a_i - a_j) / (a_i a_j) are conserved, antisymmetric, and satisfy
N_ij = N_1j - N_1i, so the N_1j form a basis of 2^n - 2 independent
integrals.  The products of the N's over the lines through a point collapse
to the polynomial integrals gamma_i = a_i * prod (a_j - a_k), defined at a_j = 0 too.

2^(n-1) - 1 is odd, so T is real for every a with nonzero entries, with the sign of
prod a, which the flow keeps, and the size _product_root computes in logs, finite up
to MAX_N_SYSTEM; the reduction takes its 2^(n-1)-th root the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .dynamics import (
    TopSystem,
    Trajectory,
    _decimal,
    _gather,
    _json_floats,
    _json_str,
    _rounded,
    _shortest,
    a_transform,
)
from .errors import BranchError, DegenerateOrbitError, InvalidParameterError

#: Initial values smaller than this are tracked by absolute drift.
ABS_DRIFT_FLOOR = 1e-12

#: Largest (2, d, chunk) pair buffer of _gamma, in bytes.
_GAMMA_BUFFER_BYTES = 512 * 1024


def _nonzero_a(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    a = system.check_state(a)
    if not np.all(a):
        raise BranchError("all a entries must be nonzero for the real root branch")
    return a


def _product_root(x: np.ndarray, k: int) -> np.ndarray:
    """(prod x)^(1/k) over the last axis of a positive (..., d) array, as exp(sum(log x) / k):
    a plain product of 2^n - 1 entries leaves the double range from n = 8 on."""
    return np.exp(np.add.reduce(np.log(x), axis=-1) / k)


def _big_t(a: np.ndarray, k: int) -> np.ndarray:
    """T = |prod a|^(1/k) with the sign of prod a, over the last axis of a (d,) state or a
    (samples, d) stack, which takes the sign of its first row: a flow keeps every sign."""
    return np.copysign(_product_root(np.abs(a), k), np.sign(a.reshape(-1, a.shape[-1])[0]).prod())


def _n_entries(t, ai, aj) -> np.ndarray:
    """N_ij = T (a_i - a_j) / (a_i a_j), broadcast over T, a_i and a_j."""
    return t * (ai - aj) / (ai * aj)


def _gamma(a: np.ndarray, pair_idx: np.ndarray) -> np.ndarray:
    """gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k), over (d,) and
    (d, samples) arrays, one factor at a time over the pairs of pair_idx in
    order.  They are laid out once per call as (m - 1, 2, d), m = (d + 1) / 2,
    so that each factor is one take of both pair columns into a (2, d, chunk)
    buffer, which gathers whole rows of a (d, samples) array.  The samples go
    in chunks whose buffer stays within _GAMMA_BUFFER_BYTES, in cache."""
    cols = np.ascontiguousarray(pair_idx.transpose(1, 2, 0))
    stack = a.reshape(len(a), -1)
    out = np.empty_like(stack)
    step = max(1, _GAMMA_BUFFER_BYTES // (2 * a.itemsize * len(a)))
    for start in range(0, stack.shape[1], step):
        # np.take would copy a strided chunk on every call; copy it once.
        chunk = np.ascontiguousarray(stack[:, start : start + step])
        prod = chunk[cols[0, 0]] - chunk[cols[0, 1]]
        pair = np.empty((2,) + prod.shape, dtype=prod.dtype)
        for col in cols[1:]:
            # mode="clip" changes no index here; it keeps take from buffering out.
            np.take(chunk, col, axis=0, out=pair, mode="clip")
            prod *= np.subtract(pair[0], pair[1], out=pair[0])
        out[:, start : start + step] = np.multiply(prod, chunk, out=prod)  # IEEE products commute
    return out.reshape(a.shape)


def big_T(system: TopSystem, a: Sequence[float]) -> float:
    """(prod a_k)^(1 / (2^(n-1) - 1)), the real root; requires every a_k != 0."""
    return float(_big_t(_nonzero_a(system, a), system.terms))


def n_matrix(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Antisymmetric matrix N_ij = T (a_i - a_j) / (a_i a_j); requires every a_k != 0."""
    a = _nonzero_a(system, a)
    return _n_entries(_big_t(a, system.terms), a[:, None], a)


def gamma(system: TopSystem, a: Sequence[float]) -> np.ndarray:
    """Polynomial integrals gamma_i = a_i * prod over lines {i,j,k} of (a_j - a_k).

    Pairs are ordered j < k by canonical index, which fixes the overall sign.
    """
    return _gamma(system.check_state(a), system.pair_idx)


#: drift.json as json.dumps(doc, sort_keys=True, indent=1) lays out the document and one entry.
_DRIFT_DOC = (
    '{\n "invariants": [%s],\n "max_drift": %s,\n "schema_version": 1\n}\n'
)
_DRIFT_ENTRY = "\n  {%s\n  }," % ",".join(
    f'\n   "{key}": %s' for key in ("initial", "max_drift", "mode", "name", "t_at_max")
)
_TABLE_HEADER = f"{'invariant':<12} {'initial':>24} {'max drift':>13} {'t(max)':>10}"
_TABLE_ROW = "\n%-12s %24.16e %13.3e %s"  # t(max) is written "%10.6f" beforehand
#: _DRIFT_ENTRY's text around its five values.
_ENTRY_PIECES = _DRIFT_ENTRY.split("%s")
#: Fewest numbers (two per entry) that the drift writers send through the
#: text kernel; below it json's encoder and '%' are faster.  On a 2-vCPU x86
#: host json_text and table took 0.62 ms by either route for 300 numbers
#: (150 entries of a run --n 8 report), and for all 1,018 0.81 ms through the
#: kernel against 1.6 ms.
_KERNEL_MIN_VALUES = 300


def _padded(texts: list[str]) -> np.ndarray:
    """The ASCII texts as the NUL-padded uint8 rows of one matrix."""
    width = max(map(len, texts), default=0)
    padded = "".join([text.ljust(width, "\0") for text in texts]).encode("ascii")
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _byte_rows(k: int, parts) -> tuple[np.ndarray, list[slice]]:
    """A (k, width) uint8 matrix of the parts side by side, a 1-d part in every
    row and a (k, w) part row by row, and the columns of each part."""
    rows = np.empty((k, sum(part.shape[-1] for part in parts)), dtype=np.uint8)
    spans, start = [], 0
    for part in parts:
        spans.append(slice(start, start + part.shape[-1]))
        rows[:, spans[-1]] = part
        start = spans[-1].stop
    return rows, spans


@functools.lru_cache(maxsize=16)
def _name_rows(names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The NUL-padded byte rows of each name's text in drift.json between
    max_drift and the t_at_max value, relative then absolute, and of its table
    row's head, a newline, the name padded to 12 and a space (None unless every
    name is ASCII without a NUL)."""
    _, _, mode_key, name_key, time_key, _ = _ENTRY_PIECES
    json_names = [_json_str(name) for name in names]
    between = [
        _padded([f'{mode_key}"{mode}"{name_key}{name}{time_key}' for name in json_names])
        for mode in ("relative", "absolute")
    ]
    heads = ["\n%-12s " % name for name in names]
    plain = all(head.isascii() and "\0" not in head for head in heads)
    return between[0], between[1], _padded(heads) if plain else None


@dataclass(frozen=True, eq=False)
class DriftReport:
    """One row per invariant in each column: name, initial value, largest drift, time of
    that drift, and whether that drift is relative to |initial| (else absolute).

    Both writers write a report of at least _KERNEL_MIN_VALUES numbers through
    the text kernel (dynamics._gather) from one decimal pass, shared and
    cached: each entry becomes one NUL-padded byte row, and the pads go at the
    end.  A smaller report goes through json's encoder and '%'."""

    names: tuple[str, ...]
    initial: np.ndarray
    max_drift: np.ndarray
    t_at_max: np.ndarray
    relative: np.ndarray  # bool

    @property
    def worst_drift(self) -> float:
        """Largest drift of any entry; NaN when any entry is NaN, so a gate fails."""
        return float(np.max(self.max_drift, initial=0.0))

    @cached_property
    def _digits(self) -> tuple[np.ndarray, ...]:
        """initial and max_drift as one array, then its N, X, rest, tol and slow
        (dynamics._decimal)."""
        values = np.concatenate((self.initial, self.max_drift))
        return (values, *_decimal(values))

    @cached_property
    def _times(self) -> tuple[list[float], np.ndarray]:
        """The distinct sample times of t_at_max and the index of each entry's:
        each writer writes a time once, as a report repeats a few sample times
        hundreds of times.  The values are told apart by their bits, so 0.0 and
        -0.0 keep their own text."""
        bits, inverse = np.unique(self.t_at_max.view(np.int64), return_inverse=True)
        return bits.view(np.float64).tolist(), inverse

    def json_text(self) -> str:
        """drift.json: json.dumps(doc, sort_keys=True, indent=1) + "\\n", each float as
        json's C encoder writes it (float.__repr__, NaN, Infinity, -Infinity)."""
        k = len(self.names)
        distinct, inverse = self._times
        times = _json_floats(distinct)
        worst = _json_floats([self.worst_drift])[0]
        if 2 * k < _KERNEL_MIN_VALUES:
            num = _json_floats(np.concatenate((self.initial, self.max_drift)).tolist())
            modes = np.where(self.relative, '"relative"', '"absolute"').tolist()
            rows = zip(num[:k], num[k:], modes, map(_json_str, self.names),
                       [times[i] for i in inverse.tolist()])
            entries = (_DRIFT_ENTRY * k)[:-1] % tuple(chain.from_iterable(rows)) + "\n " if k else ""
            return _DRIFT_DOC % (entries, worst)
        values, n, x, rest, tol, slow = self._digits
        n, x, odd = _shortest(np.abs(values), n, x, rest, tol)
        num = _gather(values, n, x, np.flatnonzero(slow | odd), "repr")
        relative, absolute, _ = _name_rows(self.names)
        head, middle, *_, tail = (_ascii(piece) for piece in _ENTRY_PIECES)
        rows, spans = _byte_rows(
            k, (head, num[:k], middle, num[k:], absolute, _padded(times)[inverse], tail)
        )
        np.copyto(rows[:, spans[4]], relative, where=self.relative[:, None])
        entries = rows.tobytes().translate(None, b"\0").decode("ascii")
        return _DRIFT_DOC % (entries[:-1] + "\n ", worst)

    def table(self) -> str:
        k = len(self.names)
        distinct, inverse = self._times
        times = ["%10.6f" % t for t in distinct]
        heads = _name_rows(self.names)[2] if 2 * k >= _KERNEL_MIN_VALUES else None
        if heads is None:
            rows = zip(self.names, self.initial.tolist(), self.max_drift.tolist(),
                       [times[i] for i in inverse.tolist()])
            return (_TABLE_HEADER + _TABLE_ROW * k) % tuple(chain.from_iterable(rows))
        values, n, x, rest, tol, slow = self._digits
        n4, x4, tie = _rounded(n[k:], x[k:], rest[k:], tol[k:], 4)
        first = _gather(values[:k], n[:k], x[:k], np.flatnonzero(slow[:k]), "%24.16e")
        second = _gather(values[k:], n4, x4, np.flatnonzero(slow[k:] | tie), "%13.3e")
        first[:, -1] = second[:, -1] = ord(" ")
        rows, _ = _byte_rows(k, (heads, first, second, _padded(times)[inverse]))
        return _TABLE_HEADER + rows.tobytes().translate(None, b"\0").decode("ascii")


def _series_drift(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """(initial, max drift, t at max, relative) of each row (series) of values, from sample 0."""
    v0 = values[:, 0]
    relative = ~(np.abs(v0) < ABS_DRIFT_FLOOR)  # a NaN start stays relative
    drift = np.abs(values - v0[:, None]) / np.where(relative, np.abs(v0), 1.0)[:, None]
    worst = np.argmax(drift, axis=1)
    return v0, drift[np.arange(len(worst)), worst], times[worst], relative


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a NaN drift fails the gate
def drift_report(system: TopSystem, trajectory: Trajectory) -> DriftReport:
    """Max drift of the N_1j and gamma_i along a trajectory, against t = 0.

    Accepts omega- or a-coordinate trajectories.  The gamma_i are polynomial and always
    evaluated; the N_1j when every a_j(0) != 0, with T's sign from sample 0, so an a_j
    that later reaches 0 or changes sign shows up as their drift.
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
    # T sums each sample's logs along a contiguous (samples, d) row, in numpy's order.
    t = _big_t(a_samples, system.terms) if np.all(a_samples[0] != 0.0) else None
    a = np.ascontiguousarray(a_samples.T)  # (d, samples): each gather takes whole rows
    del a_samples  # the transform's (samples, d) result is not needed past here
    columns = [_series_drift(times, _gamma(a, system.pair_idx))]
    if t is not None:
        columns.append(_series_drift(times, _n_entries(t, a[0], a[1:])))
    return DriftReport(_names(d, t is not None), *map(np.concatenate, zip(*columns)))


@functools.cache
def _names(d: int, with_n: bool) -> tuple[str, ...]:
    """The names of the gamma_i, then of the N_1j with with_n; one tuple per
    (d, with_n), so that the writers' cache of their text finds it at once."""
    gammas = tuple(f"gamma_{i + 1}" for i in range(d))
    return gammas + tuple(f"N_1_{j + 2}" for j in range(d - 1)) if with_n else gammas


def _rank(jacobian: np.ndarray) -> int:
    """Numerical rank: singular values up to sigma_max * max(shape) * eps count as zero."""
    return int(np.linalg.matrix_rank(jacobian))


def independent_count(system: TopSystem, a: Sequence[float]) -> int:
    """Rank of the Jacobian of the basis integrals {N_1j} at a with every a_l != 0.

    With k = 2^(n-1) - 1 and T = (prod a)^(1/k), the Jacobian is exact:
    dN_1j/da_l = N_1j / (k a_l) + T (delta_1l / a_1^2 - delta_jl / a_j^2).
    """
    a = _nonzero_a(system, a)
    k = system.terms
    t = _big_t(a, k)
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
