"""Adaptive embedded Runge-Kutta integration with PI step control.

Dormand-Prince 5(4) pair (the ode45 tableau) with the stabilized PI
controller of Hairer's DOPRI5 and the matching quartic dense-output
interpolant, so output samples land on an exact fixed grid while steps stay
purely tolerance-controlled.  The flows integrated here blow up in finite
time, so a blow-up guard and a clean termination status are part of the
contract.  Every run ends with its last accepted state, on the grid or off
it, so a step_failure shows where the run stalled.  The terminations:

  completed      reached t_end
  blow_up        max|x| crossed BLOW_UP_THRESHOLD
  step_failure   the controller step underflowed (at once when f(0, x0) is not
                 finite), or the step budget ran out
  branch_failure step underflow caused by the RHS raising BranchError
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BranchError, InvalidParameterError

COMPLETED = "completed"
BLOW_UP = "blow_up"
STEP_FAILURE = "step_failure"
BRANCH_FAILURE = "branch_failure"

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b, the 5th-order weights, is the last row of _A: stage 6 is evaluated at
# the step's new state (FSAL).
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b - b_hat: coefficients of the embedded 4th-order error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Quartic dense-output interpolant: y(t + theta h) = y + h (K^T P) theta_powers.
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

# The tableau rows as arrays, and the stages that _E weights by nonzero
# coefficients, for the stage sums over the (7, dim) stage array.
_A_ROWS = tuple(np.array(row)[:, None] for row in _A)
_E_IDX = np.flatnonzero(_E)
_E_NZ = np.array(_E)[_E_IDX, None]

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - _BETA * 0.75
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 1_000_000
_EPS = float(np.finfo(float).eps)  # the smallest accepted rel_tol

#: Powers theta^1..theta^4 of the dense-output interpolant.
_POWERS = np.arange(1, 5)

#: An accepted state with max|x| at or above this ends the run as blow_up.
BLOW_UP_THRESHOLD = 1e9


def check_run(d, t_end, rel_tol, abs_tol, sample_interval=None, samples=256) -> tuple[float, int]:
    """Check a run of a d-value state before any flow is evaluated, its memory too.  Returns
    the sample interval, t_end / samples by default, and the grid's last index: the first
    i with i * sample_interval >= t_end, in the grid's own float products."""
    # No double resolves a relative tolerance below eps; with |x| >> abs_tol
    # past a pole, the steps would shrink to the roundoff floor.
    if not (_EPS <= rel_tol <= 1e-2):
        raise InvalidParameterError(f"rel_tol must lie in [{_EPS!r}, 1e-2], got {rel_tol!r}")
    if not (0.0 < abs_tol <= 1e-2):
        raise InvalidParameterError(f"abs_tol must lie in (0, 1e-2], got {abs_tol!r}")
    if not (t_end > 0.0) or not math.isfinite(t_end):
        raise InvalidParameterError(f"t_end must be finite and > 0.0, got {t_end!r}")
    if sample_interval is None:
        sample_interval = t_end / samples
        if sample_interval == 0.0:
            raise InvalidParameterError(
                f"--t-end {t_end!r} leaves the default sample interval t_end / {samples} "
                "at 0; pass --sample-interval"
            )
    if not (0 < sample_interval <= t_end):
        raise InvalidParameterError("sample_interval must lie in (0, t_end]")
    ratio = t_end / sample_interval
    if not ratio < 2.0**53:  # past 2^53 the indices i are not exact doubles
        raise InvalidParameterError(
            f"t_end / sample_interval = {ratio!r} samples are too many; "
            "pass a larger --sample-interval"
        )
    last = math.ceil(ratio)
    while (last - 1) * sample_interval >= t_end:
        last -= 1
    while last * sample_interval < t_end:
        last += 1
    try:  # the size of adaptive_rk's times and states, in one block that is freed at once
        np.empty((last + 2, d + 1))
    except (MemoryError, ValueError):
        message = f"{last + 1} samples of {d} values do not fit in memory"
        raise InvalidParameterError(f"{message}; pass a larger --sample-interval") from None
    return sample_interval, last


def _initial_step(f, y0, f0, t_end, rel_tol, abs_tol) -> float:
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # f0 overflowed (d1 inf or nan): the step underflows at once
        return 0.0
    h0 = min(h0, t_end)
    try:
        f1 = f(h0, y0 + h0 * f0)
    except BranchError:
        return min(1e-6, t_end)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def finite_vector(x0: Sequence[float]) -> np.ndarray:
    """x0 as a new float array; it must be a finite 1-d vector."""
    y = np.asarray(x0, dtype=float).copy()
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise InvalidParameterError("x0 must be a finite 1-d vector")
    return y


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step ends the run
def adaptive_rk(
    f: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    t_end: float,
    rel_tol: float,
    abs_tol: float,
    *,
    sample_interval: float | None = None,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Integrate dx/dt = f(t, x) from 0 to t_end, sampling on a fixed grid.

    Returns (times, states, termination).  Grid point i is
    min(i * sample_interval, t_end) for i = 0 up to the first i with
    i * sample_interval >= t_end, so the last two samples can be closer
    together than sample_interval.  The first sample is (0, x0); the last is
    the last accepted state, on the grid or off it, whatever the termination:
    a blow_up trajectory ends with the state that crossed the threshold, a
    failing one where it stalled.  A grid point on a step's end takes the
    accepted state itself; the points strictly inside an accepted step come
    from one batched evaluation of the dense-output interpolant.
    """
    y = finite_vector(x0)
    sample_interval, last = check_run(y.size, t_end, rel_tol, abs_tol, sample_interval)
    y_abs = np.abs(y)

    # times holds the whole grid up front, plus one spare slot for an
    # off-grid last state; rows [0, count) of times and states are output.
    times = np.empty(last + 2)
    states = np.empty((last + 2, y.size))
    grid = times[: last + 1]
    grid[:] = np.minimum(np.arange(last + 1) * sample_interval, t_end)
    states[0] = y
    count = 1

    t = 0.0
    # Row s holds stage s of the current step; row 0 is f(t, y).  A reduce
    # over axis 0 adds the weighted rows in index order, so each stage sum is
    # the left-to-right sum of its terms at every dim.
    K = np.empty((7, y.size))
    K[0] = f(t, y)

    h = _initial_step(f, y, K[0], t_end, rel_tol, abs_tol)
    fac_old = 1e-4
    branch_fail = False

    termination = STEP_FAILURE  # unless the loop ends earlier, the step budget runs out
    for _ in range(_MAX_STEPS):
        if t >= t_end:
            termination = COMPLETED
            break
        # The floor scales with the run, so a horizon below 1e-14 still steps.
        h_floor = 1e-14 * max(min(1.0, t_end), abs(t))
        if h < h_floor:
            termination = BRANCH_FAILURE if branch_fail else STEP_FAILURE
            break
        at_end = h >= t_end - t
        h_step = t_end - t if at_end else h

        try:
            for s in range(1, 7):
                ys = y + h_step * np.add.reduce(_A_ROWS[s] * K[:s], axis=0)
                K[s] = f(t + _C[s] * h_step, ys)
            y_new = ys  # stage 6 is evaluated at the new state
            err_vec = h_step * np.add.reduce(_E_NZ * K[_E_IDX], axis=0)
        except BranchError:
            branch_fail = True
            h = h_step * 0.25
            continue

        # One |y_new| serves the finite check (NaN and inf survive max), the
        # error scale, the blow-up guard and, once accepted, the next |y|.
        y_new_abs = np.abs(y_new)
        peak = y_new_abs.max()
        if not peak < math.inf:
            err = math.inf
        else:
            q = err_vec / (abs_tol + rel_tol * np.maximum(y_abs, y_new_abs))
            err = math.sqrt(np.add.reduce(q * q) / q.size)  # the RMS of q, as np.mean gives it
        branch_fail = False

        if err > 1.0:
            fac = min(1 / _MIN_FACTOR, err**_EXPO / _SAFETY)
            h = h_step / fac
            continue

        t_new = t_end if at_end else t + h_step
        # Grid points in (t, t_new]: one on t_new takes y_new itself, the
        # ones inside the step come from one interpolant evaluation.
        stop = int(np.searchsorted(grid, t_new, side="right"))
        inner = stop
        if grid[stop - 1] == t_new:
            inner -= 1
            states[inner] = y_new
        if inner > count:
            dense = K.T @ _P
            theta = (grid[count:inner] - t) / h_step
            states[count:inner] = y + h_step * np.einsum(
                "ij,mj->mi", dense, theta[:, None] ** _POWERS
            )
        count = stop

        t = t_new
        y, y_abs = y_new, y_new_abs
        K[0] = K[6]  # FSAL
        fac = err**_EXPO / fac_old**_BETA
        fac = max(1 / _MAX_FACTOR, min(1 / _MIN_FACTOR, fac / _SAFETY))
        # The final clamped step must not drag the controller step down.
        h = max(h, h_step / fac) if at_end else h_step / fac
        fac_old = max(err, 1e-4)

        if peak >= BLOW_UP_THRESHOLD:
            termination = BLOW_UP
            break

    if times[count - 1] != t:  # the last accepted state lies off the grid
        times[count], states[count] = t, y
        count += 1
    return times[:count], states[:count], termination
