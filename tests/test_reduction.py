import math

import numpy as np
import pytest

from z2top.dynamics import a_transform, guarded_horizon, integrate
from z2top.errors import BranchError, DegenerateOrbitError, InvalidParameterError
from z2top.integrate import adaptive_rk
from z2top.invariants import big_T
from z2top.reduction import (
    ReductionData,
    compare_routes,
    compute_reduction,
    genus,
    integrate_R,
    reconstruct_a,
    scalar_rhs,
)


def test_compute_reduction_worked_example(systems):
    a0 = np.array([5.0, 4.0, 3.0])
    data = compute_reduction(systems[2], a0)
    assert data.t0 == pytest.approx(60.0)
    assert data.u0 == pytest.approx(47.0 / 180.0)
    assert data.r0 == pytest.approx(47.0 / 3.0)
    # Oracle: M_j = T (1/a_j - U) by direct substitution.
    expected = data.t0 * (1.0 / a0 - data.u0)
    assert np.allclose(data.M, expected, atol=1e-12)
    assert np.allclose(data.M, [-11.0 / 3.0, -2.0 / 3.0, 13.0 / 3.0])
    assert np.allclose(data.r0 + data.M, [12.0, 15.0, 20.0])
    assert data.offset_residual < 1e-10
    assert data.closure_residual < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_m_constants_sum_to_zero(n, systems):
    rng = np.random.default_rng(47 + n)
    for _ in range(10):
        a0 = rng.uniform(0.2, 2.0, systems[n].d)
        data = compute_reduction(systems[n], a0)
        assert abs(data.M.sum()) < 1e-12 * max(1.0, np.abs(data.M).max())


def test_compute_reduction_rejects_degenerate(systems):
    with pytest.raises(DegenerateOrbitError):
        compute_reduction(systems[2], np.full(3, 2.0))
    with pytest.raises(DegenerateOrbitError):
        compute_reduction(systems[2], np.array([1.0, -2.0, 3.0]))
    with pytest.raises(DegenerateOrbitError):
        compute_reduction(systems[2], np.array([1.0, 0.0, 3.0]))


def test_scalar_rhs_closed_form():
    # With all M_j = 0 and n = 2 the velocity is R^(3/2).
    for r in (0.5, 1.0, 2.0, 7.3):
        assert scalar_rhs(r, np.zeros(3), 2) == pytest.approx(r**1.5, rel=1e-14)


def test_scalar_rhs_large_n_does_not_overflow():
    # prod(R + M_j) = 1e3^255 overflows a double; its 128th root does not.
    assert scalar_rhs(1e3, np.zeros(255), 8) == pytest.approx(1e3 ** (255 / 128), rel=1e-13)


def test_scalar_rhs_branch_error():
    with pytest.raises(BranchError):
        scalar_rhs(0.0, np.zeros(3), 2)
    with pytest.raises(BranchError):
        scalar_rhs(1.0, np.array([-2.0, 0.5, 0.5]), 2)
    # A positive product is not enough: every factor R + M_j must be positive.
    with pytest.raises(BranchError):
        scalar_rhs(1.0, np.array([-2.0, -3.0, 0.5]), 2)
    with pytest.raises(BranchError):
        scalar_rhs(math.nan, np.zeros(3), 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scalar_rhs_equals_t0(n, systems):
    rng = np.random.default_rng(53 + n)
    a0 = rng.uniform(0.2, 1.5, systems[n].d)
    data = compute_reduction(systems[n], a0)
    assert scalar_rhs(data.r0, data.M, n) == pytest.approx(data.t0, rel=1e-10)


def test_reconstruct_round_trip(systems):
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        a0 = rng.uniform(0.2, 1.5, systems[n].d)
        data = compute_reduction(systems[n], a0)
        assert np.allclose(reconstruct_a(data.r0, data), a0, rtol=1e-10)


def test_reconstruct_equal_m_gives_equal_a():
    data = ReductionData(
        n=2,
        M=np.array([0.5, 0.5, -1.0]),
        t0=1.0,
        u0=1.0,
        r0=2.0,
        a0=np.ones(3),
        offset_residual=0.0,
        closure_residual=0.0,
    )
    a = reconstruct_a(2.0, data)
    assert a[0] == a[1]


def test_reconstruct_branch_error():
    data = ReductionData(
        n=2,
        M=np.array([-3.0, 1.0, 2.0]),
        t0=1.0,
        u0=1.0,
        r0=1.0,
        a0=np.ones(3),
        offset_residual=0.0,
        closure_residual=0.0,
    )
    with pytest.raises(BranchError):
        reconstruct_a(1.0, data)


def test_integrate_r_monotone(systems):
    a0 = np.array([5.0, 4.0, 3.0]) / 10.0
    data = compute_reduction(systems[2], a0)
    traj = integrate_R(data, 0.5)
    assert traj.completed
    assert np.all(np.diff(traj.states[:, 0]) > 0)  # dR/dt = T > 0


def test_integrate_r_blow_up(systems):
    data = compute_reduction(systems[2], np.array([5.0, 4.0, 3.0]))
    traj = integrate_R(data, 10.0)
    assert traj.termination == "blow_up"


def test_branch_failure_status():
    # A RHS that loses its real branch mid-flight must end with the
    # dedicated status, not an exception.
    def rhs(t, x):
        if t > 0.1:
            raise BranchError("left the branch")
        return np.ones(1)

    times, states, termination = adaptive_rk(rhs, [0.0], 1.0, 1e-10, 1e-12)
    assert termination == "branch_failure"
    assert times[-1] <= 0.2


def test_genus_values():
    assert genus(2) == 1
    assert genus(3) == 9
    assert genus(4) == 49
    assert genus(5) == 225
    with pytest.raises(InvalidParameterError):
        genus(1)


def test_compare_routes_n2_worked(systems):
    rep = compare_routes(systems[2], np.array([0.1, 0.2, 0.3]), 0.2)
    assert rep.max_rel_err < 1e-6
    assert rep.genus == 1
    assert rep.omega_termination == "completed"
    assert rep.scalar_termination == "completed"
    doc = rep.to_json_dict()
    assert doc["schema_version"] == 1
    assert set(doc) >= {"n", "genus", "t_grid", "max_rel_err", "per_component_err"}


@pytest.mark.parametrize("n", [3, 4])
def test_compare_routes_random(n, systems):
    rng = np.random.default_rng(61 + n)
    w0 = rng.uniform(0.1, 0.5, systems[n].d)
    rep = compare_routes(systems[n], w0, guarded_horizon(systems[n], w0))
    assert rep.max_rel_err < 1e-6
    assert len(rep.per_component_err) == systems[n].d


def test_compare_routes_rejects_fixed_point(systems):
    w0 = np.zeros(3)
    w0[0] = 1.0
    with pytest.raises(DegenerateOrbitError):
        compare_routes(systems[2], w0, 0.2)


@pytest.mark.parametrize("n", [2, 3])
def test_closure_relation_along_flow(n, systems):
    # T^(2^(n-1)) = prod(T U + M_j) with M fixed at t = 0 and T, U recomputed
    # from a(t): valid only while the M's are genuinely constant.
    rng = np.random.default_rng(67 + n)
    w0 = rng.uniform(0.1, 0.5, systems[n].d)
    data = compute_reduction(systems[n], a_transform(systems[n], w0))
    traj = integrate(systems[n], "omega", w0, guarded_horizon(systems[n], w0), 1e-10, 1e-12)
    assert traj.completed
    for row in traj.states[:: max(1, len(traj) // 32)]:
        a = a_transform(systems[n], row)
        t_val = big_T(systems[n], a)
        u_val = float(np.mean(1.0 / a))
        power = t_val ** (2 ** (n - 1))
        residual = abs(power - np.prod(t_val * u_val + data.M)) / power
        assert residual < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_m_constant_along_flow(n, systems):
    rng = np.random.default_rng(71 + n)
    w0 = rng.uniform(0.1, 0.5, systems[n].d)
    data0 = compute_reduction(systems[n], a_transform(systems[n], w0))
    traj = integrate(systems[n], "omega", w0, guarded_horizon(systems[n], w0), 1e-10, 1e-12)
    scale = np.abs(data0.M).max()
    for row in traj.states[:: max(1, len(traj) // 8)]:
        data_t = compute_reduction(systems[n], a_transform(systems[n], row))
        assert np.max(np.abs(data_t.M - data0.M)) < 1e-8 * scale


def test_t_and_u_rates_match_finite_differences(systems):
    # d(ln T)/dt = S and dU/dt = -U S + 1, checked by central differences on
    # two grids; the error must shrink like h^2.
    system = systems[3]
    rng = np.random.default_rng(73)
    w0 = rng.uniform(0.1, 0.4, 7)
    t_end = 0.2

    def fd_errors(h):
        traj = integrate(system, "omega", w0, t_end, 1e-12, 1e-14, sample_interval=h)
        a = traj.states @ system.a_matrix.T
        t_vals = np.prod(a, axis=1) ** (1.0 / 3.0)
        u_vals = np.mean(1.0 / a, axis=1)
        s_vals = a.sum(axis=1) / 4.0
        dlnt = (np.log(t_vals[2:]) - np.log(t_vals[:-2])) / (2 * h)
        du = (u_vals[2:] - u_vals[:-2]) / (2 * h)
        err_t = np.max(np.abs(dlnt - s_vals[1:-1]))
        err_u = np.max(np.abs(du - (-u_vals * s_vals + 1.0)[1:-1]))
        return err_t, err_u

    coarse_t, coarse_u = fd_errors(2e-3)
    fine_t, fine_u = fd_errors(1e-3)
    assert coarse_t < 1e-4 and coarse_u < 1e-4
    assert fine_t < 0.6 * coarse_t
    assert fine_u < 0.6 * coarse_u
