import math

import numpy as np
import pytest

from z2top.dynamics import Trajectory, a_transform, guarded_horizon, integrate
from z2top.errors import BranchError, InvalidParameterError
from z2top.invariants import (
    _gamma,
    big_T,
    drift_report,
    gamma,
    gamma_jacobian_rank,
    independent_count,
    invariant_set,
    n_first_row,
    n_matrix,
)


def test_big_t_examples(systems):
    assert big_T(systems[2], [5.0, 4.0, 3.0]) == pytest.approx(60.0)
    assert big_T(systems[3], np.ones(7)) == pytest.approx(1.0)
    assert big_T(systems[3], np.full(7, 4.0)) == pytest.approx(4.0 ** (7.0 / 3.0))


def test_big_t_rejects_nonpositive(systems):
    with pytest.raises(BranchError):
        big_T(systems[2], [1.0, -1.0, 2.0])
    with pytest.raises(BranchError):
        big_T(systems[2], [1.0, 0.0, 2.0])


def test_n_matrix_examples(systems):
    n = n_matrix(systems[2], np.array([5.0, 4.0, 3.0]))
    assert n[0, 1] == pytest.approx(60.0 * (5.0 - 4.0) / 20.0)  # = 3
    assert n[0, 1] == pytest.approx(3.0)
    a = np.array([2.0, 2.0, 5.0])
    assert n_matrix(systems[2], a)[0, 1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_n_matrix_antisymmetry_and_relation(n, systems):
    rng = np.random.default_rng(17 * n)
    for _ in range(20):
        a = rng.uniform(0.2, 2.0, systems[n].d)
        mat = n_matrix(systems[n], a)
        assert np.max(np.abs(mat + mat.T)) < 1e-12
        assert np.max(np.abs(np.diag(mat))) == 0.0
        # N_ij = N_1j - N_1i
        recon = mat[0][None, :] - mat[0][:, None]
        assert np.max(np.abs(mat - recon)) < 1e-12
        assert np.allclose(n_first_row(systems[n], a), mat[0, 1:])


def test_gamma_symbolic_n2(systems):
    # Symbolic oracle: gamma_1 in omega variables expands to w3^2 - w2^2.
    import sympy

    w1, w2, w3 = sympy.symbols("w1 w2 w3")
    w = sympy.Matrix([w1, w2, w3])
    a = sympy.Matrix(systems[2].a_matrix) * w
    gamma1 = sympy.expand(a[0] * (a[1] - a[2]))
    assert gamma1 == sympy.expand(w3**2 - w2**2)

    rng = np.random.default_rng(23)
    for _ in range(10):
        wv = rng.uniform(-1.0, 1.0, 3)
        av = a_transform(systems[2], wv)
        assert gamma(systems[2], av)[0] == pytest.approx(wv[2] ** 2 - wv[1] ** 2, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gamma_batch_matches_reference_product(n, systems):
    # Reference: a_i times the product of (a_j - a_k) over the pairs in
    # table order, one state at a time; the batched route must agree exactly.
    system = systems[n]
    a = np.random.default_rng(n).uniform(-1.0, 1.0, (9, system.d))
    expected = [
        [row[i] * math.prod(row[j] - row[k] for j, k in system.pair_idx[i]) for i in range(system.d)]
        for row in a
    ]
    assert np.array_equal(_gamma(a, system.pair_idx), expected)


def test_gamma_vanishes_on_equal_pair(systems):
    # a_2 = a_3 kills the {1,2,3} factor of gamma_1.
    a = np.array([1.5, 0.7, 0.7])
    assert gamma(systems[2], a)[0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_degree_by_homogeneity(n, systems):
    rng = np.random.default_rng(5 * n)
    a = rng.uniform(0.5, 1.5, systems[n].d)
    lam = 1.37
    expected = lam ** (2 ** (n - 1)) * gamma(systems[n], a)
    assert np.allclose(gamma(systems[n], lam * a), expected, rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_equals_product_of_n_entries(n, systems):
    # The product of the N's over the lines through i collapses to gamma_i.
    rng = np.random.default_rng(29 + n)
    for _ in range(10):
        a = rng.uniform(0.3, 2.0, systems[n].d)
        mat = n_matrix(systems[n], a)
        g = gamma(systems[n], a)
        for i in range(systems[n].d):
            prod = 1.0
            for j, k in systems[n].pair_idx[i]:
                prod *= mat[j, k]
            assert prod == pytest.approx(g[i], rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_independent_count(n, systems):
    rng = np.random.default_rng(31 + n)
    a = rng.uniform(0.5, 2.0, systems[n].d)
    assert independent_count(systems[n], a) == 2**n - 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_rank_deficiency(n, systems):
    # One functional relation among the 2^n - 1 polynomials.
    rng = np.random.default_rng(37 + n)
    a = rng.uniform(0.5, 2.0, systems[n].d)
    assert gamma_jacobian_rank(systems[n], a) <= 2**n - 2


def test_drift_fixed_point(systems):
    w0 = np.zeros(7)
    w0[4] = 1.3
    traj = integrate(systems[3], "omega", w0, 0.5)
    report = drift_report(systems[3], traj)
    assert report.max_drift == 0.0


def test_drift_random_positive(systems):
    rng = np.random.default_rng(41)
    w0 = rng.uniform(0.1, 1.0, 7)
    t_end = guarded_horizon(systems[3], w0)
    traj = integrate(systems[3], "omega", w0, t_end, 1e-10, 1e-12)
    assert traj.completed
    report = drift_report(systems[3], traj)
    assert report.skipped_samples == 0
    gammas = [e for e in report.entries if e.name.startswith("gamma")]
    assert len(gammas) == 7
    assert all(e.max_drift < 1e-8 for e in gammas)
    n_rows = [e for e in report.entries if e.name.startswith("N_1_")]
    assert len(n_rows) == 6
    assert all(e.max_drift < 1e-8 for e in n_rows)


def test_drift_symmetric_state_n_vanishes(systems):
    # Symmetric data keeps every N_1j identically zero along the flow.
    traj = integrate(systems[2], "omega", np.ones(3), 0.5, 1e-10, 1e-12)
    report = drift_report(systems[2], traj)
    n_rows = [e for e in report.entries if e.name.startswith("N_1_")]
    assert all(e.initial == 0.0 for e in n_rows)
    assert all(e.mode == "absolute" for e in n_rows)
    assert all(e.max_drift < 1e-12 for e in n_rows)


def test_drift_positivity_failure_counted(systems):
    times = np.array([0.0, 0.1, 0.2])
    states = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0], [1.0, 2.0, 3.0]])
    traj = Trajectory(kind="a", times=times, states=states, termination="completed")
    report = drift_report(systems[2], traj)
    assert report.skipped_samples == 1
    assert any(e.name.startswith("gamma") for e in report.entries)
    assert any(e.name.startswith("N_1_") for e in report.entries)


def test_drift_report_json_and_table(systems):
    traj = integrate(systems[2], "omega", [0.1, 0.2, 0.3], 0.5)
    report = drift_report(systems[2], traj)
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert len(doc["invariants"]) == 3 + 2
    table = report.table()
    assert "invariant" in table.splitlines()[0]
    assert len(table.splitlines()) == 6


def test_invariant_set_bundle(systems):
    a = np.array([5.0, 4.0, 3.0])
    bundle = invariant_set(systems[2], a)
    assert bundle.T == pytest.approx(60.0)
    assert bundle.N[0, 1] == pytest.approx(3.0)
    assert np.allclose(bundle.gamma, gamma(systems[2], a))


def test_drift_rejects_wrong_kind(systems):
    traj = Trajectory(
        kind="zk", times=np.array([0.0]), states=np.ones((1, 3)), termination="completed"
    )
    with pytest.raises(InvalidParameterError):
        drift_report(systems[2], traj)
