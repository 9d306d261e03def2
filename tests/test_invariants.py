import json
import math

import numpy as np
import pytest

from z2top.dynamics import TopSystem, Trajectory, a_transform, guarded_horizon, integrate
from z2top import geometry, invariants
from z2top.errors import BranchError, DegenerateOrbitError, InvalidParameterError
from z2top.invariants import (
    _gamma,
    big_T,
    drift_report,
    gamma,
    gamma_jacobian_rank,
    independent_count,
    n_matrix,
)


def test_big_t_examples(systems):
    assert big_T(systems[2], [5.0, 4.0, 3.0]) == pytest.approx(60.0)
    assert big_T(systems[3], np.ones(7)) == pytest.approx(1.0)
    assert big_T(systems[3], np.full(7, 4.0)) == pytest.approx(4.0 ** (7.0 / 3.0))


def test_big_t_large_n_does_not_overflow():
    # prod(a) = 40^255 overflows a double; the root of it, 40^(255/127), does not.
    system = TopSystem.create(8)
    assert big_T(system, np.full(255, 40.0)) == pytest.approx(40.0 ** (255 / 127), rel=1e-13)


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
        # The drift report's N_1j row starts from the same values.
        single = Trajectory(kind="a", times=np.zeros(1), states=a[None], termination="completed")
        row = drift_report(systems[n], single).initial[systems[n].d :]
        assert np.allclose(row, mat[0, 1:])


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


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_gamma_batch_matches_reference_product(n, systems):
    # Reference: a_i times the product of (a_j - a_k) over the pairs in
    # table order, one state at a time; the batched route on the (d, samples)
    # layout must agree exactly.  State 0 has a_j = a_k on a line through 1,
    # so some factors are exactly zero.
    system = systems[n]
    a = np.random.default_rng(n).uniform(-1.0, 1.0, (9, system.d))
    j, k = system.pair_idx[0, -1]
    a[0, k] = a[0, j]
    expected = [
        [row[i] * math.prod(row[j] - row[k] for j, k in system.pair_idx[i]) for i in range(system.d)]
        for row in a.tolist()
    ]
    assert np.array_equal(_gamma(np.ascontiguousarray(a.T), system.pair_idx).T, expected)
    assert _gamma(a[0], system.pair_idx)[0] == 0.0


def _gamma_four_calls(a, pair_idx):
    # The loop _gamma replaced: per pair column, two takes, a subtract and a
    # multiply, in the same product order.
    j, k = pair_idx[:, :, 0], pair_idx[:, :, 1]
    prod = a[j[:, 0]] - a[k[:, 0]]
    aj, ak = np.empty_like(prod), np.empty_like(prod)
    for col in range(1, j.shape[1]):
        np.take(a, j[:, col], axis=0, out=aj, mode="clip")
        np.take(a, k[:, col], axis=0, out=ak, mode="clip")
        prod *= np.subtract(aj, ak, out=aj)
    return np.multiply(prod, a, out=prod)


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_matches_four_call_loop_bit_for_bit(n, systems):
    # One take of both pair columns per factor keeps every product's order,
    # so the bits stay those of the loop on one state and on a sample stack.
    system = systems[n]
    rng = np.random.default_rng(100 + n)
    for samples in (None, 1, 33, 257):
        shape = (system.d,) if samples is None else (system.d, samples)
        a = rng.uniform(-2.0, 2.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
        a[system.pair_idx[0, -1, 1]] = a[system.pair_idx[0, -1, 0]]  # some factors are 0
        expected = _gamma_four_calls(a, system.pair_idx)
        assert np.array_equal(_gamma(a, system.pair_idx).view(np.int64), expected.view(np.int64))


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


def _random_collineation(n: int, rng) -> geometry.Collineation:
    while True:
        try:
            return geometry.Collineation.from_matrix(rng.integers(1, 2**n, n).tolist(), n)
        except InvalidParameterError:  # a singular draw
            pass


@pytest.mark.parametrize("n", range(2, 7))
def test_invariants_follow_collineation_relabellings(n, systems):
    # A collineation g relabels the state, omega'_g(p) = omega_p, and maps
    # hyperplane complements onto hyperplane complements, so a' is a
    # permutation sigma of a: row i of A read through g is row sigma[i].
    system = systems[n]
    eps, m, k = np.finfo(float).eps, 2 ** (n - 1), 2 ** (n - 1) - 1
    rows = {row.tobytes(): i for i, row in enumerate(system.a_matrix)}
    rng = np.random.default_rng(41 + n)
    for _ in range(40):
        perm = np.array(_random_collineation(n, rng).perm) - 1
        sigma = np.array([rows[row.tobytes()] for row in system.a_matrix[:, perm]])
        assert sorted(sigma) == list(range(system.d))
        omega = rng.integers(1, 1000, system.d).astype(float)
        relabelled = np.empty_like(omega)
        relabelled[perm] = omega
        # Integer states: both transforms are exact.
        a, a2 = a_transform(system, omega), a_transform(system, relabelled)
        assert np.array_equal(a2, a[sigma])
        # Each gamma_i is a product of m factors, taken in another order.
        g = np.abs(gamma(system, a))[sigma]
        np.testing.assert_allclose(np.abs(gamma(system, a2)), g, rtol=m * eps, atol=0.0)
        # The N_ij differ only through T, whose d logs are summed in another
        # order: two sums of d terms differ by at most (d - 1) eps sum|log a|.
        rtol = eps * (2 + (system.d - 1) * np.abs(np.log(a)).sum() / k)
        n0 = n_matrix(system, a)[sigma][:, sigma]
        np.testing.assert_allclose(n_matrix(system, a2), n0, rtol=rtol, atol=0.0)


def _rank_states(system):
    """a = A omega with omega ~ U(0.1, 0.5) from seed 1, as `run --seed 1`
    draws it, and a ~ U(0.5, 2) from a seed of its own."""
    omega = np.random.default_rng(1).uniform(0.1, 0.5, system.d)
    uniform = np.random.default_rng(31 + system.n).uniform(0.5, 2.0, system.d)
    return a_transform(system, omega), uniform


@pytest.mark.parametrize("n", range(2, 11))
def test_independent_count(n, systems):
    for a in _rank_states(systems[n]):
        assert independent_count(systems[n], a) == 2**n - 2


def _near_pair_state(seed):
    """a ~ U(0.5, 2) at n = 10, drawn after an omega ~ U(0.1, 0.5) from the same seed."""
    rng = np.random.default_rng(seed)
    rng.uniform(0.1, 0.5, 1023)
    return rng.uniform(0.5, 2.0, 1023)


@pytest.mark.parametrize("n", range(2, 11))
def test_gamma_rank_deficiency(n, systems):
    # One functional relation among the 2^n - 1 polynomials.
    states = list(_rank_states(systems[n]))
    if n == 10:
        # Near-equal pairs put sigma_{d-1} / sigma_1 at 2.6e-9 and 7.0e-9 here,
        # so a fixed 1e-8 cutoff counted 1021.
        states += [_near_pair_state(3), _near_pair_state(5)]
    for a in states:
        assert gamma_jacobian_rank(systems[n], a) == 2**n - 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ranks_over_many_states(n, systems):
    # numpy's rank tolerance, sigma_1 * d * eps, leaves the least room at
    # n = 2: over these states the gamma Jacobian's zero singular value
    # reaches 0.36 of it.
    system = systems[n]
    rng = np.random.default_rng(n)
    omega = rng.uniform(0.1, 0.5, (1000, system.d))
    for a in [*a_transform(system, omega), *rng.uniform(0.5, 2.0, (1000, system.d))]:
        assert independent_count(system, a) == gamma_jacobian_rank(system, a) == 2**n - 2


def test_gamma_rank_degenerate_orbit(systems):
    # a_2 = a_3 kills the {1,2,3} factor of gamma_1; a_1 = 0 kills gamma_1 itself.
    for a in ([1.5, 0.7, 0.7], [0.0, 0.7, 0.9]):
        with pytest.raises(DegenerateOrbitError):
            gamma_jacobian_rank(systems[2], a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_jacobians_match_central_differences(n, systems, monkeypatch):
    # The closed-form Jacobians of the N_1j and of log|gamma_i| that the rank
    # checks build, against central differences of the integrals themselves.
    system = systems[n]
    captured = []
    monkeypatch.setattr(invariants, "_rank", captured.append)
    a = np.random.default_rng(43 + n).uniform(0.5, 2.0, system.d)
    independent_count(system, a)
    gamma_jacobian_rank(system, a)
    integrals = (
        lambda x: n_matrix(system, x)[0, 1:],
        lambda x: np.log(np.abs(_gamma(x, system.pair_idx))),
    )
    h = 1e-6
    for jac, f in zip(captured, integrals):
        central = np.column_stack([(f(a + h * e) - f(a - h * e)) / (2 * h) for e in np.eye(len(a))])
        assert np.allclose(jac, central, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conservation_laws_symbolic(n, systems):
    # Exact, from the pair partition in pair_idx and d = 2m - 1, m = 2^(n-1),
    # for the a-flow da_i/dt = a_i (S - a_i) (test_transform_commutation ties
    # it to omega_rhs).  S stays a free symbol until m S = sum(a) is needed.
    import sympy

    system = systems[n]
    d, m = system.d, 2 ** (n - 1)
    a = sympy.symbols(f"a1:{d + 1}", positive=True)
    s = sympy.Symbol("S")
    a_dot = [x * (s - x) for x in a]

    def ddt(f):
        return sympy.expand(sum(sympy.diff(f, x) * v for x, v in zip(a, a_dot)))

    # d log gamma_i/dt = (S - a_i) + sum over the m - 1 pairs {j, k} through i
    # of (S - a_j - a_k) = m S - sum(a), which is 0.
    for i, pairs in enumerate(system.pair_idx.tolist()):
        terms = [sympy.cancel(a_dot[i] / a[i])]
        terms += [sympy.cancel((a_dot[j] - a_dot[k]) / (a[j] - a[k])) for j, k in pairs]
        assert sympy.expand(sum(terms)) == m * s - sum(a)
    # d log T/dt = (d S - sum(a)) / (m - 1) = S, so d log(T/a_i)/dt = a_i and
    # d(T/a_i)/dt = T: every N_ij = T/a_j - T/a_i is conserved.
    log_t = sympy.expand_log(sympy.log(sympy.Mul(*a) ** sympy.Rational(1, m - 1)), force=True)
    assert ddt(log_t) == sympy.expand((d * s - sum(a)) / (m - 1))
    for i in range(d):
        assert sympy.expand(ddt(log_t - sympy.log(a[i])).subs(s, sum(a) / m)) == a[i]


def test_drift_fixed_point(systems):
    w0 = np.zeros(7)
    w0[4] = 1.3
    traj = integrate(systems[3], "omega", w0, 0.5)
    report = drift_report(systems[3], traj)
    assert report.worst_drift == 0.0


def test_drift_random_positive(systems):
    rng = np.random.default_rng(41)
    w0 = rng.uniform(0.1, 1.0, 7)
    t_end = guarded_horizon(systems[3], w0)
    traj = integrate(systems[3], "omega", w0, t_end, 1e-10, 1e-12)
    assert traj.completed
    report = drift_report(systems[3], traj)
    assert report.skipped_samples == 0
    names = [f"gamma_{i}" for i in range(1, 8)] + [f"N_1_{j}" for j in range(2, 8)]
    assert report.names == tuple(names)
    assert np.all(report.max_drift < 1e-8)


def test_drift_symmetric_state_n_vanishes(systems):
    # Symmetric data keeps every N_1j identically zero along the flow.
    traj = integrate(systems[2], "omega", np.ones(3), 0.5, 1e-10, 1e-12)
    report = drift_report(systems[2], traj)
    assert report.names[3:] == ("N_1_2", "N_1_3")
    assert np.all(report.initial[3:] == 0.0)
    assert not np.any(report.relative[3:])
    assert np.all(report.max_drift[3:] < 1e-12)


def test_drift_positivity_failure_counted(systems):
    times = np.array([0.0, 0.1, 0.2])
    states = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0], [1.0, 2.0, 3.0]])
    traj = Trajectory(kind="a", times=times, states=states, termination="completed")
    report = drift_report(systems[2], traj)
    assert report.skipped_samples == 1
    assert report.names == ("gamma_1", "gamma_2", "gamma_3", "N_1_2", "N_1_3")


def test_drift_report_json_and_table(systems):
    traj = integrate(systems[2], "omega", [0.1, 0.2, 0.3], 0.5)
    report = drift_report(systems[2], traj)
    doc = json.loads(report.json_text())
    assert doc["schema_version"] == 1
    assert len(doc["invariants"]) == 3 + 2
    table = report.table()
    assert "invariant" in table.splitlines()[0]
    assert len(table.splitlines()) == 6


def test_drift_rejects_wrong_kind(systems):
    traj = Trajectory(
        kind="zk", times=np.array([0.0]), states=np.ones((1, 3)), termination="completed"
    )
    with pytest.raises(InvalidParameterError):
        drift_report(systems[2], traj)
