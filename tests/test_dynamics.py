import dataclasses
import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import z2top.dynamics
import z2top.zktop
from z2top.dynamics import (
    _HADAMARD_MIN_N,
    MAX_N_SYSTEM,
    TopSystem,
    _hadamard,
    a_inverse,
    a_rhs,
    a_transform,
    guarded_horizon,
    integrate,
    omega_rhs,
    trajectory_json,
)
from z2top.errors import BranchError, InvalidParameterError
from z2top.geometry import Collineation, classic_fano_lines, find_collineation, lines
from z2top.integrate import (
    _A,
    _B,
    _BETA,
    _C,
    _E,
    _EXPO,
    _MAX_FACTOR,
    _MAX_STEPS,
    _MIN_FACTOR,
    _P,
    _SAFETY,
    BLOW_UP_THRESHOLD,
    _initial_step,
    adaptive_rk,
)
from z2top.zktop import ZkSystem, integrate_zk, zk_rhs

from classic_fixtures import CLASSIC_7_A_SETS, CLASSIC_7_PAIRS


def _dot(u: int, v: int) -> int:
    """GF(2) dot product of two int-encoded bit vectors: the reference pairing."""
    return (u & v).bit_count() & 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_matrix_identity(n, systems):
    # A @ A = 2^(n-2) (I + J), checked in exact integer arithmetic (scaled
    # by 4 so the n = 2 case stays integral).
    a = systems[n].a_matrix
    d = 2**n - 1
    lhs = 4 * (a @ a)
    rhs = 2**n * (np.eye(d, dtype=np.int64) + np.ones((d, d), dtype=np.int64))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_a_matrix_identity_freivalds(n, systems):
    # Freivalds' check of 4 A A = 2^n (I + J) at every n: A (A x) against
    # 2^(n-2) (x + sum(x)) for random integer x, exact in int64.
    a = systems[n].a_matrix
    rng = np.random.default_rng(n)
    for _ in range(8):
        x = rng.integers(-1024, 1025, a.shape[0])
        assert np.array_equal(4 * (a @ (a @ x)), 2**n * (x + x.sum()))


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_pairs_partition_other_points(n, systems):
    # The lines through i split the other d - 1 points into pairs.
    pairs = systems[n].pair_idx
    d = systems[n].d
    for i in range(d):
        assert np.array_equal(np.sort(pairs[i].ravel()), np.delete(np.arange(d), i))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_matrix_symmetric_row_sums(n, systems):
    a = systems[n].a_matrix
    assert np.array_equal(a, a.T)
    assert np.all(a.sum(axis=0) == 2 ** (n - 1))
    assert np.all(a.sum(axis=1) == 2 ** (n - 1))


def test_tables_match_definition():
    # Reference loops: A[v-1, p-1] = <rev(v), p> over GF(2), and pair row i
    # lists the sorted (min, max) pairs {q, q ^ i} with q != i.  One pair
    # table: _gamma lays the pairs out as it needs them.
    fields = [f.name for f in dataclasses.fields(TopSystem)]
    assert fields == ["n", "d", "a_matrix", "pair_idx", "rev"]
    for n in range(2, 9):
        system = TopSystem.create(n)
        d = 2**n - 1
        a = np.zeros((d, d), dtype=np.int64)
        for v in range(1, d + 1):
            rv = int(format(v, f"0{n}b")[::-1], 2)
            for p in range(1, d + 1):
                a[v - 1, p - 1] = _dot(rv, p)
        pairs = np.array(
            [
                sorted({(min(q, q ^ i) - 1, max(q, q ^ i) - 1) for q in range(1, d + 1) if q != i})
                for i in range(1, d + 1)
            ],
            dtype=np.intp,
        )
        assert system.a_matrix.dtype == np.int64
        assert system.pair_idx.dtype == np.intp
        assert system.pair_idx.shape == (d, 2 ** (n - 1) - 1, 2)
        assert system.pair_idx[:, :, 0].flags.c_contiguous
        assert system.pair_idx[:, :, 1].flags.c_contiguous
        assert np.array_equal(system.a_matrix, a)
        assert np.array_equal(system.pair_idx, pairs)


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_tables_are_shared_and_read_only(n):
    # The tables are built once per n and shared by every system of that n,
    # so no caller may write into them.
    first, second = TopSystem.create(n), TopSystem.create(n)
    assert first is not second
    assert second.a_matrix is first.a_matrix
    assert second.pair_idx is first.pair_idx
    assert second.rev is first.rev
    for table in (first.a_matrix, first.pair_idx, first.rev):
        with pytest.raises(ValueError):
            table.flat[0] = 1
        with pytest.raises(ValueError):
            table += 0
    # The shared tables are still the right ones: pair row i lists the other
    # two points of each line through i, and A A = 2^(n-2) (I + J), exact in
    # floats since every entry of A A is at most 2^(n-1).
    d = first.d
    expected = [[] for _ in range(d)]
    for line in lines(n):
        for i in line:
            expected[i - 1].append(tuple(sorted(p - 1 for p in line if p != i)))
    assert first.pair_idx.tolist() == [sorted(map(list, pairs)) for pairs in expected]
    a = first.a_matrix.astype(float)
    assert np.array_equal(a @ a, 2.0 ** (n - 2) * (np.eye(d) + 1.0))


def test_largest_system_tables():
    n = MAX_N_SYSTEM
    system = TopSystem.create(n)
    a = system.a_matrix
    assert np.array_equal(a, a.T)
    assert np.all(a.sum(axis=1) == 2 ** (n - 1))
    assert system.pair_idx.shape == (2**n - 1, 2 ** (n - 1) - 1, 2)


def test_a_transform_examples(systems):
    assert np.allclose(a_transform(systems[2], [1.0, 2.0, 3.0]), [5.0, 4.0, 3.0])
    assert np.allclose(a_transform(systems[3], np.ones(7)), np.full(7, 4.0))
    assert np.allclose(a_transform(systems[3], np.zeros(7)), np.zeros(7))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_transform_stack_matches_rows(n, systems):
    # Positive states, as the flow has them: no cancellation in the sums.
    rng = np.random.default_rng(37 + n)
    stack = rng.uniform(0.1, 0.5, (9, systems[n].d))
    rows = np.vstack([a_transform(systems[n], w) for w in stack])
    np.testing.assert_allclose(a_transform(systems[n], stack), rows, rtol=1e-14, atol=0.0)
    assert a_transform(systems[n], stack[None]).shape == (1, 9, systems[n].d)


def test_a_transform_rejects_wrong_length(systems):
    for bad in (np.ones(4), np.ones((5, 4)), np.ones((3, 1)), 1.0):
        with pytest.raises(InvalidParameterError):
            a_transform(systems[2], bad)


def test_a_inverse_examples(systems):
    # Oracle: solve the linear system directly.
    a = np.array([5.0, 4.0, 3.0])
    direct = np.linalg.solve(systems[2].a_matrix.astype(float), a)
    assert np.allclose(direct, [1.0, 2.0, 3.0])
    assert np.allclose(a_inverse(systems[2], a), [1.0, 2.0, 3.0], atol=1e-13)
    assert np.allclose(a_inverse(systems[2], np.zeros(3)), np.zeros(3))


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_hadamard_a_map_is_exact_and_row_by_row(n, systems):
    # Both maps run on the fixed-order transform: exact on small integer
    # states, and each row of a stack comes out as it does alone, so identical
    # samples give identical images at any BLAS setting.
    system = systems[n]
    rng = np.random.default_rng(800 + n)
    x = rng.integers(-1024, 1025, (6, system.d))
    a = a_transform(system, x)
    assert np.array_equal(a, x @ system.a_matrix.T)
    assert np.array_equal(a_inverse(system, a), x)
    w = rng.uniform(-1.0, 1.0, (2, 5, system.d))
    for forward in (a_transform, a_inverse):
        stack = forward(system, w)
        assert stack.shape == w.shape
        rows = np.array([[forward(system, row) for row in block] for block in w])
        assert np.array_equal(stack, rows)
        # Laid out as the rows alone are, so a sum along them rounds the same.
        assert np.array_equal(stack.sum(axis=-1), rows.sum(axis=-1))
        # run maps the samples after row 0, none when the first step fails.
        assert forward(system, np.empty((0, system.d))).shape == (0, system.d)
    # The inverse keeps a zero unsigned: -H a / 2^(n-1) would write -0.
    assert not np.signbit(a_inverse(system, np.zeros(system.d))).any()


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_a_transform_sums_each_complement_alone(n, systems):
    # Each a_v is a plain sum of the omega over its complement, so its error
    # scales with those omega alone: within n eps / 2 of the sum of their
    # magnitudes, on states whose entries span 1e-150..1e150.  A difference of
    # two sums over every omega would be off by eps max|omega|.
    system = systems[n]
    a_matrix = system.a_matrix.astype(bool)
    rng = np.random.default_rng(900 + n)
    eps = np.finfo(float).eps
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, system.d) * 10.0 ** rng.integers(-150, 151, system.d)
        a = a_transform(system, w)
        exact = np.array([math.fsum(w[row]) for row in a_matrix])
        scale = np.array([np.abs(w[row]).sum() for row in a_matrix])
        assert np.all(np.abs(a - exact) <= n * eps / 2 * scale)


def test_a_transform_keeps_small_and_zero_sums(systems):
    # a_3 = omega_1 + omega_2 cancels exactly, and a small hyperplane sum next
    # to a huge omega keeps its own rounding; run keys its N_1j rows on
    # a_j(0) != 0.
    assert a_transform(systems[2], [0.1, -0.1, 0.3])[2] == 0.0
    assert np.array_equal(a_transform(systems[2], [1e-160, 1.0, 1e154]), [1e154, 1e154, 1.0])
    # The three complements that miss omega_1 = 1e16 sum four ones.
    a = a_transform(systems[3], [1e16, 1, 1, 1, 1, 1, 1.0])
    assert np.array_equal(a[systems[3].a_matrix[:, 0] == 0], [4.0, 4.0, 4.0])


@pytest.mark.parametrize("n", [2, 3, 4, 8, 10])
def test_a_round_trip(n, systems):
    rng = np.random.default_rng(42 + n)
    for _ in range(25):
        w = rng.uniform(-1.0, 1.0, systems[n].d)
        assert np.max(np.abs(a_inverse(systems[n], a_transform(systems[n], w)) - w)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_single_component_is_fixed_point(n, systems):
    for i in range(systems[n].d):
        w = np.zeros(systems[n].d)
        w[i] = 1.7
        assert np.array_equal(omega_rhs(systems[n], w), np.zeros(systems[n].d))


def test_omega_rhs_all_ones(systems):
    assert np.allclose(omega_rhs(systems[3], np.ones(7)), np.full(7, 3.0))
    assert np.allclose(omega_rhs(systems[4], np.ones(15)), np.full(15, 7.0))


def test_omega_rhs_classic_labelling_component(systems):
    # In the classical labelling, component 1 of the velocity at (1,...,7)
    # is 2*7 + 6*3 + 5*4 = 52; the canonical system must reproduce it after
    # relabelling by the certifying collineation.
    coll = find_collineation(3, classic_fano_lines())
    w_classic = np.arange(1.0, 8.0)
    w_canon = np.array([w_classic[coll.perm[p - 1] - 1] for p in range(1, 8)])
    rhs_canon = omega_rhs(systems[3], w_canon)
    direct = np.array(
        [sum(w_classic[j - 1] * w_classic[k - 1] for j, k in CLASSIC_7_PAIRS[i]) for i in range(1, 8)]
    )
    assert direct[0] == 52.0
    for p in range(1, 8):
        assert rhs_canon[p - 1] == pytest.approx(direct[coll.perm[p - 1] - 1], abs=1e-12)


def test_omega_rhs_classic_labelling_15d(systems):
    # Full 15-variable check: relabelled through the collineation certifying
    # the classical plane listing, the canonical velocities reproduce the
    # classical 15-variable equation set on random states.
    from z2top.geometry import classic_planes_15, find_hyperplane_collineation

    from classic_fixtures import CLASSIC_15_PAIRS

    coll = find_hyperplane_collineation(4, classic_planes_15())
    rng = np.random.default_rng(103)
    for _ in range(5):
        w_classic = rng.uniform(-1.0, 1.0, 15)
        w_canon = np.array([w_classic[coll.perm[p - 1] - 1] for p in range(1, 16)])
        rhs_canon = omega_rhs(systems[4], w_canon)
        direct = np.array(
            [
                sum(w_classic[j - 1] * w_classic[k - 1] for j, k in CLASSIC_15_PAIRS[i])
                for i in range(1, 16)
            ]
        )
        for p in range(1, 16):
            assert rhs_canon[p - 1] == pytest.approx(direct[coll.perm[p - 1] - 1], abs=1e-13)


def _pair_sums(system, w):
    """The line sums of omega_rhs through the pair table: sum of w_j w_k over
    the pairs {j, k} of the lines through each point."""
    return (w[system.pair_idx[:, :, 0]] * w[system.pair_idx[:, :, 1]]).sum(axis=1)


@pytest.mark.parametrize("n", range(_HADAMARD_MIN_N, MAX_N_SYSTEM + 1))
def test_omega_rhs_hadamard_route_matches_pair_sums(n, systems):
    # Positive states, as the flow has them, and mixed-sign ones, where the
    # transform's sums cancel: each component lies within d eps / 4 of the sum
    # of |w_j w_k| over its pairs (0.015 d eps, or 4 eps, at worst on these seeds).
    system = systems[n]
    rng = np.random.default_rng(500 + n)
    eps = np.finfo(float).eps
    for low in [0.1] * 30 + [-1.0] * 30:
        w = rng.uniform(low, 0.5 if low > 0 else 1.0, system.d)
        scale = _pair_sums(system, np.abs(w))
        assert np.all(np.abs(omega_rhs(system, w) - _pair_sums(system, w)) <= system.d * eps / 4 * scale)


@pytest.mark.parametrize("n", range(_HADAMARD_MIN_N, MAX_N_SYSTEM + 1))
def test_omega_rhs_hadamard_route_is_exact_on_integers(n, systems):
    # With |w_i| <= 1000 every partial sum of both transforms is an integer
    # below 2^53, and the final division is by a power of two.
    system = systems[n]
    rng = np.random.default_rng(800 + n)
    for _ in range(5):
        w = rng.integers(-1000, 1001, system.d).astype(float)
        assert np.array_equal(omega_rhs(system, w), _pair_sums(system, w))


def test_omega_rhs_hadamard_route_has_no_negative_zero(systems):
    system = systems[_HADAMARD_MIN_N]
    one_hot = np.zeros(system.d)
    one_hot[3] = 1.0
    for w in (np.zeros(system.d), one_hot):
        rhs = omega_rhs(system, w)
        assert np.array_equal(rhs, np.zeros(system.d)) and not np.signbit(rhs).any()


@pytest.mark.parametrize("n", range(2, _HADAMARD_MIN_N))
def test_omega_rhs_below_hadamard_threshold_is_the_pair_sum(n, systems):
    # Below the threshold the bytes are the pair table's, which the seeded
    # reduce reports of n <= 7 pin; run integrates the a-flow at every n.
    system = systems[n]
    rng = np.random.default_rng(600 + n)
    for low, high in [(0.1, 0.5)] * 10 + [(-1.0, 1.0)] * 10:
        w = rng.uniform(low, high, system.d)
        assert np.array_equal(omega_rhs(system, w), _pair_sums(system, w))


@pytest.mark.parametrize("n", range(2, MAX_N_SYSTEM + 1))
def test_hadamard_is_exact_on_integers(n, systems):
    # _hadamard is the dense Sylvester product, and (z_0 - z[rev]) / 2 with
    # z = H [0, x] is a_matrix @ x: A = (J - H[rev, 1:]) / 2, the identity
    # behind a_inverse's closed form.
    sylvester = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        sylvester = np.kron(np.array([[1, 1], [1, -1]]), sylvester)
    rev = np.array([int(format(v, f"0{n}b")[::-1], 2) for v in range(1, 2**n)])
    rng = np.random.default_rng(700 + n)
    for _ in range(5):
        x = rng.integers(-1024, 1025, 2**n)
        z = _hadamard(x.astype(float))
        assert np.array_equal(z, sylvester @ x)
        assert np.array_equal(_hadamard(x.astype(float)[:, None])[:, 0], z)
        x[0] = 0
        z = _hadamard(x.astype(float))
        assert np.array_equal((z[0] - z[rev]) / 2, systems[n].a_matrix @ x[1:])


def test_a_transform_matches_classic_7_sums(systems):
    # The a variables of the classical 7-variable listing are sums over its
    # hyperplane complements; after relabelling they coincide (as a multiset)
    # with the canonical transform.
    coll = find_collineation(3, classic_fano_lines())
    rng = np.random.default_rng(107)
    for _ in range(10):
        w = rng.uniform(-1.0, 1.0, 7)
        w_classic = np.empty(7)
        for p in range(1, 8):
            w_classic[coll.perm[p - 1] - 1] = w[p - 1]
        canonical = np.sort(a_transform(systems[3], w))
        classic = np.sort([sum(w_classic[p - 1] for p in s) for s in CLASSIC_7_A_SETS])
        assert np.max(np.abs(canonical - classic)) < 1e-12


def test_rhs_length_mismatch(systems):
    with pytest.raises(InvalidParameterError):
        omega_rhs(systems[2], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        a_rhs(systems[3], np.ones(8))


def test_a_rhs_symmetric_state(systems):
    c = 0.37
    out = a_rhs(systems[2], np.full(3, c))
    assert np.allclose(out, c * c / 2.0)
    assert np.array_equal(a_rhs(systems[3], np.zeros(7)), np.zeros(7))


@pytest.mark.parametrize("n", range(2, 11))
def test_transform_commutation(n, systems):
    system = systems[n]
    rng = np.random.default_rng(7 * n)
    for _ in range(100 if n <= 4 else 0):
        w = rng.uniform(-1.0, 1.0, system.d)
        lhs = a_transform(system, omega_rhs(system, w))
        rhs = a_rhs(system, a_transform(system, w))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    # On integer w in [-1024, 1024] every intermediate value is an integer
    # below 2^53, so m A omega_rhs(w) = a o (sum(a) - m a), a = A w, holds
    # exactly; the right side is computed in int64.
    m = 2 ** (n - 1)
    for _ in range(20):
        w = rng.integers(-1024, 1025, system.d)
        a = system.a_matrix @ w
        lhs = m * a_transform(system, omega_rhs(system, w.astype(float)))
        assert np.array_equal(lhs, a * (a.sum() - m * a))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_difference_equation(n, systems):
    # d(a_i - a_k)/dt = (a_i - a_k)(S - a_i - a_k), pointwise in a.
    rng = np.random.default_rng(3 * n)
    for _ in range(20):
        a = rng.uniform(0.1, 2.0, systems[n].d)
        v = a_rhs(systems[n], a)
        s = a.sum() / 2 ** (n - 1)
        for i in range(systems[n].d):
            for k in range(i + 1, systems[n].d):
                expected = (a[i] - a[k]) * (s - a[i] - a[k])
                assert v[i] - v[k] == pytest.approx(expected, abs=1e-12)


# Components below 1e-100 are drawn as 0, so that no product underflows.
_components = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) >= 1e-100 else 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_collineation_equivariance(n, data, systems):
    # Relabelling omega by a collineation relabels omega' the same way.  The
    # pairs of each line sum come in another order, so the two sides differ
    # by rounding: relative to the sum of |terms|, at most a few ulps.
    system = systems[n]
    # An invertible GF(2) matrix, each row drawn from outside the span of the
    # rows before it: no draw is discarded.
    rows, span = [], {0}
    for _ in range(n):
        row = data.draw(st.sampled_from([v for v in range(1, system.d + 1) if v not in span]))
        rows.append(row)
        span |= {v ^ row for v in span}
    image = np.array(Collineation.from_matrix(rows, n).perm) - 1
    w = data.draw(hnp.arrays(np.float64, system.d, elements=_components))
    w_perm = np.empty_like(w)
    w_perm[image] = w
    lhs = omega_rhs(system, w_perm)[image]
    scale = omega_rhs(system, np.abs(w))
    assert np.all(np.abs(lhs - omega_rhs(system, w)) <= 1e-14 * scale)


def test_integrate_fixed_point(systems):
    w0 = np.zeros(7)
    w0[2] = 0.9
    traj = integrate(systems[3], "omega", w0, 1.0)
    assert traj.completed
    assert np.array_equal(traj.states, np.tile(w0, (len(traj), 1)))
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_symmetric_blowup_solution(systems):
    # Symmetric data solves each component as 1 / (1 - t).
    traj = integrate(systems[2], "omega", np.ones(3), 0.5, 1e-10, 1e-12)
    assert traj.completed
    exact = 1.0 / (1.0 - traj.times)
    assert np.max(np.abs(traj.states - exact[:, None])) < 1e-8
    assert traj.times[-1] == 0.5
    assert np.max(np.abs(traj.states[-1] - 2.0)) < 1e-8


@pytest.mark.parametrize(
    "flow, size", [("top", n) for n in range(2, 7)] + [("zk", k) for k in (2, 4, 6, 12)]
)
def test_time_reversal_returns_to_start(flow, size, systems):
    # Both flows are homogeneous of even degree, so u(t) = -omega(T - t)
    # solves the same equation: integrating from -omega(T) over T must
    # arrive at -omega0.
    if flow == "top":
        system = systems[size]
        run = lambda x0, t_end: integrate(system, "omega", x0, t_end)
    else:
        system = ZkSystem(size)
        run = lambda x0, t_end: integrate_zk(system, x0, t_end)
    w0 = np.random.default_rng(size).uniform(0.1, 0.5, system.d)
    t_end = guarded_horizon(system, w0)
    forward = run(w0, t_end)
    back = run(-forward.states[-1], t_end)
    assert forward.completed and back.completed
    assert np.max(np.abs(back.states[-1] + w0) / w0) < 1e-9


def test_integrate_blow_up_termination(systems):
    traj = integrate(systems[2], "omega", np.ones(3), 2.0, 1e-10, 1e-12)
    assert traj.termination == "blow_up"
    assert np.max(np.abs(traj.states[-1])) >= 1e9
    assert traj.times[-1] < 1.0


def test_integrate_bad_parameters(systems):
    with pytest.raises(InvalidParameterError):
        integrate(systems[2], "omega", np.ones(3), 0.5, rel_tol=0.5)
    with pytest.raises(InvalidParameterError):
        integrate(systems[2], "omega", np.ones(3), 0.5, abs_tol=0.0)
    with pytest.raises(InvalidParameterError):
        integrate(systems[2], "omega", np.ones(3), -1.0)
    with pytest.raises(InvalidParameterError):
        integrate(systems[2], "nope", np.ones(3), 0.5)


def test_step_failure_on_nan_rhs():
    # Past t = 0.5 the RHS is NaN, so every step reaching beyond it is
    # rejected and the controller step underflows just short of 0.5.
    def rhs(t, x):
        return x if t <= 0.5 else np.full_like(x, np.nan)

    times, states, termination = adaptive_rk(rhs, [1.0], 2.0, 1e-10, 1e-12)
    assert termination == "step_failure"
    # The last row is the last accepted state, where the run stalled.
    assert times[-1] == pytest.approx(0.5, rel=1e-12) and times[-1] <= 0.5
    assert states[-1, 0] == pytest.approx(math.exp(times[-1]), rel=1e-9)


def test_step_budget_ends_at_last_accepted_state(monkeypatch):
    # dx/dt = 1 accepts every step and grows it tenfold: h = 1e-4, 1e-3 and
    # 1e-2, so a budget of three steps stops at t = 0.0111, between the grid
    # points 2/256 and 3/256.
    # The module; the package's own integrate attribute is dynamics.integrate.
    monkeypatch.setattr(importlib.import_module("z2top.integrate"), "_MAX_STEPS", 3)
    times, states, termination = adaptive_rk(lambda t, x: np.ones(1), [0.0], 1.0, 1e-10, 1e-12)
    assert termination == "step_failure"
    assert times[-2] == 2 / 256
    assert times[-1] == pytest.approx(0.0111, rel=1e-12)
    assert states[-1, 0] == pytest.approx(times[-1], rel=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_step_failure_on_nonfinite_rhs_at_start(bad):
    # f(0, x0) overflowed: the first step size is 0, not a division by it.
    def rhs(t, x):
        return np.full_like(x, bad)

    times, states, termination = adaptive_rk(rhs, [1.0, 2.0], 1.0, 1e-10, 1e-12)
    assert termination == "step_failure"
    assert times.tolist() == [0.0]
    assert states.tolist() == [[1.0, 2.0]]


def test_three_dim_square_differences_conserved(systems):
    # d(omega_i^2)/dt = 2 w1 w2 w3 for every i, so the pairwise differences
    # of squares are integrals; this is the integrator's base oracle.
    rng = np.random.default_rng(99)
    for _ in range(5):
        w0 = rng.uniform(0.1, 1.0, 3)
        traj = integrate(systems[2], "omega", w0, 0.5, 1e-10, 1e-12)
        assert traj.completed
        sq = traj.states**2
        for i in range(3):
            for j in range(i + 1, 3):
                series = sq[:, i] - sq[:, j]
                assert np.max(np.abs(series - series[0])) < 1e-8


def test_guarded_horizon_scales(systems):
    w0 = np.full(3, 0.5)
    assert guarded_horizon(systems[2], w0) == pytest.approx(0.8)
    w0 = np.full(15, 0.5)
    # Uniform majorant pole sits at 2/7 for n = 4; the guard stays below it.
    assert guarded_horizon(systems[4], w0) < 2.0 / 7.0


@pytest.mark.parametrize(
    "family, size", [("top", n) for n in range(2, 11)] + [("zk", k) for k in range(2, 13)]
)
def test_guarded_horizon_closed_forms(family, size, systems):
    # One majorant 0.4 / (terms (q - 1) peak^(q - 1)) serves both families,
    # with terms (q - 1) an int, so it is each family's closed form bit for bit.
    system = systems[size] if family == "top" else ZkSystem(size)
    rng = np.random.default_rng(size)
    for _ in range(20):
        w0 = rng.uniform(-1.0, 1.0, system.d) * 2.0 ** rng.integers(-8, 9)
        peak = float(np.max(np.abs(w0)))
        if family == "top":
            expected = 0.4 / ((2 ** (size - 1) - 1) * peak)
        else:
            expected = 0.4 / ((size - 1) * peak ** (size - 1))
        assert guarded_horizon(system, w0) == expected
    # No finite positive horizon: 0.4 / peak overflows at size 2, and
    # peak^(q - 1) underflows above it; infinite and NaN peaks.
    for peak in (5e-324, np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="no finite default horizon"):
            guarded_horizon(system, np.full(system.d, peak))
    # The largest double: at size 2 (the same flow u' = u^2 for both families)
    # the horizon is a positive subnormal; above it terms (q - 1) peak^(q - 1)
    # overflows.
    huge = np.full(system.d, np.finfo(float).max)
    if size == 2:
        assert 0.0 < guarded_horizon(system, huge) < 1e-308
    else:
        with pytest.raises(InvalidParameterError, match="no finite default horizon"):
            guarded_horizon(system, huge)


def _random_collineation(n: int, rng: np.random.Generator) -> Collineation:
    """A random invertible GF(2) map, each row drawn from outside the span of
    the rows before it."""
    rows, span = [], {0}
    for _ in range(n):
        row = int(rng.choice([v for v in range(1, 2**n) if v not in span]))
        rows.append(row)
        span |= {v ^ row for v in span}
    return Collineation.from_matrix(rows, n)


def _counted_run(system, w0, t_end):
    """(final state, termination, RHS calls) of the omega flow at the default tolerances."""
    calls = 0

    def rhs(t, x):
        nonlocal calls
        calls += 1
        return omega_rhs(system, x)

    times, states, termination = adaptive_rk(rhs, w0, t_end, 1e-10, 1e-12)
    return states[-1], termination, calls


@pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 11) for k in range(2, n)])
def test_sub_geometry_is_invariant(n, k, systems):
    # The image V of labels 1..2^k - 1 under a collineation is a Z2P_{k-1}
    # inside Z2P_{n-1}: a line through two points of V lies in V, and a line
    # through one point of V meets V only there.  So a state on V stays on
    # V, and there the n-top is the k-top.
    rng = np.random.default_rng(100 * n + k)
    big, small = systems[n], systems[k]
    w_small = rng.uniform(0.1, 0.5, small.d)
    on_v = np.array(_random_collineation(n, rng).perm[: small.d]) - 1
    w_big = np.zeros(big.d)
    w_big[on_v] = w_small
    t_end = guarded_horizon(small, w_small) / 2
    y_small, term_small, calls_small = _counted_run(small, w_small, t_end)
    y_big, term_big, calls_big = _counted_run(big, w_big, t_end)
    assert term_small == term_big == "completed"
    peak = float(np.max(np.abs(y_small)))  # at t_end: these positive flows only grow
    growth = math.exp(np.abs(y_small).sum() * t_end)  # bounds both Lipschitz rates on V
    off_v = np.delete(y_big, on_v)
    if n < _HADAMARD_MIN_N:
        # The pair route multiplies an off-V zero into every off-V product.
        assert np.all(off_v == 0.0)
    else:
        # The transform route's roundoff, d eps / 4 (sum |omega|)^2 per unit
        # time (omega_rhs's error bound), grows at most by the linear rate.
        roundoff = big.d * np.finfo(float).eps / 4 * np.abs(y_small).sum() ** 2
        assert np.max(np.abs(off_v)) <= roundoff * t_end * growth
    # Each step of either run adds at most sqrt(d) (abs_tol + rel_tol peak)
    # on a component (the RMS error test), 6 RHS calls a step, and the
    # difference grows at most by the Lipschitz factor, as in the DOP853 check.
    steps = (math.sqrt(big.d) * calls_big + math.sqrt(small.d) * calls_small) / 6
    bound = steps * (1e-12 + 1e-10 * peak) * growth
    assert np.max(np.abs(y_big[on_v] - y_small)) <= bound


def test_trajectory_serialization(systems):
    traj = integrate(systems[2], "omega", [0.1, 0.2, 0.3], 0.25, sample_interval=0.05)
    csv_text = traj.to_csv()
    header, first = csv_text.splitlines()[:2]
    assert header == "t,x_1,x_2,x_3"
    assert first.startswith("0,")
    assert len(csv_text.splitlines()) == len(traj) + 1

    doc = json.loads(trajectory_json(traj, n=2, seed=None))
    assert doc["schema_version"] == 1
    assert doc["kind"] == "omega"
    assert doc["termination"] == "completed"
    assert len(doc["t"]) == len(traj)
    assert doc["n"] == 2


def test_sampling_grid_is_exact(systems):
    traj = integrate(systems[2], "omega", [0.1, 0.2, 0.3], 0.2, sample_interval=0.04)
    expected = np.array([i * 0.04 for i in range(5)] + [0.2])
    assert np.array_equal(traj.times, expected)
    # 3 * 0.3 is 0.8999999999999999: a grid point one ulp below t_end, then t_end.
    traj = integrate(systems[2], "omega", [0.1, 0.2, 0.3], 0.9, sample_interval=0.3)
    assert traj.times.tolist() == [0.0, 0.3, 0.6, 3 * 0.3, 0.9]


def test_a_flow_integration_matches_transformed_omega_flow(systems):
    # Integrating in a coordinates must agree with transforming the omega
    # trajectory, since the transform commutes with the dynamics.
    system = systems[3]
    rng = np.random.default_rng(101)
    w0 = rng.uniform(0.1, 0.5, 7)
    t_end = guarded_horizon(system, w0)
    omega_traj = integrate(system, "omega", w0, t_end, 1e-12, 1e-14)
    a_traj = integrate(system, "a", a_transform(system, w0), t_end, 1e-12, 1e-14)
    assert omega_traj.completed and a_traj.completed
    assert np.array_equal(omega_traj.times, a_traj.times)
    transformed = omega_traj.states @ system.a_matrix.T
    assert np.max(np.abs(transformed - a_traj.states)) < 1e-9


def _per_sample_rk(f, x0, t_end, rel_tol, abs_tol, *, sample_interval=None):
    """adaptive_rk as it was with one interpolant evaluation per grid point:
    the reference that the batched dense output must match bit for bit.  Like
    adaptive_rk, it ends every run with its last accepted state."""
    if sample_interval is None:
        sample_interval = t_end / 256
    y = np.asarray(x0, dtype=float).copy()
    times = [0.0]
    states = [y.copy()]
    t = 0.0
    k1 = f(t, y)
    h = _initial_step(f, y, k1, t_end, rel_tol, abs_tol)
    fac_old = 1e-4
    sample_idx = 1
    branch_fail = False
    k = [k1] * 7

    def end(termination):
        if times[-1] != t:
            times.append(t)
            states.append(y.copy())
        return np.array(times), np.array(states), termination

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            return end("completed")
        if h < 1e-14 * max(min(1.0, t_end), abs(t)):
            return end("branch_failure" if branch_fail else "step_failure")
        at_end = h >= t_end - t
        h_step = t_end - t if at_end else h
        try:
            k[0] = k1
            for s in range(1, 7):
                ys = y + h_step * sum(a * k[j] for j, a in enumerate(_A[s]))
                k[s] = f(t + _C[s] * h_step, ys)
            y_new = y + h_step * sum(b * k[j] for j, b in enumerate(_B) if b)
            err_vec = h_step * sum(e * k[j] for j, e in enumerate(_E) if e)
        except BranchError:
            branch_fail = True
            h = h_step * 0.25
            continue
        if not np.all(np.isfinite(y_new)):
            err = math.inf
        else:
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        branch_fail = False
        if err > 1.0:
            h = h_step / min(1 / _MIN_FACTOR, err**_EXPO / _SAFETY)
            continue
        t_new = t_end if at_end else t + h_step
        dense = None
        while True:
            ts = min(sample_idx * sample_interval, t_end)
            if ts > t_new or ts <= t:
                break
            if ts == t_new:
                ys = y_new
            else:
                if dense is None:
                    dense = np.stack(k).T @ _P
                theta = (ts - t) / h_step
                ys = y + h_step * (dense @ (theta ** np.arange(1, 5)))
            times.append(ts)
            states.append(np.array(ys))
            sample_idx += 1
            if ts >= t_end:
                break
        t = t_new
        y = y_new
        k1 = k[6]
        fac = err**_EXPO / fac_old**_BETA
        fac = max(1 / _MAX_FACTOR, min(1 / _MIN_FACTOR, fac / _SAFETY))
        h = max(h, h_step / fac) if at_end else h_step / fac
        fac_old = max(err, 1e-4)
        if np.max(np.abs(y)) >= BLOW_UP_THRESHOLD:
            return end("blow_up")
    return end("step_failure")


def _flow_cases():
    """(t_end, integrate call) over both coordinates of n = 2..6 and zk k = 3, 6, 12."""
    cases = []
    for n in range(2, 7):
        system = TopSystem.create(n)
        w0 = np.random.default_rng(n).uniform(0.1, 0.5, system.d)
        t_end = guarded_horizon(system, w0)
        for kind, x0 in (("omega", w0), ("a", a_transform(system, w0))):
            call = lambda si, s=system, kind=kind, x0=x0, t=t_end: integrate(
                s, kind, x0, t, sample_interval=si
            )
            cases.append((t_end, call))
    for k in (3, 6, 12):
        system = ZkSystem(k)
        w0 = np.random.default_rng(k).uniform(0.1, 0.5, system.d)
        t_end = guarded_horizon(system, w0)
        call = lambda si, s=system, w0=w0, t=t_end: integrate_zk(s, w0, t, sample_interval=si)
        cases.append((t_end, call))
    return cases


def _assert_matches_per_sample(call, sample_interval, monkeypatch):
    batched = call(sample_interval)
    with monkeypatch.context() as m:
        m.setattr(z2top.dynamics, "adaptive_rk", _per_sample_rk)
        m.setattr(z2top.zktop, "adaptive_rk", _per_sample_rk)
        reference = call(sample_interval)
    assert batched.termination == reference.termination
    assert np.array_equal(batched.times, reference.times)
    assert np.array_equal(batched.states, reference.states)
    return batched


@pytest.mark.parametrize("divisor", [4096, 1000.3, 7, None], ids=str)
def test_batched_dense_output_matches_per_sample(divisor, monkeypatch):
    for t_end, call in _flow_cases():
        interval = None if divisor is None else t_end / divisor
        traj = _assert_matches_per_sample(call, interval, monkeypatch)
        assert traj.completed and traj.times[-1] == t_end


def test_batched_dense_output_matches_per_sample_edge_cases(systems, monkeypatch):
    # Past the pole the run ends off the grid, on the state that crossed
    # the threshold.
    blow_up = lambda si: integrate(systems[2], "omega", np.ones(3), 2.0, sample_interval=si)
    for interval in (2.0 / 7, None):
        traj = _assert_matches_per_sample(blow_up, interval, monkeypatch)
        assert traj.termination == "blow_up"
    # A stall at a zk pole ends off the grid too, on the last accepted state.
    w0 = np.random.default_rng(1).uniform(0.1, 0.5, 4)
    stall = lambda si: integrate_zk(ZkSystem(3), w0, 100.0, sample_interval=si)
    traj = _assert_matches_per_sample(stall, None, monkeypatch)
    assert traj.termination == "step_failure" and traj.times[-1] % (100.0 / 256) != 0
    # 7 * (T / 7) falls one ulp short of T here, so T is a ninth grid point.
    w0 = np.random.default_rng(4).uniform(0.1, 0.5, 15)
    t_end = guarded_horizon(systems[4], w0)
    call = lambda si: integrate(systems[4], "omega", w0, t_end, sample_interval=si)
    traj = _assert_matches_per_sample(call, t_end / 7, monkeypatch)
    assert len(traj) == 9
    assert traj.times[-1] == t_end and np.nextafter(traj.times[-2], np.inf) == t_end


@pytest.mark.parametrize(
    "case", [("omega", n) for n in (2, 3, 4)] + [("zk", 3)], ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_dopri5_agrees_with_scipy_dop853(case):
    # solve_ivp is an independent implementation, run 100x tighter.  Each
    # attempted step of either solver adds a local error of at most
    # sqrt(d) (abs_tol + rel_tol max|x|) (its RMS error test), and a
    # perturbation grows by at most exp(L T) along the flow, L the Lipschitz
    # bound of the RHS on the trajectory.
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    kind, size = case
    if kind == "omega":
        system = TopSystem.create(size)
        rhs, dim = (lambda x: omega_rhs(system, x)), system.d
        lipschitz = lambda peak: (dim - 1) * peak  # each row of dF sums 2 |x| per line
        w0 = np.random.default_rng(size).uniform(0.1, 0.5, dim)
        t_end = guarded_horizon(system, w0)
    else:
        system = ZkSystem(size)
        rhs, dim = (lambda x: zk_rhs(system, x)), system.d
        lipschitz = lambda peak: size * peak ** (size - 1)  # k products of k - 1 factors
        w0 = np.random.default_rng(size).uniform(0.1, 0.5, dim)
        t_end = guarded_horizon(system, w0)
    rel_tol, abs_tol = 1e-10, 1e-12
    ref_rel, ref_abs = 1e-12, 1e-14
    calls = 0

    def counted(t, x):
        nonlocal calls
        calls += 1
        return rhs(x)

    times, states, termination = adaptive_rk(counted, w0, t_end, rel_tol, abs_tol)
    assert termination == "completed"
    ref = integrate_ivp(
        lambda t, x: rhs(x), (0.0, t_end), w0, method="DOP853",
        rtol=ref_rel, atol=ref_abs, t_eval=times,
    )
    assert ref.success
    peak = float(np.max(np.abs(states)))  # at t_end: these positive flows only grow
    # 6 evaluations per DOPRI5 step and at least 12 per DOP853 step.
    local = math.sqrt(dim) * (
        calls / 6 * (abs_tol + rel_tol * peak) + ref.nfev / 12 * (ref_abs + ref_rel * peak)
    )
    bound = local * math.exp(lipschitz(peak) * t_end)
    assert np.max(np.abs(ref.y.T - states)) <= bound
