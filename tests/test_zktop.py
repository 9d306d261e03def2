import itertools

import numpy as np
import pytest

from z2top.dynamics import guarded_horizon, integrate, omega_rhs
from z2top.errors import InvalidParameterError
from z2top.zktop import (
    ZkSystem,
    integrate_zk,
    zk_drift_report,
    zk_genus,
    zk_invariants,
    zk_rhs,
)


def test_zk_rhs_examples():
    out = zk_rhs(ZkSystem(2), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [6.0, 3.0, 2.0])
    out = zk_rhs(ZkSystem(3), np.array([0.0, 0.0, 5.0, 7.0]))
    assert np.array_equal(out, np.zeros(4))


def test_zk_rhs_matches_delete_and_prod():
    # The gathered rows multiply the other components in the same order as
    # np.prod(np.delete(w, i)), so the products agree bit for bit.
    rng = np.random.default_rng(40)
    for k in range(2, 41):
        w = rng.uniform(-2.0, 2.0, k + 1)
        reference = np.array([np.prod(np.delete(w, i)) for i in range(k + 1)])
        assert np.array_equal(zk_rhs(ZkSystem(k), w), reference)


def test_zk_rhs_length_mismatch():
    with pytest.raises(InvalidParameterError):
        zk_rhs(ZkSystem(2), np.ones(4))


def test_zk_k2_coincides_with_top_rhs(systems):
    rng = np.random.default_rng(79)
    zk = ZkSystem(2)
    for _ in range(20):
        w = rng.uniform(-1.0, 1.0, 3)
        assert np.allclose(zk_rhs(zk, w), omega_rhs(systems[2], w), atol=1e-15)


def test_zk_invariants_symmetric_zero():
    assert np.array_equal(zk_invariants(ZkSystem(4), np.full(5, 0.3)), np.zeros(4))


def test_zk_invariants_definition():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(zk_invariants(ZkSystem(3), w), [1 - 4, 4 - 9, 9 - 16])


def test_zk_guarded_horizon_value_and_range():
    # 0.4 / ((k - 1) max^(k-1)), in that order of operations.
    assert guarded_horizon(ZkSystem(3), [0.3, 0.7, 0.2, 0.5]) == 0.4 / (2 * 0.7**2)
    for k, peak in ((1100, 0.5), (2000, 3.0)):  # max^(k-1) under- and overflows
        with pytest.raises(InvalidParameterError, match="--t-end"):
            guarded_horizon(ZkSystem(k), np.full(k + 1, peak))
    with pytest.raises(InvalidParameterError):
        guarded_horizon(ZkSystem(2), [0.1, np.nan, 0.2])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_zk_conservation(k):
    system = ZkSystem(k)
    rng = np.random.default_rng(83 + k)
    for _ in range(5):
        w0 = rng.uniform(0.1, 0.5, k + 1)
        t_end = guarded_horizon(system, w0)
        traj = integrate_zk(system, w0, t_end, 1e-10, 1e-12)
        assert traj.completed
        report = zk_drift_report(system, traj)
        assert report.worst_drift < 1e-8


@pytest.mark.parametrize("k", [2, 3])
def test_zk_permutation_equivariance(k):
    system = ZkSystem(k)
    rng = np.random.default_rng(89)
    w = rng.uniform(-1.0, 1.0, k + 1)
    base = zk_rhs(system, w)
    for perm in itertools.permutations(range(k + 1)):
        p = np.array(perm)
        assert np.allclose(zk_rhs(system, w[p]), base[p], atol=1e-14)


def test_zk_genus_values():
    assert zk_genus(2) == 1
    assert zk_genus(3) == 2
    assert zk_genus(5) == 4
    with pytest.raises(InvalidParameterError):
        zk_genus(1)


def test_zk_system_validation():
    with pytest.raises(InvalidParameterError):
        ZkSystem(1)


def test_zk_k2_trajectory_matches_top(systems):
    w0 = np.array([0.2, 0.3, 0.4])
    top = integrate(systems[2], "omega", w0, 0.5, 1e-10, 1e-12)
    zk = integrate_zk(ZkSystem(2), w0, 0.5, 1e-10, 1e-12)
    assert top.completed and zk.completed
    assert np.array_equal(top.times, zk.times)
    assert np.max(np.abs(top.states - zk.states)) < 1e-10
