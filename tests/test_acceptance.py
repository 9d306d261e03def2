"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import json
import subprocess
import sys
import time

import numpy as np

from z2top.dynamics import (
    TopSystem,
    a_rhs,
    a_transform,
    guarded_horizon,
    integrate,
    omega_rhs,
)
from z2top.geometry import (
    classic_fano_lines,
    classic_planes_15,
    find_collineation,
    find_hyperplane_collineation,
    geometry_json,
    hyperplanes,
    lines,
)
from z2top.invariants import big_T, drift_report, independent_count
from z2top.reduction import compare_routes, compute_reduction, genus
from z2top.zktop import (
    ZkSystem,
    integrate_zk,
    zk_drift_report,
    zk_genus,
)


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_geometry_counts():
    ok = True
    for n in range(2, 7):
        d = 2**n - 1
        on_each = 2 ** (n - 1) - 1
        pts = json.loads(geometry_json(n))["points"]
        lns = lines(n)
        hps = hyperplanes(n)
        ok &= len(pts) == d and len(hps) == d
        ok &= all(len(h) == on_each for h in hps)
        for p in range(1, d + 1):
            ok &= sum(1 for ln in lns if p in ln) == on_each
            ok &= sum(1 for h in hps if p in h) == on_each
    _criterion(1, "geometry counts exact for n = 2..6", ok)


def test_criterion_02_labelling_certification():
    start = time.perf_counter()
    coll3 = find_collineation(3, classic_fano_lines())
    ok = coll3 is not None
    if ok:
        image = {tuple(sorted(coll3.perm[p - 1] for p in ln)) for ln in lines(3)}
        ok &= image == {tuple(sorted(t)) for t in classic_fano_lines()}
    coll4 = find_hyperplane_collineation(4, classic_planes_15())
    ok &= coll4 is not None
    if coll4 is not None:
        image4 = {frozenset(coll4.perm[p - 1] for p in h) for h in hyperplanes(4)}
        ok &= image4 == {frozenset(b) for b in classic_planes_15()}
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _criterion(2, f"classic labellings certified by search ({elapsed:.2f} s)", ok)


def test_criterion_03_transform_commutation(systems):
    worst = 0.0
    for n in (2, 3, 4):
        system = systems[n]
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            w = rng.uniform(-1.0, 1.0, system.d)
            gap = np.max(
                np.abs(a_transform(system, omega_rhs(system, w)) - a_rhs(system, a_transform(system, w)))
            )
            worst = max(worst, float(gap))
    _criterion(3, f"transform commutation, worst gap {worst:.2e} < 1e-12", worst < 1e-12)


def test_criterion_04_matrix_identity(systems):
    ok = True
    for n in range(2, 7):
        a = systems[n].a_matrix
        d = 2**n - 1
        lhs = 4 * (a @ a)
        rhs = 2**n * (np.eye(d, dtype=np.int64) + np.ones((d, d), dtype=np.int64))
        ok &= bool(np.array_equal(lhs, rhs))
    _criterion(4, "A @ A = 2^(n-2)(I + J) in integer arithmetic, n = 2..6", ok)


def _max_drift(system: TopSystem, rel_tol: float, abs_tol: float, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        w0 = rng.uniform(0.1, 0.5, system.d)
        traj = integrate(system, "omega", w0, guarded_horizon(system, w0), rel_tol, abs_tol)
        assert traj.completed
        report = drift_report(system, traj)
        assert report.skipped_samples == 0
        worst = max(worst, report.worst_drift)
    return worst


def test_criterion_05_invariant_conservation(systems):
    ok = True
    summary = []
    for n in (2, 3, 4):
        loose = _max_drift(systems[n], 1e-10, 1e-12, seed=2000 + n)
        tight = _max_drift(systems[n], 1e-12, 1e-14, seed=2000 + n)
        summary.append(f"n={n}: {loose:.1e} -> {tight:.1e}")
        ok &= loose < 1e-8
        ok &= tight < loose
    _criterion(5, "invariant drift < 1e-8 and shrinks at 1e-12 (" + "; ".join(summary) + ")", ok)


def test_criterion_06_independence_count(systems):
    ok = True
    for n in (2, 3, 4):
        rng = np.random.default_rng(3000 + n)
        a = rng.uniform(0.5, 2.0, systems[n].d)
        ok &= independent_count(systems[n], a) == 2**n - 2
    _criterion(6, "Jacobian of {N_1j} has rank 2^n - 2 for n = 2, 3, 4", ok)


def test_criterion_07_reduction_equivalence(systems):
    ok = True
    worst_route = 0.0
    worst_closure = 0.0
    worst_msum = 0.0
    for n in (2, 3, 4):
        system = systems[n]
        rng = np.random.default_rng(4000 + n)
        w0 = rng.uniform(0.1, 0.5, system.d)
        t_end = guarded_horizon(system, w0)
        rep = compare_routes(system, w0, t_end)
        worst_route = max(worst_route, rep.max_rel_err)
        ok &= rep.omega_termination == "completed" and rep.scalar_termination == "completed"

        data = compute_reduction(system, a_transform(system, w0))
        worst_msum = max(worst_msum, abs(float(data.M.sum())))
        traj = integrate(system, "omega", w0, t_end, 1e-10, 1e-12)
        for row in traj.states[:: max(1, len(traj) // 32)]:
            a = a_transform(system, row)
            t_val = big_T(system, a)
            u_val = float(np.mean(1.0 / a))
            power = t_val ** (2 ** (n - 1))
            worst_closure = max(
                worst_closure, abs(power - float(np.prod(t_val * u_val + data.M))) / power
            )
    ok &= worst_route < 1e-6 and worst_closure < 1e-10 and worst_msum < 1e-12
    _criterion(
        7,
        f"route error {worst_route:.1e} < 1e-6, closure {worst_closure:.1e} < 1e-10, "
        f"sum M {worst_msum:.1e} < 1e-12",
        ok,
    )


def test_criterion_08_genus_values():
    ok = genus(2) == 1 and genus(3) == 9 and genus(4) == 49
    ok &= all(zk_genus(k) == k - 1 for k in range(2, 8))
    _criterion(8, "genus 1/9/49 and k - 1 exactly", ok)


def test_criterion_09_zk_conservation(systems):
    ok = True
    worst = 0.0
    for k in range(2, 6):
        system = ZkSystem(k)
        rng = np.random.default_rng(5000 + k)
        w0 = rng.uniform(0.1, 0.5, k + 1)
        traj = integrate_zk(system, w0, guarded_horizon(system, w0), 1e-10, 1e-12)
        ok &= traj.completed
        worst = max(worst, zk_drift_report(system, traj).worst_drift)
    ok &= worst < 1e-8

    w0 = np.array([0.2, 0.3, 0.4])
    top = integrate(systems[2], "omega", w0, 0.5, 1e-10, 1e-12)
    zk = integrate_zk(ZkSystem(2), w0, 0.5, 1e-10, 1e-12)
    gap = float(np.max(np.abs(top.states - zk.states)))
    ok &= gap < 1e-10
    _criterion(9, f"zk drift {worst:.1e} < 1e-8; k=2 matches 3-variable top ({gap:.1e})", ok)


def test_criterion_10_symmetric_analytic_solution(systems):
    traj = integrate(systems[2], "omega", np.ones(3), 0.5, 1e-10, 1e-12)
    err = float(np.max(np.abs(traj.states[-1] - 2.0)))
    ok = traj.completed and traj.times[-1] == 0.5 and err < 1e-8
    _criterion(10, f"symmetric solution 1/(1-t): error at t=0.5 is {err:.1e} < 1e-8", ok)


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for base in ("first", "second"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "z2top",
                "run", "--n", "3", "--seed", "7",
                "--format", "json", "--out", str(tmp_path / base),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (tmp_path / f"{base}.trajectory.json").read_bytes(),
                (tmp_path / f"{base}.drift.json").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1]
    doc = json.loads(outputs[0][0])
    ok &= doc["schema_version"] == 1
    _criterion(11, "repeated seeded CLI runs are byte-identical", ok)
