import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import z2top.dynamics
from z2top import cli
from z2top.cli import main
from z2top.dynamics import TopSystem, guarded_horizon, integrate
from z2top.invariants import DriftReport
from z2top.zktop import ZkSystem, integrate_zk

from classic_fixtures import CLASSIC_15_PAIRS, CLASSIC_7_PAIRS


#: A one-entry drift report whose drift is NaN.
_NAN_REPORT = DriftReport(
    ("N_1_2",), np.ones(1), np.full(1, np.nan), np.zeros(1), np.ones(1, dtype=bool)
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geometry_json_counts(capsys):
    code, out, _ = run_cli(["geometry", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["points"]) == 7
    assert len(doc["lines"]) == 7


def test_geometry_n2_and_n4(capsys):
    code, out, _ = run_cli(["geometry", "--n", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 3
    assert len(doc["lines"]) == 1

    code, out, _ = run_cli(["geometry", "--n", "4"], capsys)
    doc = json.loads(out)
    assert len(doc["hyperplanes"]) == 15
    assert all(len(h["points"]) == 7 for h in doc["hyperplanes"])


def test_geometry_dot(capsys):
    code, out, _ = run_cli(["geometry", "--n", "2", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


def test_reduce_nonfinite_state_is_usage_error(capsys):
    # reduce checks the state before the a-transform, as run does: exit 2
    # with run's message, and no numpy warning from the transform.
    for cmd in ("run", "reduce"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([cmd, "--n", "2", "--omega0=inf,1,2", "--t-end", "1"], capsys)
        assert (code, out, err) == (2, "", "error: x0 must be a finite 1-d vector\n")


def test_geometry_bad_n(capsys):
    code, _, err = run_cli(["geometry", "--n", "1"], capsys)
    assert code == 2
    assert "error" in err
    # n is checked before any output is built, for both formats.
    for n in ("-3", "0", "13"):
        for fmt in ("json", "dot"):
            code, out, err = run_cli(["geometry", "--n", n, "--format", fmt], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: n must be an integer")


def test_equations_n2(capsys):
    code, out, _ = run_cli(["equations", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["dw1 = w2*w3", "dw2 = w1*w3", "dw3 = w1*w2"]


def _parse_equation_pairs(text):
    pairs = {}
    for row in text.splitlines():
        lhs, rhs = row.split(" = ")
        i = int(lhs[2:])
        pairs[i] = {
            tuple(sorted(int(f[1:]) for f in term.split("*")))
            for term in rhs.split(" + ")
        }
    return pairs


def test_equations_classic_n3_matches_listing(capsys):
    code, out, _ = run_cli(["equations", "--n", "3", "--labelling", "classic"], capsys)
    assert code == 0
    got = _parse_equation_pairs(out)
    for i, ps in CLASSIC_7_PAIRS.items():
        assert got[i] == {tuple(sorted(p)) for p in ps}
    assert out.splitlines()[0] == "dw1 = w2*w7 + w3*w6 + w4*w5"


def test_equations_classic_n4_matches_listing(capsys):
    code, out, _ = run_cli(["equations", "--n", "4", "--labelling", "classic"], capsys)
    assert code == 0
    got = _parse_equation_pairs(out)
    assert len(got) == 15
    for i, ps in CLASSIC_15_PAIRS.items():
        assert got[i] == {tuple(sorted(p)) for p in ps}


def test_equations_classic_requires_small_n(capsys):
    code, _, err = run_cli(["equations", "--n", "5", "--labelling", "classic"], capsys)
    assert code == 2


def test_run_writes_files(tmp_path, capsys):
    base = tmp_path / "run1"
    code, out, _ = run_cli(
        ["run", "--n", "2", "--seed", "3", "--out", str(base)], capsys
    )
    assert code == 0
    csv_text = (base.parent / "run1.trajectory.csv").read_text()
    assert csv_text.splitlines()[0] == "t,x_1,x_2,x_3"
    drift = json.loads((base.parent / "run1.drift.json").read_text())
    assert drift["schema_version"] == 1
    assert "invariant" in out  # fixed-width table on stdout


def test_run_stdout_csv(capsys):
    code, out, err = run_cli(["run", "--n", "2", "--omega0", "0.1,0.2,0.3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,x_1,x_2,x_3"
    assert "invariant" in err  # table goes to stderr when csv owns stdout


def test_run_json_format(tmp_path, capsys):
    base = tmp_path / "runj"
    code, _, _ = run_cli(
        ["run", "--n", "3", "--seed", "5", "--format", "json", "--out", str(base)],
        capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "runj.trajectory.json").read_text())
    assert doc["kind"] == "omega"
    assert doc["seed"] == 5
    assert doc["n"] == 3


@pytest.mark.parametrize(
    "args, outputs",
    [
        (["run", "--n", "3", "--seed", "42"], ["trajectory.csv", "drift.json"]),
        (["run", "--n", "3", "--seed", "42", "--format", "json"], ["trajectory.json", "drift.json"]),
        (["zk", "--k", "3", "--seed", "42"], ["trajectory.csv", "drift.json"]),
        (["zk", "--k", "3", "--seed", "42", "--format", "json"], ["trajectory.json", "drift.json"]),
        (["reduce", "--n", "3", "--seed", "42"], ["json"]),
    ],
    ids=["run-csv", "run-json", "zk-csv", "zk-json", "reduce"],
)
def test_run_determinism_byte_identical(args, outputs, tmp_path, capsys):
    for base in ("a", "b"):
        # reduce writes to the path itself; run and zk append their suffixes.
        out = tmp_path / (f"{base}.json" if args[0] == "reduce" else base)
        code, _, _ = run_cli(args + ["--out", str(out)], capsys)
        assert code == 0
    for suffix in outputs:
        first = (tmp_path / f"a.{suffix}").read_bytes()
        second = (tmp_path / f"b.{suffix}").read_bytes()
        assert first == second


def test_run_blow_up_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--n", "2", "--omega0", "1,1,1", "--t-end", "2.0", "--out", str(tmp_path / "b")],
        capsys,
    )
    assert code == 3
    assert "blow_up" in err
    # A run that stops early still writes its trajectory up to termination.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.drift.json", "b.trajectory.csv"]
    rows = (tmp_path / "b.trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,x_1,x_2,x_3"
    assert len(rows) > 2
    assert 0.5 < float(rows[-1].split(",")[0]) < 2.0
    drift = json.loads((tmp_path / "b.drift.json").read_text())
    assert [e["name"] for e in drift["invariants"]] == [
        "gamma_1", "gamma_2", "gamma_3", "N_1_2", "N_1_3"
    ]


@pytest.mark.parametrize("k", [3, 4])
def test_zk_stall_ends_at_the_pole(k, tmp_path, capsys):
    # Near a zk pole the controller stalls before max|x| reaches the blow-up
    # threshold (exit 4).  The last row is the last accepted state, at the
    # pole t* = 1/2 int_0^inf prod_j (u + omega_j^2)^(-1/2) du.
    quad = pytest.importorskip("scipy.integrate").quad
    code, _, err = run_cli(
        ["zk", "--k", str(k), "--seed", "1", "--t-end", "100", "--out", str(tmp_path / "z")],
        capsys,
    )
    assert (code, err) == (4, "termination: step_failure\n")
    last = (tmp_path / "z.trajectory.csv").read_text().splitlines()[-1]
    w0 = np.random.default_rng(1).uniform(0.1, 0.5, k + 1)
    integrand = lambda u: 0.5 / np.prod(np.sqrt(u + w0 * w0))
    pole = quad(integrand, 0, np.inf, epsabs=0, epsrel=1e-13, limit=200)[0]
    assert float(last.split(",")[0]) == pytest.approx(pole, rel=1e-9)


def test_run_drift_threshold_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "run", "--n", "2", "--seed", "1",
            "--drift-threshold", "1e-20", "--out", str(tmp_path / "d"),
        ],
        capsys,
    )
    assert code == 1
    assert "EXCEEDS" in out
    assert "\x1b" not in out  # no ANSI when stdout is not a tty


def test_run_missing_state(capsys):
    code, _, err = run_cli(["run", "--n", "2"], capsys)
    assert code == 2
    assert "initial state" in err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--n", "2", "--seed", "-1"],
        ["reduce", "--n", "3", "--seed", "-2"],
        ["zk", "--k", "3", "--seed", "-5"],
    ],
    ids=["run", "reduce", "zk"],
)
def test_negative_seed_is_usage_error(args, tmp_path, capsys):
    # numpy refuses a negative seed; that must not read as exit 1 (drift exceeded).
    code, out, err = run_cli([*args, "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--seed" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["1,inf", "-inf,1", "nan,1", "1,nan", "-1e308,1e308"])
def test_random_range_must_be_finite(spec, capsys):
    code, out, err = run_cli(["run", "--n", "3", "--seed", "1", f"--random-range={spec}"], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "range" in err


def test_overflowing_initial_rhs_is_step_failure(tmp_path, capsys):
    # omega_j omega_k overflows at t = 0, so no first step exists.
    base = tmp_path / "big"
    # The RHS and the drift report overflow, but the outcome is the only report.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            ["run", "--n", "2", "--omega0", "1e200,1e200,1e200", "--out", str(base)], capsys
        )
    assert code == 4
    assert "termination: step_failure" in err
    csv_text = (tmp_path / "big.trajectory.csv").read_text()
    assert csv_text == "t,x_1,x_2,x_3\n0" + ",%.17g" % 1e200 * 3 + "\n"
    assert (tmp_path / "big.drift.json").exists()


def test_overflowing_a0_is_usage_error(tmp_path, capsys):
    # Each a_j sums 4 (n = 3) or 128 (n = 8) of these finite values and
    # overflows: run and reduce refuse the state before any flow runs, with
    # one error line, no file and no numpy warning.
    states = (
        ["--n", "3", "--omega0", ",".join(["1e308"] * 7)],
        ["--n", "8", "--seed", "1", "--random-range=1.5e306,1.7e306"],
        ["--n", "8", "--omega0", ",".join(["1.5e306"] * 255)],
    )
    for state in states:
        for sub, out in (("run", "o"), ("reduce", "o.json")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, stdout, err = run_cli(
                    [sub, *state, "--t-end", "1", "--out", str(tmp_path / out)], capsys
                )
            assert (code, stdout) == (2, ""), err
            assert len(err.splitlines()) == 1
            assert err.startswith("error: the hyperplane sums of omega0 overflow a double")
            assert not list(tmp_path.iterdir())


def test_horizon_below_old_step_floor_completes(tmp_path, capsys):
    # The step floor scales with --t-end; an absolute 1e-14 floor ended
    # this run as step_failure (exit 4) before its first step.
    base = tmp_path / "short"
    code, _, _ = run_cli(
        ["run", "--n", "2", "--omega0", "0.1,0.2,0.3", "--t-end", "1e-15", "--out", str(base)],
        capsys,
    )
    assert code == 0
    rows = (tmp_path / "short.trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 257
    assert rows[-1].startswith("1.0000000000000001e-15,")


def test_run_wrong_omega0_length(capsys):
    code, _, err = run_cli(["run", "--n", "3", "--omega0", "1,2,3"], capsys)
    assert code == 2


def test_run_bad_tolerance(capsys):
    code, _, _ = run_cli(
        ["run", "--n", "2", "--seed", "1", "--rel-tol", "0.5"], capsys
    )
    assert code == 2


def test_rel_tol_below_eps_is_usage_error(tmp_path, capsys):
    # With an absolute-only tolerance this run used to grind about 35 s past
    # its pole toward the step budget before exiting 4.
    out = tmp_path / "c.json"
    start = time.perf_counter()
    code, _, err = run_cli(
        ["reduce", "--n", "5", "--seed", "1", "--t-end", "1", "--rel-tol", "1e-320",
         "--out", str(out)], capsys,
    )
    assert code == 2 and time.perf_counter() - start < 5.0
    assert err.startswith("error: rel_tol must lie in [2.220446049250313e-16, 1e-2]")
    assert not os.listdir(tmp_path)
    eps = str(np.finfo(float).eps)
    code, _, _ = run_cli(
        ["run", "--n", "2", "--seed", "1", "--t-end", "0.1", "--rel-tol", eps, "--out",
         str(tmp_path / "r")], capsys,
    )
    assert code == 0 and eps == "2.220446049250313e-16"


def test_impossible_sample_grid_is_usage_error(tmp_path, capsys):
    # The grid would need about 1e300 rows: refused before any allocation.
    code, out, err = run_cli(
        ["run", "--n", "2", "--seed", "1", "--sample-interval", "1e-300"], capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--sample-interval" in err


def test_reduce_prints_genus_header(tmp_path, capsys):
    out_path = tmp_path / "cmp.json"
    code, out, _ = run_cli(
        ["reduce", "--n", "3", "--seed", "11", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "genus = 9"
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["genus"] == 9
    assert doc["max_rel_err"] < 1e-6


def test_reduce_without_out_routes_summary_to_stderr(capsys):
    code, out, err = run_cli(["reduce", "--n", "3", "--seed", "11"], capsys)
    assert code == 0
    doc = json.loads(out)  # the report owns stdout
    assert err.splitlines() == ["genus = 9", f"max relative error {doc['max_rel_err']:.3e}"]


def test_reduce_past_the_pole(tmp_path, capsys):
    # Both routes blow up before t = 1; the report compares the grid points
    # they share, which stop one short of the 129-point grid.
    out_path = tmp_path / "c.json"
    code, out, err = run_cli(
        ["reduce", "--n", "3", "--seed", "1", "--t-end", "1.0", "--out", str(out_path)], capsys
    )
    assert code == 3
    assert out.splitlines() == ["genus = 9", "max relative error 3.348e-10"]
    assert err == "termination: blow_up\n"
    doc = json.loads(out_path.read_text())
    assert (doc["omega_termination"], doc["scalar_termination"]) == ("blow_up", "blow_up")
    assert doc["t_grid"] == [i / 128 for i in range(128)]
    assert doc["t_grid"][-1] == 0.9921875
    assert 0 < doc["max_rel_err"] < 1e-9


def test_reduce_degenerate_exit(capsys):
    code, _, err = run_cli(["reduce", "--n", "2", "--omega0", "1,0,0"], capsys)
    assert code == 5
    assert "degenerate" in err


@pytest.mark.parametrize(
    "args, message",
    [
        ("--n 2 --omega0 1,1,1 --rel-tol 1", "rel_tol"),
        ("--n 2 --omega0 1,1,1 --t-end nan", "t_end"),
        ("--n 2 --omega0 1,1,1 --t-end 1 --sample-interval 2", "sample_interval"),
        ("--n 3 --seed 1 --random-range=-0.5,0.5 --abs-tol 0", "abs_tol"),
        ("--n 2 --omega0 1,1,1 --t-end 1 --sample-interval 1e-15", "do not fit in memory"),
    ],
)
def test_reduce_usage_error_comes_before_the_orbit_check(args, message, tmp_path, capsys):
    # The bad flag exits 2 first; every 1,1,1 state is a degenerate orbit (exit 5).
    out = tmp_path / "c.json"
    code, stdout, err = run_cli(["reduce", *args.split(), "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["run --n 2", "reduce --n 2", "zk --k 3"])
def test_horizon_too_small_for_the_default_grid(cmd, capsys):
    # t_end / 256 (t_end / 128 for reduce) underflows to 0: the message names
    # --t-end and asks for --sample-interval, which was never given.
    code, out, err = run_cli([*cmd.split(), "--seed", "1", "--t-end", "5e-324"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --t-end 5e-324 ") and err.count("\n") == 1
    assert err.rstrip().endswith("pass --sample-interval")


@pytest.mark.parametrize(
    "state", ["--n 3 --seed 1 --random-range=1e-160,2e-160", "--n 2 --omega0=1e-200,2e-200,3e-200"]
)
def test_reduce_underflowing_t0_is_degenerate_without_warning(state, capsys):
    # T0 underflows to 0, so the closure check takes log(0); it refuses the
    # orbit with its one line and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["reduce", *state.split()], capsys)
    assert (code, out) == (5, "")
    assert err.startswith("degenerate orbit: ") and err.count("\n") == 1


def test_zk_runs(tmp_path, capsys):
    code, out, _ = run_cli(
        ["zk", "--k", "3", "--seed", "2", "--out", str(tmp_path / "zk")], capsys
    )
    assert code == 0
    assert "D_1_2" in out
    doc = json.loads((tmp_path / "zk.drift.json").read_text())
    assert doc["max_drift"] < 1e-8


def test_zk_drift_threshold(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "zk", "--k", "2", "--seed", "2",
            "--drift-threshold", "1e-30", "--out", str(tmp_path / "zz"),
        ],
        capsys,
    )
    assert code == 1


def test_zk_k2_csv_is_the_n2_top_csv():
    # At k = 2 each velocity is the product of the other two, as in the n = 2
    # top, so the two omega flows give the same samples and CSV, byte for byte.
    # run integrates the a-flow, which test_large_n_run_matches_the_omega_flow
    # checks against this omega flow.
    w0 = np.random.default_rng(1).uniform(0.1, 0.5, 3)
    top_system, zk_system = TopSystem.create(2), ZkSystem(2)
    t_end = guarded_horizon(top_system, w0)
    assert t_end == guarded_horizon(zk_system, w0)
    top = integrate(top_system, "omega", w0, t_end, 1e-10, 1e-12)
    zk = integrate_zk(zk_system, w0, t_end, 1e-10, 1e-12)
    assert top.completed and zk.completed
    assert top.times.tobytes() == zk.times.tobytes()
    assert top.states.tobytes() == zk.states.tobytes()
    assert top.to_csv() == zk.to_csv()


@pytest.mark.parametrize("args", [["run", "--n", "2"], ["zk", "--k", "3"]], ids=["run", "zk"])
def test_drift_threshold_without_out(args, capsys):
    code, out, err = run_cli(args + ["--seed", "2", "--drift-threshold", "1e-30"], capsys)
    assert code == 1
    assert out.splitlines()[0].startswith("t,x_1,")  # the trajectory owns stdout
    assert "EXCEEDS threshold 1.000e-30" in err.splitlines()[-1]


def test_nan_drift_fails_threshold(tmp_path, capsys, monkeypatch):
    # However a NaN drift arises, it must not pass the gate.
    monkeypatch.setattr(cli, "drift_report", lambda *_: _NAN_REPORT)
    base = tmp_path / "nan"
    code, out, _ = run_cli(
        ["run", "--n", "2", "--seed", "1", "--drift-threshold", "1e-8", "--out", str(base)],
        capsys,
    )
    assert code == 1
    assert "max drift nan EXCEEDS" in out
    doc = json.loads((tmp_path / "nan.drift.json").read_text())
    assert math.isnan(doc["max_drift"])


@pytest.mark.parametrize("cmd", [["run", "--n", "2"], ["zk", "--k", "3"]], ids=["run", "zk"])
@pytest.mark.parametrize("threshold", ["nan", "-1e-8", "-inf"])
def test_bad_drift_threshold_is_usage_error(cmd, threshold, tmp_path, capsys, monkeypatch):
    # Exit 1 means "drift exceeded"; a threshold no drift can meet is a usage
    # error, refused before the flow runs.
    monkeypatch.setattr(cli, "integrate", None)
    monkeypatch.setattr(cli, "integrate_zk", None)
    args = [*cmd, "--seed", "1", f"--drift-threshold={threshold}", "--out", str(tmp_path / "o")]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--drift-threshold" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "cmd, report", [(["run", "--n", "2"], "drift_report"), (["zk", "--k", "3"], "zk_drift_report")],
    ids=["run", "zk"],
)
def test_infinite_drift_threshold(cmd, report, tmp_path, capsys, monkeypatch):
    # inf is a threshold: every finite drift is within it, and a NaN drift still fails it.
    args = [*cmd, "--seed", "1", "--drift-threshold", "inf", "--out", str(tmp_path / "o")]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("within threshold inf")
    monkeypatch.setattr(cli, report, lambda *_: _NAN_REPORT)
    code, out, _ = run_cli(args, capsys)
    assert code == 1
    assert out.splitlines()[-1] == "max drift nan EXCEEDS threshold inf"


@pytest.mark.parametrize(
    "args",
    [["--k", "1100", "--seed", "1"], ["--k", "2000", "--seed", "1", "--random-range", "1.5,3"]],
    ids=["underflow", "overflow"],
)
def test_zk_default_horizon_out_of_range_is_usage_error(args, capsys):
    # max|omega0|^(k-1) leaves the double range, so no default horizon exists.
    code, out, err = run_cli(["zk", *args], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "pass --t-end" in err


@pytest.mark.parametrize("n", [8, 9, 10])
def test_large_n_run_and_reduce_are_finite(n, tmp_path, capsys):
    # The raw products of 2^n - 1 entries overflow here; the log-domain root does not.
    def strict_constant(token):
        raise ValueError(f"non-finite JSON token {token}")

    base = tmp_path / f"n{n}"
    gate = ["--drift-threshold", "1e-8"] if n == 8 else []
    code, _, _ = run_cli(["run", "--n", str(n), "--seed", "1", *gate, "--out", str(base)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / f"n{n}.drift.json").read_text(), parse_constant=strict_constant)
    assert len(doc["invariants"]) == 2 * (2**n - 1) - 1
    assert all(math.isfinite(e["initial"]) for e in doc["invariants"])
    assert all(math.isfinite(e["max_drift"]) for e in doc["invariants"])

    report = tmp_path / f"r{n}.json"
    code, _, _ = run_cli(["reduce", "--n", str(n), "--seed", "1", "--out", str(report)], capsys)
    assert code == 0
    assert json.loads(report.read_text())["max_rel_err"] < 1e-6


@pytest.mark.parametrize("n", range(2, 11))
def test_large_n_run_matches_the_omega_flow(n, tmp_path, capsys):
    # run integrates the a-flow and writes its inverse transform; the omega
    # flow, integrated on its own, is the independent check.  The bound is
    # DOPRI5's tolerance proportionality, an estimate rather than a proof: the
    # error test holds each step near rel_tol |x|, so each route lands within
    # about rel_tol max|omega| times the growth exp(sum|omega(t_end)| t_end) of
    # a perturbation over the horizon (1.4 to 4.1 here), and the two may differ
    # by twice that.  The measured gap is at most 1.46 rel_tol max|omega|, a
    # third of the bound, at n = 3 on signed seed 2.
    system, rel_tol = TopSystem.create(n), 1e-10
    for seed, (low, high) in itertools.product((1, 2, 3), ((0.1, 0.5), (-0.5, 0.5))):
        w0 = np.random.default_rng(seed).uniform(low, high, system.d)
        t_end = guarded_horizon(system, w0)
        ref = integrate(system, "omega", w0, t_end, rel_tol, 1e-12)
        base = tmp_path / f"s{seed}{low}"
        args = ["--seed", str(seed), f"--random-range={low},{high}", "--rel-tol", str(rel_tol)]
        code, _, _ = run_cli(["run", "--n", str(n), *args, "--format", "json", "--out", str(base)],
                             capsys)
        doc = json.loads((tmp_path / f"s{seed}{low}.trajectory.json").read_text())
        x = np.array(doc["x"])
        assert code == cli._TERMINATION_EXIT.get(ref.termination, cli.EXIT_OK)
        assert doc["termination"] == ref.termination
        assert np.array_equal(doc["t"], ref.times)
        assert x[0].tobytes() == w0.tobytes()
        peak = np.abs(ref.states).max()
        growth = math.exp(np.abs(ref.states[-1]).sum() * t_end)
        assert np.abs(x - ref.states).max() <= 2 * rel_tol * peak * growth


def test_large_n_drift_has_no_noise_floor(tmp_path, capsys, monkeypatch):
    # Steps of 1e-300 leave the state as it is, so all 257 samples are one
    # state: the drift report must read exactly 0 at every n.  A stack product
    # whose rounding varies from row to row reported 261 drifting invariants at
    # n = 8.  run takes the a route at every n, and refuses an omega0 whose a
    # overflows: only reduce evaluates the omega velocity.
    def no_omega_rhs(*_):
        raise AssertionError("run evaluated omega_rhs")

    monkeypatch.setattr(z2top.dynamics, "omega_rhs", no_omega_rhs)
    for n, size in ((3, "1e308"), (8, "1.5e306")):
        omega0 = ",".join([size] * (2**n - 1))
        code, _, err = run_cli(["run", "--n", str(n), f"--omega0={omega0}", "--t-end", "1"], capsys)
        assert code == 2 and err.startswith("error: "), err
    base = tmp_path / "still"
    for n in range(2, 11):
        code, _, _ = run_cli(
            ["run", "--n", str(n), "--seed", "1", "--t-end", "1e-300", "--out", str(base)], capsys
        )
        assert code == 0
        doc = json.loads((tmp_path / "still.drift.json").read_text())
        assert len(doc["invariants"]) == 2 * (2**n - 1) - 1
        assert doc["max_drift"] == 0.0
        assert all(entry["max_drift"] == 0.0 for entry in doc["invariants"])
        rows = (tmp_path / "still.trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) == 256 and len({row.split(",", 1)[1] for row in rows}) == 1


def test_run_keys_n_rows_on_the_exact_a0(tmp_path, capsys):
    # The drift report lists the N_1j whenever every a_j(0) != 0.  a_3 =
    # omega_1 + omega_2 is exactly 0 on (0.1, -0.1, 0.3), an orbit on a_3 = 0,
    # and exactly 1 next to omega_3 = 1e154.
    base = tmp_path / "a0"
    for omega0, n_rows in (("0.1,-0.1,0.3", []), ("1e-160,1,1e154", ["N_1_2", "N_1_3"])):
        run_cli(["run", "--n", "2", f"--omega0={omega0}", "--t-end", "0.01", "--out", str(base)],
                capsys)
        doc = json.loads((tmp_path / "a0.drift.json").read_text())
        assert [entry["name"] for entry in doc["invariants"]] == [
            "gamma_1", "gamma_2", "gamma_3", *n_rows]


@pytest.mark.parametrize("n", range(3, 11))
def test_run_keeps_a_line_state_on_its_line(n, tmp_path, capsys):
    # A state on a line {x, y, x ^ y} stays on it.  The a-flow keeps the
    # line's zero and repeated a_j exact, and the butterfly meets those equal
    # values in mirrored pairs, whose sums and differences cancel exactly
    # (fl(u - v) = -fl(v - u)), so every off-line component is 0.0.
    rng = np.random.default_rng(1000 + n)
    d = 2**n - 1
    base = tmp_path / "line"
    for trial in range(4):
        x, y = rng.choice(np.arange(1, d + 1), 2, replace=False)
        line = np.array([x, y, x ^ y]) - 1
        w0 = np.zeros(d)
        w0[line] = rng.uniform(-0.5, 0.5, 3) if trial % 2 else rng.uniform(0.1, 0.5, 3)
        omega0 = ",".join(map(repr, w0.tolist()))
        code, _, _ = run_cli(["run", "--n", str(n), f"--omega0={omega0}", "--out", str(base)],
                             capsys)
        assert code == 0
        states = np.loadtxt(tmp_path / "line.trajectory.csv", delimiter=",", skiprows=1)[:, 1:]
        off = np.delete(states, line, axis=1)
        assert np.all(off == 0.0) and not np.signbit(off).any()
        assert np.abs(states[:, line]).min() > 0.0


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "t-end": 0.2}))
    base = tmp_path / "c1"
    code, _, _ = run_cli(
        ["--config", str(cfg), "run", "--n", "2", "--out", str(base)], capsys
    )
    assert code == 0
    rows = (tmp_path / "c1.trajectory.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "0.20000000000000001"

    # Explicit flag beats the config file.
    code, _, _ = run_cli(
        ["--config", str(cfg), "run", "--n", "2", "--t-end", "0.1", "--out", str(base)],
        capsys,
    )
    rows = (tmp_path / "c1.trajectory.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "0.10000000000000001"


def test_config_matches_flags(tmp_path, capsys):
    # The list form of random-range reads like the LO,HI string, and a key
    # that names no flag of run (labelling belongs to equations) is ignored.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "random-range": [0.2, 0.4], "labelling": "classic"}))
    code, from_file, _ = run_cli(["--config", str(cfg), "run", "--n", "2"], capsys)
    assert code == 0
    code, from_flags, _ = run_cli(
        ["run", "--n", "2", "--seed", "3", "--random-range", "0.2,0.4"], capsys
    )
    assert code == 0
    assert from_file == from_flags


def test_explicit_omega0_records_no_seed(tmp_path, capsys):
    # An explicit --omega0 beats a seed from --config; the metadata must not
    # claim that the seed picked the state.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    base = tmp_path / "o"
    code, _, _ = run_cli(
        [
            "--config", str(cfg), "run", "--n", "2", "--omega0", "0.1,0.2,0.3",
            "--format", "json", "--out", str(base),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "o.trajectory.json").read_text())
    assert doc["seed"] is None
    assert doc["omega0"] == doc["x"][0] == [0.1, 0.2, 0.3]


def test_explicit_seed_beats_config_omega0(tmp_path, capsys):
    # An explicit --seed picks the state over a file's omega0, as the plain
    # --seed run does, and the metadata records that seed.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega0": [0.1, 0.2, 0.3]}))
    args = ["run", "--n", "2", "--seed", "3", "--t-end", "0.1", "--format", "json"]
    code, from_file, _ = run_cli(["--config", str(cfg), *args], capsys)
    assert code == 0
    code, plain, _ = run_cli(args, capsys)
    assert code == 0
    assert from_file == plain
    assert json.loads(from_file)["seed"] == 3


def test_config_values_end_with_their_call(tmp_path, capsys):
    # The file's seed must not reach a later call in the same process.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    code, _, _ = run_cli(
        ["--config", str(cfg), "reduce", "--n", "3", "--out", str(tmp_path / "c.json")], capsys
    )
    assert code == 0
    code, out, err = run_cli(["reduce", "--n", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: an initial state is required: --omega0 or --seed\n"


def test_plain_calls_share_one_parser(capsys):
    cli._shared_parser.cache_clear()
    first = run_cli(["equations", "--n", "3"], capsys)
    assert run_cli(["equations", "--n", "3"], capsys) == first
    assert cli._shared_parser.cache_info()[:2] == (1, 1)  # (hits, misses)


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_output_file_mode_follows_umask(umask, tmp_path, capsys):
    # Each file is written as a plain open() would create it: 0o666 & ~umask,
    # also when it replaces an existing file.
    target = tmp_path / "g.dot"
    target.write_text("old")
    target.chmod(0o600 if umask == 0o022 else 0o644)
    old = os.umask(umask)
    try:
        codes = [
            main(["geometry", "--n", "3", "--format", "dot", "--out", str(target)]),
            main(["run", "--n", "2", "--seed", "1", "--out", str(tmp_path / "r")]),
        ]
    finally:
        os.umask(old)
    capsys.readouterr()
    assert codes == [0, 0]
    assert target.read_text().startswith("graph incidence_3")
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["g.dot", "r.trajectory.csv", "r.drift.json"], 0o666 & ~umask)


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
@pytest.mark.parametrize("exists", [True, False], ids=["existing", "dangling"])
def test_out_writes_through_a_symlink(exists, tmp_path, capsys):
    # The link stays a link, and the file it names gets the output.
    target = tmp_path / "target.json"
    if exists:
        target.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(target.name)
    assert main(["geometry", "--n", "2", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert json.loads(target.read_text())["schema_version"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX FIFOs")
def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    # A FIFO (like a device) is written, not replaced by a regular file.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    # A daemon, so that a reader left waiting for a writer cannot hang the run.
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code = main(["geometry", "--n", "2", "--out", str(fifo)])
    reader.join(timeout=10)
    assert code == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(received[0])["schema_version"] == 1
    assert os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize(
    "values, args",
    [
        ({"random-range": [0.5]}, ["--seed", "1"]),
        ({"random-range": [0.5, 0.1]}, ["--seed", "1"]),
        ({"t-end": [1]}, ["--seed", "1"]),
        ({"seed": 1.5}, []),
        ({"format": "xml"}, ["--seed", "1"]),
        ({"out": ["a"]}, ["--seed", "1"]),
        ({"seed": -1}, []),
        ({"random-range": [1, math.inf]}, ["--seed", "1"]),
        ({"random-range": ["-1e308", "1e308"]}, ["--seed", "1"]),
        ({"random-range": [True, 2]}, ["--seed", "1"]),
    ],
    ids=[
        "range-short", "range-reversed", "t-end-list", "seed-float", "format-xml", "out-list",
        "seed-negative", "range-inf", "range-width-overflow", "range-bool",
    ],
)
def test_bad_config_value_is_usage_error(values, args, tmp_path, capsys):
    # A --config value gets the conversion and checks of the flag it names.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = ["--config", str(cfg), "run", "--n", "3", *args, "--out", str(tmp_path / "r")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports its usage errors this way
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error: " in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "data",
    [b'\xff\xfe{"seed": 1}', b"[" * 200_000, b"[1, 2]"],
    ids=["not-utf8", "nested-200000-deep", "not-an-object"],
)
def test_undecodable_config_file_is_usage_error(data, tmp_path, capsys):
    # Every decode failure, and a document that is no JSON object, is one
    # error line that names the file, not a traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    argv = ["--config", str(cfg), "run", "--n", "2", "--seed", "1", "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: --config {cfg}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_parse_error_leaves_no_output(tmp_path, capsys):
    target = tmp_path / "never"
    code, _, _ = run_cli(
        ["run", "--n", "2", "--omega0", "not,a,number", "--out", str(target)], capsys
    )
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "z2top", "geometry", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    # The entry point's safety net: a bug is exit 70 with its traceback,
    # while errors cli.main maps keep their codes.
    from z2top.__main__ import EXIT_SOFTWARE, run

    def broken(args):
        raise RuntimeError("unmapped failure")

    monkeypatch.setitem(cli._COMMANDS, "geometry", broken)
    assert run(["geometry", "--n", "3"]) == EXIT_SOFTWARE == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: unmapped failure\n")
    assert run(["run", "--n", "3", "--omega0", "1,2,3"]) == 2


def test_help_lists_every_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse rewraps the epilog
    codes = ("0 ok", "1 drift", "2 usage", "3 blow-up", "4 step", "5 degenerate", "6 branch")
    for code in codes + ("70 internal",):
        assert code in text


class _FakeStream:
    def __init__(self, tty):
        self.tty = tty

    def isatty(self):
        return self.tty


def test_status_line_color(monkeypatch):
    # Green or red only on a tty, and never while Z2TOP_NO_COLOR is set, even empty.
    monkeypatch.delenv("Z2TOP_NO_COLOR", raising=False)
    assert cli._status_line(True, "ok", _FakeStream(True)) == "\x1b[32mok\x1b[0m"
    assert cli._status_line(False, "bad", _FakeStream(True)) == "\x1b[31mbad\x1b[0m"
    assert cli._status_line(False, "bad", _FakeStream(False)) == "bad"
    monkeypatch.setenv("Z2TOP_NO_COLOR", "")
    assert cli._status_line(True, "ok", _FakeStream(True)) == "ok"
    assert cli._status_line(False, "bad", _FakeStream(True)) == "bad"
