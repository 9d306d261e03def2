import json
import math
import subprocess
import sys

import pytest

from z2top import cli
from z2top.cli import main
from z2top.invariants import DriftEntry, DriftReport

from classic_fixtures import CLASSIC_15_PAIRS, CLASSIC_7_PAIRS


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


def test_run_wrong_omega0_length(capsys):
    code, _, err = run_cli(["run", "--n", "3", "--omega0", "1,2,3"], capsys)
    assert code == 2


def test_run_bad_tolerance(capsys):
    code, _, _ = run_cli(
        ["run", "--n", "2", "--seed", "1", "--rel-tol", "0.5"], capsys
    )
    assert code == 2


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


def test_reduce_degenerate_exit(capsys):
    code, _, err = run_cli(["reduce", "--n", "2", "--omega0", "1,0,0"], capsys)
    assert code == 5
    assert "degenerate" in err


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


@pytest.mark.parametrize("args", [["run", "--n", "2"], ["zk", "--k", "3"]], ids=["run", "zk"])
def test_drift_threshold_without_out(args, capsys):
    code, out, err = run_cli(args + ["--seed", "2", "--drift-threshold", "1e-30"], capsys)
    assert code == 1
    assert out.splitlines()[0].startswith("t,x_1,")  # the trajectory owns stdout
    assert "EXCEEDS threshold 1.000e-30" in err.splitlines()[-1]


def test_nan_drift_fails_threshold(tmp_path, capsys, monkeypatch):
    # However a NaN drift arises, it must not pass the gate.
    nan_entry = DriftEntry("N_1_2", 1.0, math.nan, 0.0, "relative")
    monkeypatch.setattr(cli, "drift_report", lambda *_: DriftReport((nan_entry,), 0))
    base = tmp_path / "nan"
    code, out, _ = run_cli(
        ["run", "--n", "2", "--seed", "1", "--drift-threshold", "1e-8", "--out", str(base)],
        capsys,
    )
    assert code == 1
    assert "max drift nan EXCEEDS" in out
    doc = json.loads((tmp_path / "nan.drift.json").read_text())
    assert math.isnan(doc["max_drift"])


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


@pytest.mark.parametrize(
    "values, args",
    [
        ({"random-range": [0.5]}, ["--seed", "1"]),
        ({"random-range": [0.5, 0.1]}, ["--seed", "1"]),
        ({"t-end": [1]}, ["--seed", "1"]),
        ({"seed": 1.5}, []),
        ({"format": "xml"}, ["--seed", "1"]),
        ({"out": ["a"]}, ["--seed", "1"]),
    ],
    ids=["range-short", "range-reversed", "t-end-list", "seed-float", "format-xml", "out-list"],
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
