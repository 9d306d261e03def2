"""Fuzz test of the CLI exit-code contract, in-process through cli.main.

Each example draws a subcommand, n <= 5 (or n = 8 for run, whose a-flow has
255 variables there) or k <= 12, a --seed, an --omega0 of the right or a
wrong length or no state, and every numeric flag from valid, edge and invalid
values.  The edge state 1.7e306 makes the hyperplane sums of an n = 8 state
overflow, which run refuses with exit 2.  --t-end is capped at 4 and
--sample-interval is only drawn with it, at 0.001 or more when valid, so a
run writes at most about 4,000 samples.  Half the examples also pass a
--config file: raw bytes, or a JSON object whose keys are this
subcommand's flags, other subcommands' flags or unknown keys, with valid,
edge and list values under the same caps ("sample-interval" only beside
"t-end").  It has no "out" key, so every output stays in the example's
directory.  The integrator's step budget is cut from 1,000,000 to 5,000
steps, so that a draw that needs that many steps ends in step_failure
within a second rather than grinding for tens of seconds.  The draws that
did, with --rel-tol below eps, now exit 2 before the flow runs; at the full
budget, 15 runs of 500 draws took 3-6 s each, no draw over a second.

A second property draws run, reduce and zk alike, then appends one
out-of-range --rel-tol, --abs-tol or --t-end, or a --t-end with a
--sample-interval above it: whatever the state, even a degenerate orbit of
reduce, main exits 2 and writes no file.

Whatever the flags, the first property's main must return a documented code (0..6; an argparse
SystemExit counts as its code), raise nothing, warn nothing, exit 1 only
under a drift threshold from argv or the file, write no file on exit 2
(the config file aside), and on exit 0 write a
trajectory of finite numbers.  drift.json is not held to strict JSON: a
state near the bottom of the double range can still leave NaN drifts in it.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from z2top.cli import main  # noqa: E402

# The module; the package's own integrate attribute is dynamics.integrate.
_integrate_module = importlib.import_module("z2top.integrate")

_EDGE = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e-320"]
_T_END = (["0.5", "1", "4", "1e-15"], [v for v in _EDGE if v != "1e300"])
_TOL = (["1e-10", "1e-6", "1e-2"], ["0.1", *_EDGE])
_SAMPLE = (["0.001", "0.01", "0.5"], _EDGE)
_THRESHOLD = (["0", "1e-8", "1"], _EDGE)
_STATE = (["0.1", "0.3", "0.5", "1", "-0.5"], [*_EDGE, "1.7e306"])
_RANGE = (
    ["0.1,0.5", "0.5,2", "-0.5,0.5", "1e-300,2e-300", "0.5,1e300", "-1e300,1e300"],
    ["0.5,0.1", "1,1", "nan,1", "0,inf", "-inf,0", "1e-320,-0.0"],
)
_SEED = (["0", "1", "2", "3"], ["-1", "1.5", "nan"])
_FORMAT = (["csv", "json"], ["xml"])
_SIZE = (["2", "3", "4"], ["-1", "0", "1", "2.5"])

#: Values of the --config keys; sample-interval is drawn beside t-end alone.
_CONFIG_VALUES = {
    "n": _SIZE,
    "k": _SIZE,
    "seed": _SEED,
    "omega0": (["0.1,0.2,0.3", "0.1,0.2,0.3,0.4", "0.1,0.2,0.3,0.4,0.5,0.6,0.7"], _EDGE),
    "random-range": _RANGE,
    "t-end": _T_END,
    "rel-tol": _TOL,
    "abs-tol": _TOL,
    "format": (["csv", "json", "dot"], ["xml"]),
    "drift-threshold": _THRESHOLD,
    "labelling": (["canonical", "classic"], ["octonion"]),
}
_UNKNOWN_KEYS = ["config", "colour", "", "--seed", "T-END", "t_end"]


def _value(draw, values: tuple) -> str:
    """One of the valid values three times in four, else an edge value."""
    valid, edge = values
    return draw(st.sampled_from(valid if draw(st.integers(0, 3)) else edge))


@st.composite
def _argv(draw, subcommands=("run", "reduce", "zk", "geometry", "equations")) -> list[str]:
    sub = draw(st.sampled_from(subcommands))
    sizes = range(2, 13) if sub == "zk" else [2, 3, 4, 5, 8] if sub == "run" else range(2, 6)
    size = int(_value(draw, ([str(size) for size in sizes], ["-1", "0", "1"])))
    argv = [sub, f"--{'k' if sub == 'zk' else 'n'}={size}"]
    if sub == "geometry":
        return argv + [f"--format={draw(st.sampled_from(['json', 'dot']))}"]
    if sub == "equations":
        return argv + [f"--labelling={draw(st.sampled_from(['canonical', 'classic']))}"]
    state = draw(st.sampled_from(["seed"] * 4 + ["omega0"] * 4 + [None]))
    if state == "seed":
        argv.append(f"--seed={_value(draw, _SEED)}")
    elif state == "omega0":
        # A few distinct values, so that a state can be all tiny, all huge or mixed.
        pool = [_value(draw, _STATE) for _ in range(draw(st.integers(1, 3)))]
        dim = size + 1 if sub == "zk" else 2 ** max(size, 0) - 1
        length = max(1, dim + draw(st.sampled_from([0] * 6 + [-1, 1])))
        state = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
        argv.append("--omega0=" + ",".join(state))
    flags = {"random-range": _RANGE, "t-end": _T_END, "rel-tol": _TOL, "abs-tol": _TOL}
    if sub != "reduce":
        flags.update({"format": _FORMAT, "drift-threshold": _THRESHOLD})
    for flag, values in flags.items():
        if draw(st.booleans()):
            continue
        argv.append(f"--{flag}={_value(draw, values)}")
        if flag == "t-end" and draw(st.booleans()):
            argv.append(f"--sample-interval={_value(draw, _SAMPLE)}")
    return argv


def _config_value(draw, text: str):
    """text as a JSON string, a JSON number or a list of its comma-separated parts."""
    form = draw(st.sampled_from(["string"] * 3 + ["number"] * 2 + ["list"]))
    if form == "list":
        return text.split(",")
    if form == "number":
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                return text
    return text


@st.composite
def _config(draw) -> bytes | None:
    """None, raw bytes, or a JSON object of flag, other-flag and unknown keys."""
    form = draw(st.sampled_from(["none"] * 4 + ["object"] * 3 + ["bytes"]))
    if form == "none":
        return None
    if form == "bytes":
        return draw(st.binary(max_size=40))
    keys = draw(st.lists(st.sampled_from([*_CONFIG_VALUES, *_UNKNOWN_KEYS]), max_size=5))
    doc = {}
    for key in keys:
        values = _CONFIG_VALUES.get(key, (["1", "x"], ["nan"]))
        doc[key] = _config_value(draw, _value(draw, values))
        if key == "t-end" and draw(st.booleans()):
            doc["sample-interval"] = _config_value(draw, _value(draw, _SAMPLE))
    return json.dumps(doc).encode()


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def _check_finite_trajectory(text: str, fmt: str) -> None:
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject)
        assert doc["x"] and doc["t"]
    else:
        header, *rows = csv.reader(io.StringIO(text))
        assert header[0] == "t" and rows
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@settings(max_examples=500, deadline=None)
@given(_argv(), _config(), st.booleans())
def test_every_flag_draw_exits_with_a_documented_code(argv, config, to_file):
    sub = argv[0]
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "o.json" if sub == "reduce" else "o")
        argv = argv + [f"--out={out}"] if to_file else argv
        if config is not None:
            cfg = os.path.join(work, "cfg")
            with open(cfg, "wb") as fh:
                fh.write(config)
            argv = ["--config", cfg, *argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(), mock.patch.object(_integrate_module, "_MAX_STEPS", 5000):
                warnings.simplefilter("error")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
        files = [name for name in os.listdir(work) if name != "cfg"]
        err = stderr.getvalue()
        event(f"exit {code}")
        assert code in range(7), err
        assert "Traceback" not in err and "Warning" not in err
        if code == 1:
            assert any(arg.startswith("--drift-threshold") for arg in argv) or (
                config is not None and b'"drift-threshold"' in config
            )
        if code == 2:
            assert not files
        if code == 0 and sub in ("run", "zk"):
            # argv or the config file picked the format.
            if to_file:
                (name,) = [name for name in files if ".trajectory." in name]
                fmt = name.rsplit(".", 1)[1]
                with open(os.path.join(work, name)) as fh:
                    text = fh.read()
            else:
                text = stdout.getvalue()
                fmt = "json" if text.startswith("{") else "csv"
            _check_finite_trajectory(text, fmt)


#: Out-of-range values of the integrator's flags; 1e-300 and 1e-320 are
#: valid values of --abs-tol and --t-end.
_OUT_OF_RANGE = {
    "rel-tol": _TOL[1],
    "abs-tol": [v for v in _TOL[1] if v not in ("1e-300", "1e-320")],
    "t-end": [v for v in _T_END[1] if v not in ("1e-300", "1e-320")],
}


@st.composite
def _usage_argv(draw) -> list[str]:
    """An argv of run, reduce or zk with one bad integrator flag at its end."""
    argv = draw(_argv(("run", "reduce", "zk")))
    flag = draw(st.sampled_from([*_OUT_OF_RANGE, "sample-interval"]))
    if flag == "sample-interval":
        t_end, interval = draw(st.sampled_from(_T_END[0])), draw(st.sampled_from(["5", "1e300"]))
        return argv + [f"--t-end={t_end}", f"--sample-interval={interval}"]
    return argv + [f"--{flag}={draw(st.sampled_from(_OUT_OF_RANGE[flag]))}"]


@settings(max_examples=300, deadline=None)
@given(_usage_argv())
def test_out_of_range_integrator_flag_exits_2(argv):
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "o.json" if argv[0] == "reduce" else "o")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main([*argv, f"--out={out}"])
                except SystemExit as exc:  # argparse
                    code = exc.code
        assert code == 2, stderr.getvalue()
        assert not os.listdir(work)
