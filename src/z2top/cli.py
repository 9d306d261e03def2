"""Command-line interface: reproducible runs with machine-readable outputs.

Subcommands
    geometry   emit points / lines / hyperplanes (JSON or DOT)
    equations  print the coupled quadratic equations in either labelling
    run        integrate the top flow, write trajectory + drift report
    reduce     compare the full flow against the scalar quadrature route
    zk         integrate the k+1 variable product flow and its drift

Exit codes: 0 success, 1 drift threshold exceeded, 2 usage error,
3 blow-up, 4 step failure, 5 degenerate orbit, 6 branch failure; the
program entry point (z2top.__main__) exits 70 on any other exception.

run and zk share one pipeline.  --drift-threshold gates both the same way,
with or without --out: a max drift above the threshold, or a non-finite
one, exits 1, and a negative or NaN threshold exits 2 before the flow
runs.  The drift table and the threshold line go to stdout with --out and
to stderr without it, where the trajectory owns stdout; reduce routes its
genus and max-relative-error lines the same way.

--config FILE reads a JSON object keyed by flag names ("t-end", "seed",
...); a file that does not decode as UTF-8 JSON is a usage error (exit 2).
Each value is converted and checked by the flag it names, with the flag's
own type and choices, so a bad value is a usage error too; a
non-string value is read from its JSON text, and only "random-range" and
"omega0" take a list, read as its comma-joined text.  Keys that name no
flag of the chosen subcommand are ignored, so one file can serve run and
reduce.  Explicit flags beat the file, and an explicit --omega0 or --seed
beats both the file's omega0 and its seed; with --omega0 the run's metadata
records seed null.  The file's values hold for its own call only:
in-process main() calls share one parser, built on the first call, and a
--config call parses with a fresh one.

Identical flags and seed give byte-identical output files, each written
atomically (temp + rename; through a symlink to its target, and in place to
an existing FIFO or device).  A run that stops early still writes them:
every trajectory ends with its last accepted state, on the grid or off it,
so a step_failure shows where the run stalled.  Z2TOP_NO_COLOR disables
summary-line color.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import secrets
import stat
import sys
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .dynamics import (TopSystem, Trajectory, a_inverse, a_transform, guarded_horizon,
                       integrate, trajectory_json)
from .errors import BranchError, DegenerateOrbitError, InvalidParameterError
from .integrate import BLOW_UP, BRANCH_FAILURE, COMPLETED, STEP_FAILURE
from .invariants import drift_report
from .reduction import compare_routes
from .zktop import ZkSystem, integrate_zk, zk_drift_report, zk_genus

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_USAGE = 2
EXIT_BLOW_UP = 3
EXIT_STEP_FAILURE = 4
EXIT_DEGENERATE = 5
EXIT_BRANCH = 6

_TERMINATION_EXIT = {
    BLOW_UP: EXIT_BLOW_UP,
    STEP_FAILURE: EXIT_STEP_FAILURE,
    BRANCH_FAILURE: EXIT_BRANCH,
}


def _status_line(ok: bool, text: str, stream) -> str:
    if os.environ.get("Z2TOP_NO_COLOR") is None and stream.isatty():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def atomic_write(path: str, data: str) -> None:
    """Write data to path through a temp file next to it and a rename.

    A symlink stays a symlink (the file it resolves to is replaced), and an
    existing FIFO or device is written in place.  The temp file is created
    with mode 0o666, so the umask (and a default ACL) shapes its mode as for
    a plain open(); mkstemp would make it 0600.
    """
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            path = os.path.realpath(path)
            mode = os.stat(path).st_mode
    except FileNotFoundError:  # a new file, also at the end of a dangling symlink
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.write(data)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".z2top-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(out: Optional[str], data: str) -> None:
    if out is None:
        sys.stdout.write(data)
    else:
        atomic_write(out, data)


def _parse_vector(value: str) -> tuple[float, ...]:
    """The v1,v2,... text of --omega0 as floats."""
    try:
        return tuple(float(x) for x in value.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {value!r}: {exc}") from None


def _parse_range(value: str) -> tuple[float, float]:
    """The LO,HI text of --random-range as a finite pair with LO < HI."""
    try:
        lo, hi = map(float, value.split(","))
    except ValueError:
        raise InvalidParameterError(f"range must be two numbers LO,HI, got {value!r}") from None
    if not math.isfinite(hi - lo):  # also inf or nan at either end
        raise InvalidParameterError(f"range needs finite LO, HI and HI - LO, got {value!r}")
    if not lo < hi:
        raise InvalidParameterError(f"range must satisfy LO < HI, got {value!r}")
    return lo, hi


def _initial_state(args: argparse.Namespace, dim: int) -> np.ndarray:
    lo, hi = _parse_range(args.random_range)
    if args.omega0 is not None:
        state = np.asarray(_parse_vector(args.omega0), dtype=float)
        if state.shape != (dim,):
            raise InvalidParameterError(
                f"--omega0 must have {dim} entries, got {state.size}"
            )
        return state
    if args.seed is None:
        raise InvalidParameterError("an initial state is required: --omega0 or --seed")
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    return rng.uniform(lo, hi, dim)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="z2top",
        description="Quadratic top flows from binary projective geometry.",
        epilog="Exit codes: 0 ok, 1 drift threshold exceeded, 2 usage, "
        "3 blow-up, 4 step failure, 5 degenerate orbit, 6 branch failure, "
        "70 internal error (an uncaught exception; traceback on stderr).",
    )
    parser.add_argument(
        "--config",
        help="JSON file of defaults (flag names as keys); explicit flags win",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    geo = sub.add_parser("geometry", help="emit incidence data")
    geo.add_argument("--n", type=int, required=True)
    geo.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")
    geo.add_argument("--out")

    eqs = sub.add_parser("equations", help="print the coupled equations")
    eqs.add_argument("--n", type=int, required=True)
    eqs.add_argument(
        "--labelling",
        choices=("canonical", "classic"),
        default="canonical",
        help="classic = the classical octonion-style labelling (n <= 4)",
    )
    eqs.add_argument("--out")

    for name, size, help_text in (
        ("run", "--n", "integrate the top flow"),
        ("reduce", "--n", "full flow vs scalar quadrature"),
        ("zk", "--k", "integrate the k+1 variable product flow"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(size, type=int, required=True)
        # Not marked required at parse level so a --config file can
        # supply either one; _initial_state validates the combination.
        group = p.add_mutually_exclusive_group()
        group.add_argument("--omega0", help="comma-separated initial state")
        group.add_argument("--seed", type=int, help="seeded random initial state")
        p.add_argument(
            "--random-range",
            default="0.1,0.5",
            help="LO,HI range of the seeded initial state (default 0.1,0.5)",
        )
        p.add_argument("--t-end", type=float, help="horizon (default: guarded heuristic)")
        p.add_argument("--rel-tol", type=float, default=1e-10)
        p.add_argument("--abs-tol", type=float, default=1e-12)
        p.add_argument("--sample-interval", type=float)
        p.add_argument("--out", help="base path; writes <out>.trajectory.* and <out>.drift.json")
        if name != "reduce":
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
            p.add_argument("--drift-threshold", type=float)

    return parser, sub.choices


#: The parser of plain calls, built once per process; a --config call builds its own.
_shared_parser = functools.cache(_build_parser)


def _apply_config_file(
    sub: argparse.ArgumentParser, path: str, explicit: argparse.Namespace
) -> None:
    """Make the file's values the defaults of sub, each one read as its flag reads it.

    explicit holds the flags of argv alone; when they pick the initial state
    (--omega0 or --seed), the file's omega0 and seed are skipped.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        # Bad UTF-8, bad JSON, an int past the digit limit, or nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise InvalidParameterError(f"--config {path}: not a UTF-8 JSON file: {exc}") from None
    if not isinstance(values, dict):
        raise InvalidParameterError(f"--config {path}: the file must hold a JSON object")
    state_keys = ("omega0", "seed")
    argv_state = any(getattr(explicit, key, None) is not None for key in state_keys)
    defaults = {}
    for key, value in values.items():
        action = sub._option_string_actions.get(f"--{key}")
        if action is None or (argv_state and key in state_keys):
            continue  # a key for another subcommand, or a state argv already chose
        if isinstance(value, list):
            if key not in ("omega0", "random-range"):
                sub.error(f"--config {path}: argument --{key}: expected one value, got a list")
            value = ",".join(map(str, value))  # the flag's own v1,v2,... text
        elif not isinstance(value, str):
            value = json.dumps(value)
        try:
            # argparse's own conversion: the flag's type, then its choices.
            defaults[action.dest] = sub._get_values(action, [value])
        except argparse.ArgumentError as exc:
            sub.error(f"--config {path}: {exc}")
    sub.set_defaults(**defaults)


def _cmd_geometry(args: argparse.Namespace) -> int:
    if args.fmt == "dot":
        _emit(args.out, geometry.incidence_dot(args.n))
    else:
        _emit(args.out, geometry.geometry_json(args.n))
    return EXIT_OK


def _equations_text(n: int, labelling: str) -> str:
    triples = geometry.lines(n) if labelling == "canonical" else geometry.classic_line_set(n)
    by_point: dict[int, list[tuple[int, int]]] = {}
    for p, q, r in triples:
        by_point.setdefault(p, []).append((q, r))
        by_point.setdefault(q, []).append((p, r))
        by_point.setdefault(r, []).append((p, q))
    rows = []
    for i in sorted(by_point):
        terms = " + ".join(f"w{j}*w{k}" for j, k in sorted(by_point[i]))
        rows.append(f"dw{i} = {terms}")
    return "\n".join(rows) + "\n"


def _cmd_equations(args: argparse.Namespace) -> int:
    _emit(args.out, _equations_text(args.n, args.labelling))
    return EXIT_OK


def _prepare(args: argparse.Namespace) -> tuple:
    """System, initial state and horizon of run, reduce or zk; --t-end beats the default."""
    system = ZkSystem(args.k) if args.subcommand == "zk" else TopSystem.create(args.n)
    state = _initial_state(args, system.d)
    t_end = args.t_end if args.t_end is not None else guarded_horizon(system, state)
    return system, state, t_end


def _exit_code(*terminations: str) -> int:
    """EXIT_OK when every route completed, else the first early termination's
    code, with its termination line on stderr."""
    for termination in terminations:
        if termination != COMPLETED:
            print(f"termination: {termination}", file=sys.stderr)
            return _TERMINATION_EXIT[termination]
    return EXIT_OK


def _top_flow(system: TopSystem, omega0: np.ndarray, *flow_args, sample_interval) -> tuple:
    """run's omega trajectory and its drift report.  At every n the flow runs in
    the diagonal a coordinates, O(d) per RHS call, and the blow-up guard reads
    max|a|.  The drift report takes the a samples as they are; the omega samples
    are their inverse transform, with row 0 omega0 bit for bit.  A finite omega0
    whose a overflows stays on the omega route, whose velocity overflows at
    once: a step_failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = a_transform(system, omega0)
    if not np.isfinite(a0).all():
        flow = integrate(system, "omega", omega0, *flow_args, sample_interval=sample_interval)
        return flow, drift_report(system, flow)
    flow = integrate(system, "a", a0, *flow_args, sample_interval=sample_interval)
    omega = np.empty_like(flow.states)
    omega[0] = omega0
    omega[1:] = a_inverse(system, flow.states[1:])
    return Trajectory("omega", flow.times, omega, flow.termination), drift_report(system, flow)


def _cmd_flow(args: argparse.Namespace) -> int:
    threshold = args.drift_threshold
    if threshold is not None and not threshold >= 0.0:  # NaN fails >= too
        raise InvalidParameterError(f"--drift-threshold must be >= 0 and not NaN, got {threshold}")
    system, state, t_end = _prepare(args)
    flow_args = (state, t_end, args.rel_tol, args.abs_tol)
    if args.subcommand == "zk":
        trajectory = integrate_zk(system, *flow_args, sample_interval=args.sample_interval)
        report = zk_drift_report(system, trajectory)
        meta = {"k": args.k, "genus": zk_genus(args.k)}
    else:
        trajectory, report = _top_flow(system, *flow_args, sample_interval=args.sample_interval)
        meta = {"n": args.n}
    meta.update(rel_tol=args.rel_tol, abs_tol=args.abs_tol, seed=args.seed, t_end=t_end)
    if args.omega0 is not None:
        # The explicit state picked the run, not a seed a --config file gave.
        meta.update(seed=None, omega0=state.tolist())

    if args.fmt == "csv":
        traj_text, suffix = trajectory.to_csv(), "trajectory.csv"
    else:
        traj_text, suffix = trajectory_json(trajectory, **meta), "trajectory.json"
    stream = sys.stderr if args.out is None else sys.stdout
    _emit(None if args.out is None else f"{args.out}.{suffix}", traj_text)
    if args.out is not None:
        atomic_write(f"{args.out}.drift.json", report.json_text())
    print(report.table(), file=stream)

    code = _exit_code(trajectory.termination)
    if code != EXIT_OK or threshold is None:
        return code
    # A NaN max drift fails the comparison, so it never passes the gate.
    ok = report.worst_drift <= threshold
    verdict = "within" if ok else "EXCEEDS"
    text = f"max drift {report.worst_drift:.3e} {verdict} threshold {threshold:.3e}"
    print(_status_line(ok, text, stream), file=stream)
    return EXIT_OK if ok else EXIT_DRIFT


def _cmd_reduce(args: argparse.Namespace) -> int:
    system, omega0, t_end = _prepare(args)
    comparison = compare_routes(
        system, omega0, t_end, args.rel_tol, args.abs_tol, sample_interval=args.sample_interval
    )
    _emit(args.out, comparison.json_text())
    stream = sys.stderr if args.out is None else sys.stdout
    print(f"genus = {comparison.genus}", file=stream)
    print(f"max relative error {comparison.max_rel_err:.3e}", file=stream)
    return _exit_code(comparison.omega_termination, comparison.scalar_termination)


_COMMANDS = {
    "geometry": _cmd_geometry,
    "equations": _cmd_equations,
    "run": _cmd_flow,
    "zk": _cmd_flow,
    "reduce": _cmd_reduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, _ = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Defaults from the file, then the same argv again: explicit flags
            # win.  The defaults go into a fresh parser, so they end with this call.
            parser, subparsers = _build_parser()
            _apply_config_file(subparsers[args.subcommand], args.config, args)
            args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateOrbitError as exc:
        print(f"degenerate orbit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BranchError as exc:
        print(f"branch failure: {exc}", file=sys.stderr)
        return EXIT_BRANCH
