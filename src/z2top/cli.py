"""Command-line interface: reproducible runs with machine-readable outputs.

Subcommands
    geometry   emit points / lines / hyperplanes (JSON or DOT)
    equations  print the coupled quadratic equations in either labelling
    run        integrate the top flow, write trajectory + drift report
    reduce     compare the full flow against the scalar quadrature route
    zk         integrate the k+1 variable product flow and its drift

Exit codes: 0 success, 1 drift threshold exceeded, 2 usage error,
3 blow-up, 4 step failure, 5 degenerate orbit, 6 branch failure.

run and zk share one pipeline.  --drift-threshold gates both the same way,
with or without --out: a max drift above the threshold, or a non-finite
one, exits 1.  The drift table and the threshold line go to stdout with
--out and to stderr without it, where the trajectory owns stdout.

--config FILE reads a JSON object keyed by flag names ("t-end", "seed",
...).  Each value is converted and checked by the flag it names, with the
flag's own type and choices, so a bad value is a usage error (exit 2); a
non-string value is read from its JSON text, and only "random-range" and
"omega0" take a list of numbers.  Keys that name no flag of the chosen
subcommand are ignored, so one file can serve run and reduce.  Explicit
flags beat the file, and an explicit --omega0 beats a seed from the file:
the run's metadata then records seed null.

Identical flags and seed give byte-identical output files, each written
atomically (temp + rename); a run that stops early still writes them, the
trajectory up to termination.  Z2TOP_NO_COLOR disables summary-line color.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .dynamics import TopSystem, guarded_horizon, integrate, trajectory_json
from .errors import (
    BranchError,
    DegenerateOrbitError,
    InvalidParameterError,
    UnsupportedSearchError,
)
from .integrate import BLOW_UP, BRANCH_FAILURE, COMPLETED, STEP_FAILURE
from .invariants import drift_report
from .reduction import compare_routes, genus
from .zktop import ZkSystem, integrate_zk, zk_drift_report, zk_genus, zk_guarded_horizon

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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".z2top-")
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


def _parse_vector(value) -> tuple[float, ...]:
    """v1,v2,... from the flag's string or from a --config file's list."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(float(x) for x in parts)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"cannot parse vector {value!r}: {exc}") from None


def _parse_range(value) -> tuple[float, float]:
    """LO,HI from the flag's string or from a --config file's two-number list."""
    parts = value.split(",") if isinstance(value, str) else value
    bad = InvalidParameterError(f"range must be two numbers LO,HI, got {value!r}")
    if not isinstance(parts, list) or len(parts) != 2:
        raise bad
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except (TypeError, ValueError):
        raise bad from None
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
    rng = np.random.default_rng(args.seed)
    return rng.uniform(lo, hi, dim)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="z2top",
        description="Quadratic top flows from binary projective geometry.",
        epilog="Exit codes: 0 ok, 1 drift threshold exceeded, 2 usage, "
        "3 blow-up, 4 step failure, 5 degenerate orbit, 6 branch failure.",
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

    def add_run_flags(p: argparse.ArgumentParser) -> None:
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

    run = sub.add_parser("run", help="integrate the top flow")
    run.add_argument("--n", type=int, required=True)
    add_run_flags(run)
    run.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    run.add_argument("--drift-threshold", type=float)

    red = sub.add_parser("reduce", help="full flow vs scalar quadrature")
    red.add_argument("--n", type=int, required=True)
    add_run_flags(red)

    zk = sub.add_parser("zk", help="integrate the k+1 variable product flow")
    zk.add_argument("--k", type=int, required=True)
    add_run_flags(zk)
    zk.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    zk.add_argument("--drift-threshold", type=float)

    return parser, sub.choices


def _apply_config_file(sub: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the defaults of sub, each one read as its flag reads it."""
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise InvalidParameterError("--config file must hold a JSON object")
    defaults = {}
    for key, value in values.items():
        action = sub._option_string_actions.get(f"--{key}")
        if action is None:
            continue  # a key for another subcommand
        if isinstance(value, list) and key not in ("omega0", "random-range"):
            sub.error(f"--config {path}: argument --{key}: expected one value, got a list")
        if not isinstance(value, (str, list)):
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
        _emit(args.out, _json_text(geometry.geometry_json(args.n)))
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
    if args.subcommand == "zk":
        system = ZkSystem(args.k)
        dim, horizon = system.dim, zk_guarded_horizon
    else:
        system = TopSystem.create(args.n)
        dim, horizon = system.d, guarded_horizon
    state = _initial_state(args, dim)
    t_end = args.t_end if args.t_end is not None else horizon(system, state)
    return system, state, t_end


def _cmd_flow(args: argparse.Namespace) -> int:
    """run and zk: integrate, report drift, write, and map the outcome to an exit code.

    The drift table and the threshold line go to stdout with --out and to
    stderr without it, where the trajectory owns stdout.
    """
    system, state, t_end = _prepare(args)
    flow_args = (state, t_end, args.rel_tol, args.abs_tol)
    if args.subcommand == "zk":
        trajectory = integrate_zk(system, *flow_args, sample_interval=args.sample_interval)
        report = zk_drift_report(system, trajectory)
        meta = {"k": args.k, "genus": zk_genus(args.k)}
    else:
        trajectory = integrate(system, "omega", *flow_args, sample_interval=args.sample_interval)
        report = drift_report(system, trajectory)
        meta = {"n": args.n}
    meta.update(rel_tol=args.rel_tol, abs_tol=args.abs_tol, seed=args.seed, t_end=t_end)
    if args.omega0 is not None:
        # The explicit state picked the run, not a seed a --config file gave.
        meta.update(seed=None, omega0=state.tolist())

    if args.fmt == "csv":
        traj_text, suffix = trajectory.to_csv(), "trajectory.csv"
    else:
        traj_text, suffix = trajectory_json(trajectory, **meta), "trajectory.json"
    if args.out is None:
        stream = sys.stderr
        sys.stdout.write(traj_text)
    else:
        stream = sys.stdout
        atomic_write(f"{args.out}.{suffix}", traj_text)
        atomic_write(f"{args.out}.drift.json", _json_text(report.to_json_dict()))
    print(report.table(), file=stream)

    if trajectory.termination != COMPLETED:
        print(f"termination: {trajectory.termination}", file=sys.stderr)
        return _TERMINATION_EXIT[trajectory.termination]
    if args.drift_threshold is None:
        return EXIT_OK
    # A NaN max drift fails the comparison, so it never passes the gate.
    ok = report.max_drift <= args.drift_threshold
    verdict = "within" if ok else "EXCEEDS"
    text = f"max drift {report.max_drift:.3e} {verdict} threshold {args.drift_threshold:.3e}"
    print(_status_line(ok, text, stream), file=stream)
    return EXIT_OK if ok else EXIT_DRIFT


def _cmd_reduce(args: argparse.Namespace) -> int:
    system, omega0, t_end = _prepare(args)
    header = f"genus = {genus(args.n)}"
    comparison = compare_routes(
        system,
        omega0,
        t_end,
        args.rel_tol,
        args.abs_tol,
        sample_interval=args.sample_interval,
    )
    text = _json_text(comparison.to_json_dict())
    if args.out is None:
        print(header, file=sys.stderr)
        sys.stdout.write(text)
    else:
        print(header)
        atomic_write(args.out, text)
        print(f"max relative error {comparison.max_rel_err:.3e}")
    for termination in (comparison.omega_termination, comparison.scalar_termination):
        if termination != COMPLETED:
            print(f"termination: {termination}", file=sys.stderr)
            return _TERMINATION_EXIT[termination]
    return EXIT_OK


_COMMANDS = {
    "geometry": _cmd_geometry,
    "equations": _cmd_equations,
    "run": _cmd_flow,
    "zk": _cmd_flow,
    "reduce": _cmd_reduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Defaults from the file, then the same argv again: explicit flags win.
            _apply_config_file(subparsers[args.subcommand], args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (InvalidParameterError, UnsupportedSearchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateOrbitError as exc:
        print(f"degenerate orbit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BranchError as exc:
        print(f"branch failure: {exc}", file=sys.stderr)
        return EXIT_BRANCH


if __name__ == "__main__":
    sys.exit(main())
