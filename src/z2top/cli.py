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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one seeded run; the seed fixes the initial state."""

    subcommand: str
    n: Optional[int]
    k: Optional[int]
    omega0: Optional[tuple[float, ...]]
    seed: Optional[int]
    random_range: tuple[float, float]
    t_end: Optional[float]
    rel_tol: float
    abs_tol: float
    sample_interval: Optional[float]
    fmt: str
    out: Optional[str]
    drift_threshold: Optional[float]


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


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from None


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


def _initial_state(config: RunConfig, dim: int) -> np.ndarray:
    if config.omega0 is not None:
        state = np.asarray(config.omega0, dtype=float)
        if state.shape != (dim,):
            raise InvalidParameterError(
                f"--omega0 must have {dim} entries, got {state.size}"
            )
        return state
    if config.seed is None:
        raise InvalidParameterError("an initial state is required: --omega0 or --seed")
    rng = np.random.default_rng(config.seed)
    lo, hi = config.random_range
    return rng.uniform(lo, hi, dim)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
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

    def add_run_flags(p: argparse.ArgumentParser, with_state: bool = True) -> None:
        if with_state:
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

    return parser, [geo, eqs, run, red, zk]


def _apply_config_file(parsers: Sequence[argparse.ArgumentParser], argv: Sequence[str]) -> None:
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    with open(known.config) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise InvalidParameterError("--config file must hold a JSON object")
    renames = {"format": "fmt", "random-range": "random_range"}
    defaults = {renames.get(k, k.replace("-", "_")): v for k, v in values.items()}
    for parser in parsers:
        parser.set_defaults(**defaults)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    omega0 = getattr(args, "omega0", None)
    if isinstance(omega0, str):
        omega0 = _parse_vector(omega0)
    rrange = _parse_range(getattr(args, "random_range", "0.1,0.5"))
    return RunConfig(
        subcommand=args.subcommand,
        n=getattr(args, "n", None),
        k=getattr(args, "k", None),
        omega0=omega0,
        seed=getattr(args, "seed", None),
        random_range=rrange,
        t_end=getattr(args, "t_end", None),
        rel_tol=getattr(args, "rel_tol", 1e-10),
        abs_tol=getattr(args, "abs_tol", 1e-12),
        sample_interval=getattr(args, "sample_interval", None),
        fmt=getattr(args, "fmt", "csv"),
        out=getattr(args, "out", None),
        drift_threshold=getattr(args, "drift_threshold", None),
    )


def _cmd_geometry(config: RunConfig) -> int:
    if config.fmt == "dot":
        _emit(config.out, geometry.incidence_dot(config.n))
    else:
        _emit(config.out, _json_text(geometry.geometry_json(config.n)))
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


def _cmd_equations(config: RunConfig, labelling: str) -> int:
    _emit(config.out, _equations_text(config.n, labelling))
    return EXIT_OK


def _prepare(config: RunConfig) -> tuple:
    """System, initial state and horizon of run, reduce or zk; --t-end beats the default."""
    if config.subcommand == "zk":
        system = ZkSystem(config.k)
        dim, horizon = system.dim, zk_guarded_horizon
    else:
        system = TopSystem.create(config.n)
        dim, horizon = system.d, guarded_horizon
    state = _initial_state(config, dim)
    t_end = config.t_end if config.t_end is not None else horizon(system, state)
    return system, state, t_end


def _cmd_flow(config: RunConfig) -> int:
    """run and zk: integrate, report drift, write, and map the outcome to an exit code.

    The drift table and the threshold line go to stdout with --out and to
    stderr without it, where the trajectory owns stdout.
    """
    system, state, t_end = _prepare(config)
    args = (state, t_end, config.rel_tol, config.abs_tol)
    if config.subcommand == "zk":
        trajectory = integrate_zk(system, *args, sample_interval=config.sample_interval)
        report = zk_drift_report(system, trajectory)
        meta = {"k": config.k, "genus": zk_genus(config.k)}
    else:
        trajectory = integrate(system, "omega", *args, sample_interval=config.sample_interval)
        report = drift_report(system, trajectory)
        meta = {"n": config.n}
    meta.update(rel_tol=config.rel_tol, abs_tol=config.abs_tol, seed=config.seed, t_end=t_end)
    if config.omega0 is not None:
        meta["omega0"] = list(config.omega0)

    if config.fmt == "csv":
        traj_text, suffix = trajectory.to_csv(), "trajectory.csv"
    else:
        traj_text, suffix = trajectory_json(trajectory, **meta), "trajectory.json"
    if config.out is None:
        stream = sys.stderr
        sys.stdout.write(traj_text)
    else:
        stream = sys.stdout
        atomic_write(f"{config.out}.{suffix}", traj_text)
        atomic_write(f"{config.out}.drift.json", _json_text(report.to_json_dict()))
    print(report.table(), file=stream)

    if trajectory.termination != COMPLETED:
        print(f"termination: {trajectory.termination}", file=sys.stderr)
        return _TERMINATION_EXIT[trajectory.termination]
    if config.drift_threshold is None:
        return EXIT_OK
    # A NaN max drift fails the comparison, so it never passes the gate.
    ok = report.max_drift <= config.drift_threshold
    verdict = "within" if ok else "EXCEEDS"
    text = f"max drift {report.max_drift:.3e} {verdict} threshold {config.drift_threshold:.3e}"
    print(_status_line(ok, text, stream), file=stream)
    return EXIT_OK if ok else EXIT_DRIFT


def _cmd_reduce(config: RunConfig) -> int:
    system, omega0, t_end = _prepare(config)
    header = f"genus = {genus(config.n)}"
    comparison = compare_routes(
        system,
        omega0,
        t_end,
        config.rel_tol,
        config.abs_tol,
        sample_interval=config.sample_interval,
    )
    text = _json_text(comparison.to_json_dict())
    if config.out is None:
        print(header, file=sys.stderr)
        sys.stdout.write(text)
    else:
        print(header)
        atomic_write(config.out, text)
        print(f"max relative error {comparison.max_rel_err:.3e}")
    for termination in (comparison.omega_termination, comparison.scalar_termination):
        if termination != COMPLETED:
            print(f"termination: {termination}", file=sys.stderr)
            return _TERMINATION_EXIT[termination]
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        _apply_config_file([parser, *subparsers], argv)
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if config.subcommand == "geometry":
            return _cmd_geometry(config)
        if config.subcommand == "equations":
            return _cmd_equations(config, args.labelling)
        if config.subcommand in ("run", "zk"):
            return _cmd_flow(config)
        if config.subcommand == "reduce":
            return _cmd_reduce(config)
        parser.error(f"unknown subcommand {config.subcommand!r}")
    except (InvalidParameterError, UnsupportedSearchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateOrbitError as exc:
        print(f"degenerate orbit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BranchError as exc:
        print(f"branch failure: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
