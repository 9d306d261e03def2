"""Byte-identity manifest of seeded z2top CLI commands, and the diff of two manifests.

    python tools/golden.py SRC MANIFEST       run every command against SRC/z2top
    python tools/golden.py --diff A B         list the entries where A and B differ

Each command runs in a fresh interpreter, with PYTHONPATH=SRC and COLUMNS=80
(argparse wraps its help and usage text to that width), in an empty temporary
directory.  The BLAS thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS) are the caller's: no seeded output goes through a BLAS
product, since the a <-> omega maps are the fixed-order Walsh-Hadamard
butterfly at every n, so manifests built at two thread counts should diff
identical.  The manifest
records, per command, the exit code, the sha256 of stdout, the stderr text,
and for every file the command wrote its sha256.  A JSON object file also
gets one record per top-level key: its value when that is a number, a
string, null or a flat list of numbers, and otherwise the sha256 of its JSON
text.  So the diff can say which fields of a report changed, and by how
much.

Only the standard library is used, so the script runs against any checkout.
Commands run one at a time; the whole list takes about 60 s on a 2-vCPU host,
of which `run --n 9` and `run --n 10` take about 2 s and the signed `reduce`
past its pole (`--t-end 20`) about 30 s: its scalar route stalls next to the
root -M_j of the a_j that blows up, until the integrator's step budget runs out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = (
    [f"run --n {n} --seed 1 --format {fmt} --out r" for n in range(2, 9) for fmt in ("csv", "json")]
    + [f"reduce --n {n} --seed {seed} --out c.json" for n in range(3, 10) for seed in (1, 2, 3)]
    + ["reduce --n 3 --seed 1"]
    # From n = 8 up reduce integrates the Walsh-Hadamard omega_rhs; run's
    # n = 8 is above.
    + [f"run --n {n} --seed 1 --out r" for n in (9, 10)]
    + [f"zk --k {k} --seed 1 --out z" for k in (3, 6, 12)]
    + [
        "run --n 2 --omega0 1,1,1 --t-end 2.0 --out b",
        "reduce --n 2 --omega0 1,0,0 --out c.json",
        "zk --k 1100 --seed 1",
        "zk --k 2000 --seed 1 --random-range 1.5,3",
        "zk --k 1100 --seed 1 --t-end 1 --out z",
        "run --n 5 --seed 1 --sample-interval 1e-5 --out r",
        "zk --k 12 --seed 1 --sample-interval 0.02 --out z",
        "run --n 2 --seed 1 --t-end 0.9 --sample-interval 0.3 --out e",
    ]
    # Trajectory CSVs and JSON that reach every branch of the '%.17g' kernel
    # and of its shortest mode: negative values, exact zeros, nonzero values
    # below 1e-6 and values at or above 1e16 and 1e17 (the last run ends as
    # blow_up, exit 3, after two rows).
    + [
        f"{command} --out k{fmt}"
        for command in (
            "run --n 3 --seed 1 --random-range=-0.5,0.5",
            "zk --k 3 --seed 3 --random-range=-2,2",
            "run --n 3 --omega0 0,0,0,0,0,0,1 --t-end 1",
            "run --n 2 --omega0 1e-7,2e-7,3e-7 --t-end 1",
            "run --n 2 --omega0 2e16,3e17,1 --t-end 1e-20",
        )
        for fmt in ("", " --format json")
    ]
    # States that overflow in the RHS, the drift report or the reduction's
    # closure check, or whose T0 underflows to 0 there, end in their outcome
    # line alone (exits 4, 4, 5 and 5).
    + [
        "run --n 2 --seed 1 --random-range=0.5,1e300 --t-end 1 --out o",
        "zk --k 12 --seed 1 --random-range=0.5,1e300 --t-end 1 --out o",
        "reduce --n 2 --seed 1 --random-range=0.5,1e300 --t-end 1 --out o.json",
        "reduce --n 3 --seed 1 --random-range=1e-160,2e-160 --out u.json",
    ]
    # Runs that stop after stepping: zk stalls at its pole (exit 4) and
    # reduce blows up (exit 3).  Each trajectory ends at its last accepted state.
    + [
        "zk --k 3 --seed 1 --t-end 100 --out s",
        "zk --k 4 --seed 1 --t-end 100 --out s",
        "reduce --n 3 --seed 1 --t-end 1.0 --out c.json",
    ]
    # Trajectory JSON with the zk metadata (k and genus), and with an
    # explicit omega0 list, which writes that list and seed null.
    + [
        "zk --k 6 --seed 1 --format json --out z",
        "run --n 3 --omega0 0.1,0.2,0.3,0.4,0.5,0.6,0.7 --format json --out j",
    ]
    # A horizon below 1e-14: the integrator's step floor scales with t_end.
    + ["run --n 2 --omega0 0.1,0.2,0.3 --t-end 1e-15 --out a"]
    # Usage errors exit 2 before reduce checks its degenerate orbit (exit 5),
    # a grid too large for memory among them, and a horizon whose default
    # sample interval underflows to 0 asks for --sample-interval.
    + [
        "reduce --n 2 --omega0 1,1,1 --rel-tol 1",
        "reduce --n 2 --omega0 1,1,1 --t-end nan",
        "reduce --n 2 --omega0 1,1,1 --t-end 1 --sample-interval 1e-15",
        "run --n 2 --seed 1 --t-end 5e-324",
    ]
    # Orbits whose a has entries of both signs: reduce within its horizon
    # (exit 0) and past the pole (exit 3: the full flow blows up, the scalar
    # route ends as step_failure), and run within the drift gate.
    + [
        "reduce --n 3 --seed 1 --random-range=-0.5,0.5 --out c.json",
        "reduce --n 6 --seed 2 --random-range=-0.5,0.5 --out c.json",
        "reduce --n 3 --seed 1 --random-range=-0.5,0.5 --t-end 20 --out c.json",
        "run --n 5 --seed 2 --random-range=-0.5,0.5 --drift-threshold 1e-8 --out r",
    ]
    # The drift gate: within (exit 0), exceeded (exit 1) and a NaN threshold
    # refused before the flow runs (exit 2).
    + [
        "run --n 8 --seed 1 --drift-threshold 1e-8 --out r",
        "zk --k 6 --seed 1 --drift-threshold 1e-30 --out z",
        "run --n 2 --seed 1 --drift-threshold nan",
    ]
    # Every n the geometry tests cover, in both formats, and one file output.
    + [f"geometry --n {n}{fmt}" for n in range(2, 11) for fmt in ("", " --format dot")]
    + ["geometry --n 6 --out g.json"]
    + [f"equations --n {n}" for n in (3, 4, 8)]
    + [f"equations --n {n} --labelling classic" for n in (3, 4)]
    # The flag tables and the exit-code epilog.
    + ["--help"]
    + [f"{sub} --help" for sub in ("geometry", "equations", "run", "reduce", "zk")]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _field(value):
    """A top-level JSON value as recorded: itself when small and numeric, else its digest."""
    numbers = (int, float)
    if value is None or isinstance(value, (str, bool, *numbers)):
        return value
    if isinstance(value, list) and all(
        isinstance(x, numbers) and not isinstance(x, bool) for x in value
    ):
        return value
    return {"sha256": _sha(json.dumps(value, sort_keys=True).encode())}


def _file_record(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    record = {"sha256": _sha(data)}
    if path.endswith(".json"):
        doc = json.loads(data)
        if isinstance(doc, dict):
            record["fields"] = {key: _field(value) for key, value in doc.items()}
    return record


def run_command(src: str, command: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-m", "z2top", *command.split()],
            cwd=work,
            env=env,
            capture_output=True,
        )
        files = {name: _file_record(os.path.join(work, name)) for name in sorted(os.listdir(work))}
    return {
        "exit": proc.returncode,
        "stdout_sha256": _sha(proc.stdout),
        "stderr": proc.stderr.decode(errors="replace"),
        "files": files,
    }


def build_manifest(src: str) -> dict:
    manifest = {}
    for command in COMMANDS:
        manifest[command] = run_command(src, command)
        print(f"exit {manifest[command]['exit']}  {command}", file=sys.stderr)
    return manifest


def _max_abs_diff(a, b):
    """Largest |a - b| over two equal-shaped numbers or flat number lists, else None."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = list(zip(a, b))
    else:
        pairs = [(a, b)]
    try:
        return max((abs(x - y) for x, y in pairs), default=0.0)
    except TypeError:
        return None


def diff_lines(a: dict, b: dict) -> list[str]:
    """One line per command, output or field that differs between manifests a and b."""
    lines = []
    for command in sorted(set(a) | set(b)):
        if command not in a or command not in b:
            lines.append(f"{command}: only in {'B' if command not in a else 'A'}")
            continue
        ea, eb = a[command], b[command]
        for key in ("exit", "stdout_sha256"):
            if ea[key] != eb[key]:
                lines.append(f"{command}: {key} {ea[key]} -> {eb[key]}")
        if ea["stderr"] != eb["stderr"]:
            lines.append(f"{command}: stderr {ea['stderr']!r} -> {eb['stderr']!r}")
        for name in sorted(set(ea["files"]) | set(eb["files"])):
            fa, fb = ea["files"].get(name), eb["files"].get(name)
            if fa is None or fb is None:
                lines.append(f"{command}: file {name} only in {'B' if fa is None else 'A'}")
                continue
            if fa["sha256"] == fb["sha256"]:
                continue
            fields_a, fields_b = fa.get("fields", {}), fb.get("fields", {})
            keys = sorted(set(fields_a) | set(fields_b))
            changed = [  # compared by JSON text, in which a NaN equals itself
                k for k in keys if json.dumps(fields_a.get(k)) != json.dumps(fields_b.get(k))
            ]
            if not changed:
                lines.append(f"{command}: file {name} bytes differ")
            for field in changed:
                delta = _max_abs_diff(fields_a.get(field), fields_b.get(field))
                detail = "" if delta is None else f" (max abs diff {delta:.3g})"
                lines.append(f"{command}: file {name} field {field} differs{detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true", help="compare two manifests")
    parser.add_argument("first", help="SRC directory, or manifest A with --diff")
    parser.add_argument("second", help="output manifest, or manifest B with --diff")
    args = parser.parse_args(argv)
    if args.diff:
        with open(args.first) as fa, open(args.second) as fb:
            lines = diff_lines(json.load(fa), json.load(fb))
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    manifest = build_manifest(args.first)
    with open(args.second, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
