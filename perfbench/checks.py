"""Checks of each op's outputs, run outside the timed interval.

A check recomputes what it can from the written files, by a route other
than the one the program took.  The first occurrence of an input is checked
in full and the digest of its output kept; every repeat of that input must
reproduce those bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter

import numpy as np

from workloads import (
    DEFAULT_SAMPLES,
    Op,
    canonical_hyperplanes,
    canonical_lines,
    run_horizon,
    seeded_state,
    zk_horizon,
)

#: The package's tolerance for two routes to the same a(t).
ROUTE_TOL = 1e-6
#: The package's tolerance for drift of a conserved quantity.
CONSERVATION_TOL = 1e-8
#: Integrator tolerances the CLI uses by default.
REL_TOL, ABS_TOL = 1e-10, 1e-12


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token} in strict JSON output")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def nonfinite_drifts(doc: dict) -> int:
    """Invariant entries whose max_drift is NaN or infinite (a lenient parse keeps them)."""
    return sum(1 for e in doc["invariants"] if not math.isfinite(e["max_drift"]))


def output_digest(op: Op, paths: list[str], value) -> str:
    h = hashlib.sha256()
    if op.kind == "search":
        h.update(repr(value.perm).encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read_trajectory(path: str, fmt: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if fmt == "csv":
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
        _require(
            header == ",".join(["t"] + [f"x_{j}" for j in range(1, dim + 1)]),
            f"unexpected CSV header in {path}",
        )
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return data[:, 0], data[:, 1:]
    doc = strict_json(_read(path))
    _require(doc["termination"] == "completed", f"termination {doc['termination']!r}")
    return np.asarray(doc["t"], dtype=float), np.asarray(doc["x"], dtype=float)


def _check_grid(times, states, w0, t_end: float, interval: float) -> None:
    """Finite samples on the fixed grid min(i * interval, t_end), starting at w0."""
    _require(states.shape[1:] == w0.shape, f"state width {states.shape[1:]} != {w0.shape}")
    _require(np.isfinite(times).all() and np.isfinite(states).all(), "non-finite samples")
    _require(np.array_equal(states[0], w0), "first sample is not the seeded initial state")
    _require(times[-1] == t_end, f"last sample at {times[-1]!r}, horizon {t_end!r}")
    grid = np.minimum(np.arange(len(times)) * interval, t_end)
    _require(np.allclose(times, grid, rtol=1e-12, atol=0.0), "samples are off the output grid")
    _require(grid[-2] < t_end, "grid continues past the horizon")


class Checker:
    """Validates op outputs; keeps the digest of each input's first checked output."""

    def __init__(self, dynamics) -> None:
        self._dynamics = dynamics
        self._systems: dict[int, object] = {}
        self._seen: dict[tuple, tuple[str, dict]] = {}

    def fingerprint(self) -> tuple[int, str]:
        """(inputs checked, sha256 over each input and its output digest); no wall times."""
        h = hashlib.sha256()
        for key, (digest, _) in sorted(self._seen.items(), key=lambda item: repr(item[0])):
            h.update(repr(key).encode() + digest.encode())
        return len(self._seen), h.hexdigest()

    def _system(self, n: int):
        if n not in self._systems:
            self._systems[n] = self._dynamics.TopSystem.create(n)
        return self._systems[n]

    def validate(self, op: Op, base: str, code, value) -> tuple[str, dict]:
        """(digest, info) of a correct op; raises CheckFailed otherwise."""
        _require(code == 0, f"exit code {code}")
        paths = op.outputs(base)
        digest = output_digest(op, paths, value)
        seen = self._seen.get(op.key)
        if seen is not None:
            _require(digest == seen[0], "output differs from the first run of the same input")
            return seen
        info = getattr(self, f"_check_{op.kind}")(op, paths, value)
        self._seen[op.key] = (digest, info)
        return digest, info

    def _check_run(self, op: Op, paths: list[str], _value) -> dict:
        n = op.size[1]
        system = self._system(n)
        w0 = seeded_state(op.seed, system.d)
        t_end = run_horizon(n, w0)
        interval = op.sample_interval or t_end / DEFAULT_SAMPLES
        times, states = _read_trajectory(paths[0], op.fmt, system.d)
        _check_grid(times, states, w0, t_end, interval)
        # Independent route: the a-flow, which shares no RHS code with omega.
        ref = self._dynamics.integrate(
            system, "a", system.a_matrix @ w0, t_end, REL_TOL, ABS_TOL, sample_interval=interval
        )
        _require(ref.completed, f"a-route termination {ref.termination}")
        _require(np.array_equal(ref.times, times), "a-route grid differs from the output grid")
        rel = np.abs(states @ system.a_matrix.T - ref.states) / np.abs(ref.states)
        _require(rel.max() <= ROUTE_TOL, f"a-image differs from the a-route by {rel.max():.2e}")
        drift = json.loads(_read(paths[1]))  # lenient: at n >= 8 it holds bare NaN
        names = [e["name"] for e in drift["invariants"]]
        expected = [f"gamma_{i}" for i in range(1, system.d + 1)]
        expected += [f"N_1_{j}" for j in range(2, system.d + 1)]
        _require(names == expected, "drift report does not list gamma_i and N_1j")
        return {"nonfinite_drifts": nonfinite_drifts(drift)}

    def _check_reduce(self, op: Op, paths: list[str], _value) -> dict:
        n = op.size[1]
        d = 2**n - 1
        doc = strict_json(_read(paths[0]))
        _require(doc["n"] == n and doc["genus"] == (2 ** (n - 1) - 1) ** 2, "n or genus wrong")
        for route in ("omega_termination", "scalar_termination"):
            _require(doc[route] == "completed", f"{route} {doc[route]!r}")
        err = doc["max_rel_err"]
        _require(err <= ROUTE_TOL, f"route difference {err:.2e} above {ROUTE_TOL}")
        per = doc["per_component_err"]
        _require(len(per) == d and max(per) == err, "per-component errors disagree with the max")
        t_end = run_horizon(n, seeded_state(op.seed, d))
        _require(doc["t_grid"][-1] == t_end, "comparison grid does not reach the horizon")
        return {}

    def _check_zk(self, op: Op, paths: list[str], _value) -> dict:
        k = op.size[1]
        w0 = seeded_state(op.seed, k + 1)
        t_end = zk_horizon(k, w0)
        interval = op.sample_interval or t_end / DEFAULT_SAMPLES
        times, states = _read_trajectory(paths[0], op.fmt, k + 1)
        _check_grid(times, states, w0, t_end, interval)
        sq = states**2
        series = sq[:, :-1] - sq[:, 1:]
        v0 = series[0]
        scale = np.maximum(np.abs(v0), float(np.max(w0**2)))
        worst = float(np.max(np.abs(series - v0) / scale))
        _require(worst <= CONSERVATION_TOL, f"square differences drift by {worst:.2e}")
        drift = json.loads(_read(paths[1]))
        entries = drift["invariants"]
        _require([e["name"] for e in entries] == [f"D_{i}_{i + 1}" for i in range(1, k + 1)],
                 "drift report does not list D_i_i+1")
        relative = np.abs(v0) >= 1e-12
        recomputed = np.max(np.abs(series - v0) / np.where(relative, np.abs(v0), 1.0), axis=0)
        reported = np.array([e["max_drift"] for e in entries])
        _require(np.allclose(reported, recomputed, rtol=1e-9, atol=1e-18),
                 "reported drift differs from the drift recomputed from the trajectory")
        return {"nonfinite_drifts": nonfinite_drifts(drift)}

    def _check_geometry(self, op: Op, paths: list[str], _value) -> dict:
        n = op.size[1]
        d = 2**n - 1
        num_lines = d * (2 ** (n - 1) - 1) // 3
        if op.fmt == "dot":
            return self._check_dot(n, d, num_lines, _read(paths[0]))
        doc = strict_json(_read(paths[0]))
        _require(doc["n"] == n, "n wrong")
        _require(doc["points"] == [format(p, f"0{n}b") for p in range(1, d + 1)], "points wrong")
        lines = np.asarray(doc["lines"], dtype=np.int64)
        _require(lines.shape == (num_lines, 3), f"{len(lines)} lines, expected {num_lines}")
        _check_triples(lines, d)
        planes = doc["hyperplanes"]
        _require(sorted(h["normal"] for h in planes) == list(range(1, d + 1)), "normals wrong")
        normals = np.array([h["normal"] for h in planes], dtype=np.int64)
        pts = np.array([h["points"] for h in planes], dtype=np.int64)
        _require(pts.shape == (d, 2 ** (n - 1) - 1), "hyperplane sizes wrong")
        _require(bool((np.diff(pts, axis=1) > 0).all()) and pts.min() >= 1 and pts.max() <= d,
                 "hyperplane points not distinct or out of range")
        _require(not (np.bitwise_count(normals[:, None] & pts) & 1).any(),
                 "a hyperplane holds a point not orthogonal to its normal")
        return {}

    def _check_dot(self, n: int, d: int, num_lines: int, text: str) -> dict:
        rows = text.splitlines()
        _require(rows[0] == f"graph incidence_{n} {{" and rows[-1] == "}", "DOT frame wrong")
        points = [int(m) for m in re.findall(r"^  p(\d+) \[shape=circle", text, re.M)]
        boxes = re.findall(r"^  L(\d+) \[shape=box", text, re.M)
        _require(points == list(range(1, d + 1)), "DOT point nodes wrong")
        _require(len(boxes) == num_lines, f"{len(boxes)} line nodes, expected {num_lines}")
        members: dict[str, list[int]] = {}
        for p, line in re.findall(r"^  p(\d+) -- L(\d+);$", text, re.M):
            members.setdefault(line, []).append(int(p))
        _require(sorted(members) == sorted(boxes), "edges do not match the line nodes")
        triples = np.array([sorted(v) for v in members.values()], dtype=np.int64)
        _require(triples.shape == (num_lines, 3), "a line node does not have 3 points")
        _check_triples(triples, d)
        return {}

    def _check_equations(self, op: Op, paths: list[str], _value) -> dict:
        n = op.size[1]
        d = 2**n - 1
        triples = set()
        rows = _read(paths[0]).splitlines()
        _require(len(rows) == d, f"{len(rows)} equations, expected {d}")
        for i, row in enumerate(rows, start=1):
            m = re.fullmatch(rf"dw{i} = (.*)", row)
            _require(m, f"equation {i} malformed")
            terms = re.findall(r"w(\d+)\*w(\d+)", m.group(1))
            _require(len(terms) == 2 ** (n - 1) - 1, f"equation {i} has {len(terms)} terms")
            triples.update(tuple(sorted((i, int(j), int(k)))) for j, k in terms)
        # Every pair of points on exactly one line: a Steiner triple system.
        pairs = Counter(pair for t in triples for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
        _require(len(pairs) == d * (d - 1) // 2 and set(pairs.values()) == {1},
                 "equation triples do not cover each pair of points exactly once")
        return {}

    def _check_search(self, op: Op, paths: list[str], value) -> dict:
        n = op.size[1]
        d = 2**n - 1
        _require(value is not None, "search found no relabelling")
        perm = value.perm
        _require(sorted(perm) == list(range(1, d + 1)), "result is not a permutation")
        if op.argv[0] == "find_collineation":
            image = {tuple(sorted(perm[p - 1] for p in line)) for line in canonical_lines(n)}
            _require(image == {tuple(sorted(t)) for t in op.target},
                     "collineation does not map the canonical lines onto the target")
        else:
            image = {frozenset(perm[p - 1] for p in h) for h in canonical_hyperplanes(n)}
            _require(image == {frozenset(b) for b in op.target},
                     "collineation does not map the canonical hyperplanes onto the target")
        return {}


def _check_triples(triples: np.ndarray, d: int) -> None:
    """Sorted, distinct, XOR-closed triples of points in 1..d."""
    _require(triples.min() >= 1 and triples.max() <= d, "line point out of range")
    _require(bool((np.diff(triples, axis=1) > 0).all()), "line points not sorted and distinct")
    _require(not (triples[:, 0] ^ triples[:, 1] ^ triples[:, 2]).any(), "a line is not XOR-closed")
    _require(len(np.unique(triples, axis=0)) == len(triples), "a line is listed twice")
