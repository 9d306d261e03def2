"""Benchmark of the z2top CLI and library: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from ``src/``.
One client drives a closed loop in this process: it calls
``z2top.cli.main(argv)`` (or a public search function), waits for it, checks
the output outside the timed interval, then sends the next op.  The loop
runs whole cycles of the workload (see workloads.py) until the ops have
kept the program busy for S seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs each op once with
and once without spans around each layer and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

#: BLAS threads, fixed for every workload process (at most the 2 cores of the
#: reference machine, and 1 so that a single client never waits on a spinning
#: BLAS thread of its own).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is measured in this process and in fresh child processes, this
#: many before the timed loop and as many after it, so that the median spans
#: more than one phase of the host's load.
SETUP_CHILDREN_EACH_SIDE = 2
#: Stop starting cycles after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    error: str | None = None
    digest: str | None = None
    info: dict = field(default_factory=dict)
    trace: object = None  # tracing.OpTrace of a traced op


class Program:
    """The z2top modules the benchmark calls and wraps."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("z2top.cli")
        for name in ("dynamics", "errors", "geometry", "reduction", "zktop"):
            setattr(self, name, importlib.import_module(f"z2top.{name}"))


def execute(op: workloads.Op, base: str, program: Program) -> tuple[float, object, object, str]:
    """Run one op; returns (seconds, exit code or None, search result, error text)."""
    for path in op.outputs(base):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    captured = io.StringIO()
    code, value, error = None, None, ""
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            if op.kind == "search":
                value = getattr(program.geometry, op.argv[0])(op.size[1], op.target)
                code = 0
            else:
                code = program.cli.main(op.cli_argv(base))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if code != 0 and not error:
        last = captured.getvalue().strip().splitlines()[-1:]
        error = f"exit code {code}: {' '.join(last)}"
    return seconds, code, value, error


def prepare(workload: str, seed: int) -> tuple[Program, workloads.Schedule, float]:
    """Import the program and build the workload's inputs; returns the time taken."""
    start = time.perf_counter()
    program = Program()
    schedule = workloads.Schedule(workload, seed)
    return program, schedule, time.perf_counter() - start


def setup_probe(args: argparse.Namespace, base: str) -> int:
    """Child-process mode: one fresh set-up; prints its time and warm-up output digests."""
    program, schedule, seconds = prepare(args.workload, args.seed)
    from checks import output_digest  # loads numpy, which prepare() already imported

    digests = []
    for op in schedule.cycle(0):
        op_s, code, value, error = execute(op, base, program)
        seconds += op_s
        digests.append(None if error else output_digest(op, op.outputs(base), value))
    print(json.dumps({"setup_s": seconds, "digests": digests}))
    return 0


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """The commit of the source tree, or a digest of src/z2top when there is no .git."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    h = hashlib.sha256()
    for path in sorted((SRC / "z2top").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


class Bench:
    """One workload run: set-up, the timed loop, checks and the result line."""

    def __init__(self, args: argparse.Namespace, base: str) -> None:
        self.args = args
        self.base = base
        self.results: list[OpResult] = []  # every op run in this process
        self.problems: list[str] = []  # failed harness checks that are not one op's fault
        self.wall_start = time.monotonic()

    def run(self) -> int:
        args = self.args
        self.program, self.schedule, prep_s = prepare(args.workload, args.seed)
        import checks  # loads numpy, which prepare() already imported

        self.checker = checks.Checker(self.program.dynamics)
        warm = [self.run_op(op) for op in self.schedule.cycle(0)]
        setup_samples = [prep_s + sum(r.seconds for r in warm)]
        self.probe_children(setup_samples, warm)

        env = environment()
        print("env " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds, "trace": args.trace}))
        if args.trace:
            metrics, units = self.traced(env["git_rev"])
        else:
            metrics = self.untraced()
            self.probe_children(setup_samples, warm)
            metrics["setup_s"] = median(setup_samples)
            print(f"set-up samples {setup_samples}")
            units = END_TO_END_UNITS
            metrics = {name: metrics[name] for name in units}

        inputs, fingerprint = self.checker.fingerprint()
        print(f"outputs of {inputs} distinct inputs: sha256 {fingerprint}")
        failed = [r for r in self.results if r.error]
        for r in failed[:10]:
            print(f"FAILED {r.op.label}: {r.error}", file=sys.stderr)
        for problem in self.problems:
            print(f"PROBLEM {problem}", file=sys.stderr)
        print(f"attempted {len(self.results)} ops (warm-up included), failed {len(failed)}, "
              f"fail_ratio = {stats.fail_ratio(len(self.results), len(failed))}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": not failed and not self.problems,
            "attempted": len(self.results),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0

    def run_op(self, op: workloads.Op, tracer=None) -> OpResult:
        """Run one op, with spans when a tracer is given, then check its output untraced."""
        if tracer is not None:
            tracer.active = True
        try:
            seconds, code, value, error = execute(op, self.base, self.program)
        finally:
            if tracer is not None:
                tracer.active = False
        result = OpResult(op, seconds, error or None)
        if tracer is not None:
            result.trace = tracer.take_op()
        if not error:
            try:
                result.digest, result.info = self.checker.validate(op, self.base, code, value)
            except Exception as exc:  # a malformed output fails its op, whatever the parser raises
                result.error = f"check failed: {type(exc).__name__}: {exc}"
        self.results.append(result)
        return result

    def probe_children(self, samples: list[float], warm: list[OpResult]) -> None:
        """Time fresh set-ups in child processes; each must write the warm-up outputs of this one."""
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", "0"]
        for _ in range(SETUP_CHILDREN_EACH_SIDE):
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            if proc.returncode != 0:
                self.problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
                continue
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            samples.append(child["setup_s"])
            if child["digests"] != [r.digest for r in warm]:
                self.problems.append("a fresh process wrote other outputs for the warm-up cycle")

    def cycles(self, min_cycles: int):
        """Whole cycles from cycle 1, until the loop is busy for --seconds (or the wall limit).

        The caller adds each op's latency to self.busy_s.
        """
        cycle = 1
        self.busy_s = 0.0
        while (self.busy_s < self.args.seconds or cycle <= min_cycles) and (
            cycle <= min_cycles or time.monotonic() - self.wall_start < WALL_LIMIT_S
        ):
            yield cycle, self.schedule.cycle(cycle)
            cycle += 1

    def untraced(self) -> dict[str, float]:
        timed = []
        for _, ops in self.cycles(min_cycles=1):
            for op in ops:
                timed.append(self.run_op(op))
                self.busy_s += timed[-1].seconds
        raw = [r.seconds for r in timed]
        # Other tenants of the host move its speed by 15-40% for seconds to
        # minutes, so a run's raw latencies mostly measure the host.  Each op
        # counts at the best latency its shape reached in this run instead;
        # a shape runs 20-90 times in a 30 s run, on POOL seeded inputs.
        best: dict[int, float] = {}
        for r in timed:
            best[r.op.shape] = min(best.get(r.op.shape, r.seconds), r.seconds)
        settled = [best[r.op.shape] for r in timed]
        pct, tail_s = stats.tail(settled)
        completed = sum(1 for r in timed if not r.error)
        print(f"{len(timed)} timed ops of {len(best)} shapes, {self.busy_s:.3f} s busy; "
              f"op_tail_s is p{pct} (nearest rank) of {len(settled)} ops")
        print(f"raw latencies: p50 {median(raw):.6g} s, p{pct} {stats.nearest_rank(raw, pct):.6g} s, "
              f"{completed / sum(raw):.6g} ops/s")
        return {
            "op_p50_s": median(settled),
            "op_tail_s": tail_s,
            "ops_per_s": completed / sum(settled),
            "ok_ratio": stats.ok_ratio(len(self.results), sum(1 for r in self.results if r.error)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, rev: str) -> tuple[dict[str, float], dict[str, str]]:
        import tracemalloc

        import tracing

        tracer = tracing.Tracer(self.program.errors.BranchError)
        tracer.install(self.program)
        plain, traced, fixed = [], [], []
        signatures: dict[tuple, tuple] = {}
        try:
            for cycle, ops in self.cycles(min_cycles=workloads.POOL):
                for i, op in enumerate(ops):
                    # Alternate which run of the pair goes first.
                    for on in ((False, True) if i % 2 == 0 else (True, False)):
                        result = self.run_op(op, tracer if on else None)
                        self.busy_s += result.seconds
                        (traced if on else plain).append(result)
                    self.check_trace(traced[-1], signatures)
                    if cycle <= workloads.POOL:
                        fixed.append(traced[-1])
            # Memory probe, untimed: the largest run and reduce ops under tracemalloc.
            tracemalloc.start()
            try:
                for kind in ("run", "reduce"):
                    ops = [op for op in self.schedule.cycle(0) if op.kind == kind]
                    if ops:
                        self.run_op(max(ops, key=lambda op: op.size[1]), tracer)
            finally:
                tracemalloc.stop()
        finally:
            tracer.uninstall()

        # The two runs of a pair are adjacent in time, so their difference
        # cancels most of the host's drift in speed.
        overhead = median([t.seconds - p.seconds for t, p in zip(traced, plain)])
        traces = [r.trace for r in traced]
        metrics = tracing.layer_metrics(traces, [r.trace for r in fixed], tracer.peaks, overhead)
        for row in tracing.layer_rows([(r.op.size, r.trace) for r in traced]):
            print("layer " + json.dumps({**row, "git_rev": rev}))
        print(f"{len(traced)} traced and {len(plain)} untraced ops; counts over the "
              f"{len(fixed)} ops of cycles 1..{workloads.POOL}")
        units = tracing.metric_units()
        return {name: metrics[name] for name in units}, units

    def check_trace(self, result: OpResult, signatures: dict) -> None:
        """Span coverage of one traced op, and equal counts on repeats of an input."""
        trace = result.trace
        trace.counters["nonfinite_drifts"] = result.info.get("nonfinite_drifts", 0)
        if trace.roots != 1:
            self.problems.append(f"{result.op.label} left {trace.roots} root spans, not 1")
        if abs(trace.coverage_gap_s) > 1e-9 * (1.0 + trace.root_s):
            self.problems.append(f"self times of {result.op.label} miss the op by {trace.coverage_gap_s}")
        if signatures.setdefault(result.op.key, trace.signature()) != trace.signature():
            self.problems.append(f"counts of {result.op.label} differ between runs of one input")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "z2top" / "cli.py").is_file():
        print(f"error: no z2top sources at {SRC}; run from the root of a z2top tree", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy first loads, which is below.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        base = str(work / "op")
        if args.setup_probe:
            return setup_probe(args, base)
        return Bench(args, base).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
