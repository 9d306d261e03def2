"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _beyond(count: int, pct: int) -> int:
    return count - max(1, math.ceil(pct * count / 100))


@pytest.mark.parametrize("count", [11, 12, 19, 20, 25, 99, 100, 101, 500, 1999])
def test_tail_percentile_is_highest_with_ten_beyond(count):
    pct = stats.tail_percentile(count)
    assert _beyond(count, pct) >= 10
    assert pct == 99 or _beyond(count, pct + 1) < 10


def test_tail_values():
    values = list(range(100, 0, -1))  # 100 values, unsorted
    assert stats.tail(values) == (90, 90)
    assert stats.tail(values[:20]) == (50, 90)  # 100..81: p50 is 90, 10 beyond it
    assert stats.tail([3.0, 1.0, 2.0]) == (0, 1.0)  # too few ops: no percentile qualifies


def test_nearest_rank():
    assert stats.nearest_rank([5, 1, 4, 2, 3], 40) == 2
    assert stats.nearest_rank([5, 1, 4, 2, 3], 100) == 5
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_union_length_merges_overlaps_and_clips():
    assert stats.union_length([], 0, 10) == 0
    assert stats.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert stats.union_length([(1, 9), (2, 3)], 0, 10) == 8  # nested
    assert stats.union_length([(-5, 2), (9, 20)], 0, 10) == 3  # clipped to the parent
    assert stats.union_length([(4, 4), (6, 5)], 0, 10) == 0  # empty intervals


def test_self_time_subtracts_union_of_children():
    assert stats.self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert stats.self_time(0, 10, []) == 10
    assert stats.self_time(2, 4, [(0, 10)]) == 0


def test_fail_and_ok_ratio_accounting():
    assert stats.fail_ratio(10, 0) == 0.0 and stats.ok_ratio(10, 0) == 1.0
    assert stats.fail_ratio(8, 2) == 0.25 and stats.ok_ratio(8, 2) == 0.75
    for attempted, failed in ((0, 0), (5, 6), (5, -1)):
        with pytest.raises(ValueError):
            stats.fail_ratio(attempted, failed)


def test_schedule_is_seeded_and_cycles_keep_the_mix():
    for name, shapes in workloads.SHAPES.items():
        assert len(shapes) % 2 == 1, f"{name}: an even shape count puts the median between shapes"
        a, b = workloads.Schedule(name, 7), workloads.Schedule(name, 7)
        assert [a.cycle(i) for i in range(4)] == [b.cycle(i) for i in range(4)]
        other = workloads.Schedule(name, 8)
        for i in range(4):
            kinds = sorted(op.argv[:1] + op.size for op in a.cycle(i))
            assert kinds == sorted(op.argv[:1] + op.size for op in other.cycle(i))
        # Cycle i and cycle i + POOL run the same inputs.
        assert sorted(map(repr, a.cycle(1))) == sorted(map(repr, a.cycle(1 + workloads.POOL)))


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SHAPES)


def test_spans_cover_a_traced_op(tmp_path):
    program = run.Program()
    tracer = tracing.Tracer(program.errors.BranchError)
    original = program.cli.main
    tracer.install(program)
    try:
        tracer.active = True
        code = program.cli.main(["run", "--n", "3", "--seed", "5", "--out", str(tmp_path / "r")])
        tracer.active = False
        trace = tracer.take_op()
    finally:
        tracer.uninstall()
    assert code == 0 and program.cli.main is original
    assert trace.calls["cli.main"] == 1 and trace.calls["dynamics.create"] == 1
    assert trace.roots == 1 and abs(trace.coverage_gap_s) < 1e-9
    assert trace.total["cli.main"] == trace.root_s
    assert trace.calls["integrate.adaptive_rk"] == 1
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert trace.counters["bytes"] == written
    assert trace.counters["samples"] == workloads.DEFAULT_SAMPLES + 1
    # adaptive_rk's self time is its span minus the RHS calls inside it.
    rhs = trace.total["dynamics.omega_rhs"]
    assert trace.own["integrate.adaptive_rk"] == pytest.approx(
        trace.total["integrate.adaptive_rk"] - rhs, abs=1e-12
    )
