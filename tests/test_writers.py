"""Property tests: the text writers equal the standard library's output.

The JSON writer must give exactly json.dumps(doc, sort_keys=True, indent=1)
+ "\\n" for every document of its grammar: str keys, and as values JSON
scalars, flat lists of them, or lists of non-empty number rows.
Arrays in the document stand for their .tolist(): the text of float64
ones, from the '%.17g' kernel's shortest mode, is held to json.dumps of
those lists.
Trajectory.to_csv must give exactly what csv.writer gives for
format(x, ".17g") cells; _reference_csv is the csv.writer code that
to_csv replaced.  The '%.17g' kernel under to_csv is held to '%.17g' % x,
value by value.  The integer template kernel under the geometry JSON and
DOT is held to str() and "".join, row by row.  The drift report's columnar
writers are held to the per-entry dict and row loop that they replaced.
"""

import csv
import dataclasses
import io
import json
import math
import operator
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from z2top import dynamics, geometry  # noqa: E402
from z2top.dynamics import (  # noqa: E402
    TopSystem,
    Trajectory,
    _format_g17,
    _json_text,
    trajectory_json,
)
from z2top.invariants import DriftReport, drift_report  # noqa: E402

_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1 / 3]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGE_FLOATS)
ints = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70)
text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀"])
scalars = st.none() | st.booleans() | ints | floats | text | floats.map(np.float64)
_SEAM_TEXT = text | st.sampled_from(['"', "\\", "\n", "],", "}", ",\n  [", "],\n   [", '"},\n {"'])
numbers = floats | ints | floats.map(np.float64)
flat_lists = st.lists(scalars, max_size=12) | st.lists(floats, max_size=12)
# Non-empty rows of one width, as a trajectory's x, and of ragged widths.
rows = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(numbers, min_size=w, max_size=w), max_size=10)
) | st.lists(st.lists(numbers, min_size=1, max_size=4), max_size=10)
documents = st.dictionaries(_SEAM_TEXT, scalars | flat_lists | rows, max_size=6)


def _reference_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@settings(max_examples=300, deadline=None)
@given(documents)
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == _reference_json(doc)


@settings(max_examples=300, deadline=None)
@given(documents, rows, st.integers(1, 12), _SEAM_TEXT)
def test_json_writer_chunks_match_json_dumps(doc, x, block_values, key):
    # Small blocks, so that one list of rows spans several encoder calls.
    doc = {**doc, key: x}
    with mock.patch.object(dynamics, "_BLOCK_VALUES", block_values):
        assert _json_text(doc) == _reference_json(doc)


@pytest.mark.parametrize("obj", [np.int64(1), np.bool_(True), object()])
def test_json_writer_refuses_what_json_refuses(obj):
    # As a scalar, in a flat list and in a row.
    for doc in ({"a": obj}, {"a": [0.5, obj]}, {"a": 1, "x": [[0.5], [obj, 1.0]]}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            _json_text(doc)


def _around(x: float, steps: int = 3) -> list[float]:
    """x and the steps nearest doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# Doubles whose shortest text has 17, 16 or fewer digits, integers and powers
# of two (whose digits can tie), and doubles next to the kernel's range ends.
_SHORTEST = (
    st.floats(0.1, 0.5)
    | st.floats(-324.0, 308.25).map(lambda e: 10.0**e)  # log-uniform, subnormals to near max
    | st.builds(operator.mul, st.integers(0, 2**20), st.floats(1e-6, 1.0))  # grid times
    | st.builds(round, st.floats(-1e6, 1e6), st.integers(0, 16))
    | st.integers(-(2**60), 2**60).map(float)
    | st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
    | st.integers(0, 2**64 - 1).map(_from_bits)
    | st.sampled_from([x for p in (1e-6, 1e15, 1e16) for x in _around(p)])
    | st.sampled_from([0.0, math.nan, math.inf])
)
_SHORTEST = _SHORTEST | _SHORTEST.map(operator.neg)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(0, 30), elements=_SHORTEST),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 6)), elements=_SHORTEST),
    st.integers(1, 40) | st.just(dynamics._BLOCK_VALUES),
)
def test_json_writer_writes_arrays_as_their_lists(t, x, block_values):
    # Small blocks, so that one array spans several kernel calls.
    doc = {"n": 5, "t": t, "x": x}
    with mock.patch.object(dynamics, "_BLOCK_VALUES", block_values):
        assert _json_text(doc) == _reference_json({**doc, "t": t.tolist(), "x": x.tolist()})


@pytest.mark.parametrize(
    "values",
    [np.arange(3), np.array([[1, -2]], dtype=np.int32), np.array([0.1], dtype=np.float32),
     np.array([True]), np.empty((0, 3))],
    ids=["int64", "int32-rows", "float32", "bool", "float64-empty"],
)
def test_json_writer_writes_other_arrays_as_their_lists(values):
    assert _json_text({"x": values}) == _reference_json({"x": values.tolist()})


def test_json_writer_writes_every_power_of_two_in_the_kernel_range():
    # Their rounding interval is not symmetric, so the kernel's argument does
    # not cover them; they are few enough to check every one.
    powers = np.array([math.ldexp(1.0, e) for e in range(-19, 54)])
    assert powers[0] > 1e-6 > powers[0] / 2 and powers[-1] < 1e16 < powers[-1] * 2
    values = np.concatenate([powers, -powers])
    # All but 2^53, whose D16 is not below 2^53, go through the kernel.
    assert values[dynamics._g17_decimal(values, True)[2]].tolist() == [2.0**53, -(2.0**53)]
    assert _json_text({"x": values}) == _reference_json({"x": values.tolist()})


@pytest.mark.parametrize("m, dim", [(3000, 2), (2, 4999), (4097, 31)])
def test_trajectory_json_matches_json_dumps(m, dim):
    # Several rows per block; rows wider than a block; the fine grid.
    rng = np.random.default_rng(m + dim)
    times, states = _mixed_values(rng, m), _mixed_values(rng, (m, dim))
    trajectory = Trajectory("omega", times, states, "completed")
    expected = _reference_json(trajectory.to_json_dict(n=5, seed=None))
    assert trajectory_json(trajectory, n=5, seed=None) == expected


def _reference_drift_json(report: DriftReport) -> str:
    entries = [
        {"name": name, "initial": x0, "max_drift": drift, "t_at_max": t,
         "mode": "relative" if rel else "absolute"}
        for name, x0, drift, t, rel in zip(
            report.names, report.initial, report.max_drift, report.t_at_max, report.relative
        )
    ]
    doc = {
        "schema_version": 1,
        "skipped_samples": report.skipped_samples,
        "max_drift": float(np.max([e["max_drift"] for e in entries], initial=0.0)),
        "invariants": entries,
    }
    return _reference_json(doc)


def _reference_drift_table(report: DriftReport) -> str:
    lines = [f"{'invariant':<12} {'initial':>24} {'max drift':>13} {'t(max)':>10}"]
    row = "%-12s %24.16e %13.3e %10.6f"
    for e in zip(report.names, report.initial, report.max_drift, report.t_at_max):
        lines.append(row % e)
    return "\n".join(lines)


@st.composite
def drift_reports(draw):
    k = draw(st.integers(0, 12))
    column = st.lists(floats | floats.map(np.float64), min_size=k, max_size=k).map(np.array)
    return DriftReport(
        names=tuple(draw(st.lists(_SEAM_TEXT, min_size=k, max_size=k))),
        initial=draw(column),
        max_drift=draw(column),
        t_at_max=draw(column),
        relative=np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool),
        skipped_samples=draw(st.integers(0, 10**6)),
    )


_EMPTY = np.empty(0)


@settings(max_examples=300, deadline=None)
@given(drift_reports())
@example(DriftReport((), _EMPTY, _EMPTY, _EMPTY, _EMPTY.astype(bool), 0))
def test_drift_writers_match_per_entry_references(report):
    assert report.json_text() == _reference_drift_json(report)
    assert report.table() == _reference_drift_table(report)


@pytest.mark.parametrize("n", [2, 8])
def test_drift_writers_format_repeated_times_by_their_bits(n):
    # A report repeats a few sample times over all its entries.  Each distinct
    # time is written once; equal bits, not equal values, share a text, so
    # -0.0 keeps its sign next to 0.0.
    system = TopSystem.create(n)
    rng = np.random.default_rng(n)
    times = np.linspace(0.0, 1.0, 6)
    a = rng.uniform(0.5, 1.5, (len(times), system.d))
    report = drift_report(system, Trajectory("a", times, a, "completed"))
    pool = np.array([0.0, -0.0, 5e-324, 1e300])
    t_at_max = rng.permutation(np.resize(pool, len(report.names)))
    report = dataclasses.replace(report, t_at_max=t_at_max)
    assert report.json_text() == _reference_drift_json(report)
    assert report.table() == _reference_drift_table(report)
    assert "-0.000000" in report.table() and "-0.0" in report.json_text()


def _reference_csv(trajectory: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"x_{j}" for j in range(1, trajectory.states.shape[1] + 1)])
    for t, row in zip(trajectory.times, trajectory.states):
        writer.writerow([format(t, ".17g")] + [format(x, ".17g") for x in row])
    return buf.getvalue()


@st.composite
def trajectories(draw):
    m, dim = draw(st.integers(1, 200)), draw(st.integers(1, 5))
    times = draw(hnp.arrays(np.float64, m, elements=floats, fill=floats))
    states = draw(hnp.arrays(np.float64, (m, dim), elements=floats, fill=floats))
    return Trajectory("omega", times, states, "completed")


@settings(max_examples=200, deadline=None)
@given(trajectories(), st.integers(1, 40))
def test_to_csv_matches_csv_writer(trajectory, block_values):
    # Small blocks, so that a trajectory spans several of them, and a row can
    # be wider than a block.
    with mock.patch.object(dynamics, "_BLOCK_VALUES", block_values):
        assert trajectory.to_csv() == _reference_csv(trajectory)


def _mixed_values(rng, shape):
    """Values from every branch of the '%.17g' kernel and of its fallback."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-7, -3e17, 1e300])
    values = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-9, 20, shape)
    pick = rng.random(shape) < 0.1
    values[pick] = rng.choice(special, np.count_nonzero(pick))
    return values


@pytest.mark.parametrize("m, dim", [(3000, 2), (2, 4999), (4097, 31)])
def test_to_csv_blocks_match_csv_writer(m, dim):
    # 1365 rows of 3 values per block; rows wider than a block; the fine grid.
    rng = np.random.default_rng(m + dim)
    times, states = _mixed_values(rng, m), _mixed_values(rng, (m, dim))
    trajectory = Trajectory("omega", times, states, "completed")
    assert trajectory.to_csv() == _reference_csv(trajectory)


def _reference_rows(values: np.ndarray) -> str:
    return "".join([",".join(["%.17g" % x for x in row]) + "\n" for row in values.tolist()])


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, -math.inf])
_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 8))
_KERNEL_RANGE = st.floats(min_value=1e-6, max_value=1e17, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, _SHAPES, elements=st.floats() | _EDGES))
def test_format_g17_matches_percent(values):
    assert _format_g17(values).decode() == _reference_rows(values)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, _SHAPES, elements=_KERNEL_RANGE | _KERNEL_RANGE.map(lambda x: -x)))
def test_format_g17_matches_percent_in_kernel_range(values):
    assert _format_g17(values).decode() == _reference_rows(values)


def _below(p: Fraction) -> float:
    """The largest double below p."""
    x = float(p)
    while Fraction(x) >= p:
        x = math.nextafter(x, 0.0)
    return x


def _fixed_table() -> list[float]:
    values = []
    for k in range(-8, 19):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    values += [math.nextafter(1e-4, 0.0), math.nextafter(1e-6, 0.0)]
    # Roundings that carry through a run of nines: 1.2 is 1.1999...9556.
    values += [1.2, 1.7, 0.039, 0.00035, 0.00031]
    # Exact ties at the 18th digit (odd integers / 2^k): the 17th goes to even.
    values += [m / 2**k for m in (131073, 131075, 1048577, 1048579) for k in (17, 20)]
    values += [2.0**53 - 2, 2.0**53 + 2]
    return values + [-x for x in values]


def test_format_g17_fixed_table():
    values = np.array(_fixed_table())
    expected = "".join(["%.17g\n" % x for x in values.tolist()])
    assert _format_g17(values[:, None]).decode() == expected
    assert _format_g17(values[None, :]).decode() == expected.replace("\n", ",")[:-1] + "\n"
    assert _format_g17(np.array([[math.nextafter(1e-4, 0.0)]])).decode() == "9.9999999999999991e-05\n"
    ties = np.array([[1 + 2**-17, 1 + 3 * 2**-17]])
    assert _format_g17(ties).decode() == "1.0000076293945312,1.0000228881835938\n"


@pytest.mark.parametrize("k", range(-5, 18))
def test_no_double_below_a_power_of_ten_rounds_up_to_it(k):
    # The kernel relies on this: N = round(|x| 10^(16 - X)) never reaches 10^17.
    p = Fraction(10) ** k
    assert Fraction("%.17g" % _below(p)) < p


def test_json_array_document_peak_memory_is_about_twice_the_text():
    # The same trajectory as arrays, as trajectory_json hands them over.
    states = np.random.default_rng(0).random((20_000, 31))
    trajectory = Trajectory("omega", np.linspace(0.0, 1.0, 20_000), states, "completed")
    tracemalloc.start()
    try:
        text = trajectory_json(trajectory, n=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10_000_000
    assert peak <= 2.1 * len(text)


def test_json_text_peak_memory_is_about_twice_the_text():
    # A 20,000-sample trajectory at n = 5, about 15 MB of text.
    states = np.random.default_rng(0).random((20_000, 31))
    doc = Trajectory("omega", np.linspace(0.0, 1.0, 20_000), states, "completed").to_json_dict(n=5)
    tracemalloc.start()
    try:
        text = _json_text(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10_000_000
    assert peak <= 2.1 * len(text)


_TEMPLATE_INTS = st.integers(0, 10**8 - 1) | st.sampled_from([0, 9, 10, 9999, 10_000, 10**8 - 1])
_PIECES = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=7)


@st.composite
def templates(draw):
    k = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_TEMPLATE_INTS, min_size=k, max_size=k), max_size=10))
    pieces = draw(st.lists(_PIECES, min_size=k + 1, max_size=k + 1))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k), pieces, draw(_PIECES)


@settings(max_examples=300, deadline=None)
@given(templates(), st.integers(1, 40))
def test_template_kernel_matches_str_join(template, block_words):
    # Small blocks, so that one call mixes one- and two-word blocks and a row
    # can be wider than a block.
    values, pieces, sep = template
    reference = sep.join(
        ["".join([p + str(v) for p, v in zip(pieces, row)]) + pieces[-1] for row in values.tolist()]
    )
    with mock.patch.object(geometry, "_TEMPLATE_BLOCK_WORDS", block_words):
        assert "".join(geometry._template_blocks(values, pieces, sep)) == reference


@pytest.mark.parametrize("value", [-1, 10**8])
def test_template_kernel_refuses_values_outside_eight_digits(value):
    with pytest.raises(ValueError):
        geometry._template_blocks(np.array([[value]]), ["", ""])


@pytest.mark.parametrize("write", [geometry.geometry_json_text, geometry.incidence_dot])
def test_geometry_text_peak_memory_is_about_twice_the_text(write):
    # Row blocks bound the kernel's index matrices; the row arrays are freed
    # before the blocks are joined.
    tracemalloc.start()
    try:
        text = write(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10_000_000
    assert peak <= 2.1 * len(text)
