"""Property tests: the text writers equal the standard library's output.

The JSON writer must give exactly json.dumps(obj, sort_keys=True, indent=1)
+ "\\n", and Trajectory.to_csv exactly what csv.writer gives for
format(x, ".17g") cells; _reference_csv is the csv.writer code that
to_csv replaced.
"""

import csv
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from z2top.dynamics import Trajectory, _json_text  # noqa: E402

_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1 / 3]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGE_FLOATS)
ints = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70)
text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀"])
scalars = st.none() | st.booleans() | ints | floats | text | floats.map(np.float64)


def _rows(items):
    """Equal-length rows of one item kind: the writer's row-template path."""
    return st.integers(0, 4).flatmap(
        lambda w: st.lists(st.lists(items, min_size=w, max_size=w), max_size=8)
    )


blocks = (
    st.lists(floats, max_size=12)
    | st.lists(ints, max_size=12)
    | _rows(floats)
    | _rows(ints)
    | st.lists(floats.map(np.float64), max_size=6)
    | st.lists(st.booleans(), max_size=6)
    # Mixed kinds and ragged rows.
    | st.lists(st.lists(floats | ints | st.booleans(), max_size=4), max_size=6)
)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(text, children, max_size=5)
    )


documents = st.recursive(scalars | blocks, _containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(documents | st.dictionaries(text, documents, max_size=6))
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("obj", [np.int64(1), np.bool_(True), object()])
def test_json_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        _json_text(obj)


def _reference_csv(trajectory: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"x_{j}" for j in range(1, trajectory.states.shape[1] + 1)])
    for t, row in zip(trajectory.times, trajectory.states):
        writer.writerow([format(t, ".17g")] + [format(x, ".17g") for x in row])
    return buf.getvalue()


@st.composite
def trajectories(draw):
    # Up to 200 rows, so that a trajectory spans several of to_csv's row blocks.
    m, dim = draw(st.integers(1, 200)), draw(st.integers(1, 5))
    times = draw(hnp.arrays(np.float64, m, elements=floats, fill=floats))
    states = draw(hnp.arrays(np.float64, (m, dim), elements=floats, fill=floats))
    return Trajectory("omega", times, states, "completed")


@settings(max_examples=200, deadline=None)
@given(trajectories())
def test_to_csv_matches_csv_writer(trajectory):
    assert trajectory.to_csv() == _reference_csv(trajectory)
