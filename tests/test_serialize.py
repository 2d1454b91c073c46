"""Bulk float emission: JSON and CSV text byte for byte equal to the
per-value formatting kept here as the reference implementation."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import Operator
from spinphase.serialize import dumps, operator_to_jsonable, trajectory_csv_lines


def reference_format_float(x) -> str:
    if x != x:  # NaN
        return "NaN"
    return format(float(x), ".17g")


def reference_emit(obj) -> str:
    """One call per value: the emitter before floats were formatted in bulk."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return reference_format_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {reference_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_csv_lines(times, element_tracks) -> list[str]:
    """One line and four float formats per element and time step."""
    tracks = [(rc, list(vals)) for rc, vals in element_tracks]
    lines = ["t,row,col,re,im"]
    for i, t in enumerate(times):
        for (row, col), vals in tracks:
            v = vals[i]
            lines.append(
                f"{reference_format_float(t)},{row},{col},"
                f"{reference_format_float(v.real)},{reference_format_float(v.imag)}"
            )
    return lines


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, -2.2250738585071e-308, 1e308, -1e308,
    1.7976931348623157e308, 1e-300, 0.1, 1.0 / 3.0, 123456789012345680.0,
]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
)
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
)
values = st.one_of(st.lists(floats, max_size=12), st.lists(scalars, max_size=12))
documents = st.recursive(
    st.one_of(scalars, st.none(), st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=150, deadline=None)
    @given(values)
    def test_float_lists_match_reference(self, obj):
        assert dumps(obj) == reference_emit(obj) + "\n"
        assert dumps(tuple(obj)) == reference_emit(tuple(obj)) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(documents)
    def test_nested_documents_match_reference(self, obj):
        assert dumps(obj) == reference_emit(obj) + "\n"

    def test_non_finite_entries_keep_their_tokens(self):
        assert dumps([1.5, math.nan, -math.inf, math.inf, -0.0]) == (
            "[1.5, NaN, -Infinity, Infinity, -0]\n"
        )

    def test_operator_rows_are_python_floats(self):
        mat = np.array([[0.1, -0.0], [math.inf, math.nan]]) + 1j * np.array(
            [[5e-324, 1e308], [-1e-300, 2.0]]
        )
        payload = operator_to_jsonable(Operator(mat, "A"))
        for part in ("re", "im"):
            assert all(type(v) is float for row in payload[part] for v in row)
        want = {
            "dim": 2,
            "label": "A",
            "re": [[float(v) for v in row] for row in mat.real],
            "im": [[float(v) for v in row] for row in mat.imag],
        }
        assert dumps(payload) == reference_emit(want) + "\n"


@st.composite
def trajectories(draw):
    times = draw(st.lists(floats, max_size=6))
    n_tracks = draw(st.integers(min_value=0, max_value=4))
    parts = st.one_of(
        st.builds(complex, floats, floats),
        st.builds(complex, floats, floats).map(np.complex128),
    )
    tracks = []
    for _ in range(n_tracks):
        rc = (draw(st.integers(0, 200)), draw(st.integers(0, 200)))
        tracks.append((rc, tuple(draw(st.lists(parts, min_size=len(times), max_size=len(times))))))
    return times, tracks


class TestTrajectoryCsv:
    @settings(max_examples=200, deadline=None)
    @given(trajectories())
    def test_lines_match_reference(self, data):
        times, tracks = data
        assert trajectory_csv_lines(times, tracks) == reference_csv_lines(times, tracks)

    def test_non_finite_values_use_per_value_tokens(self):
        tracks = [((1, 0), (complex(math.nan, 1.0), complex(math.inf, -math.inf))),
                  ((0, 0), (complex(0.5, -0.0), complex(1e308, 5e-324)))]
        times = [0.0, 0.25]
        assert trajectory_csv_lines(times, tracks) == [
            "t,row,col,re,im",
            "0,1,0,NaN,1",
            "0,0,0,0.5,-0",
            "0.25,1,0,inf,-inf",
            "0.25,0,0,1e+308,4.9406564584124654e-324",
        ]
        assert trajectory_csv_lines(times, tracks) == reference_csv_lines(times, tracks)

    def test_generators_are_read_once(self):
        tracks = [((2, 1), (1 + 2j, 3 - 4j))]
        got = trajectory_csv_lines((t for t in (0.0, 1.0)), ((rc, iter(v)) for rc, v in tracks))
        assert got == reference_csv_lines([0.0, 1.0], tracks)
