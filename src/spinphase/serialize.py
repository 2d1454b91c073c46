"""Deterministic JSON/CSV emission.

Reruns of the same scenario must produce byte-identical files, so floats are
always printed with 17 significant digits (enough to round-trip a double)
instead of relying on repr shortest-form, and dict keys keep insertion order.
JSON has no token for a non-finite float, so the emitter writes the ones
Python's ``json`` module reads and writes: ``NaN``, ``Infinity`` and
``-Infinity``.

Floats are formatted in bulk by ``_float17``, an exact vectorised
``format(x, '.17g')``: a trajectory CSV's times and re/im values, in blocks
of at most ``_CHUNK`` values, and an operator's entries in JSON (``dumps``
formats the array that ``operator_to_jsonable`` read its rows from) when
there are at least ``_BULK`` of them.  The kernel formats zeros and the
finite values with 1e-4 <= |x| < 1e17, where ``%.17g`` prints fixed
notation.  It takes the 17-digit decimal from an exact two-double product
|x| * 10**(16-k) (Dekker's TwoProduct) and lays the digits out with byte
masks; its docstring gives the argument.  Every other value, non-finite or
printed in scientific notation, goes to the writer's per-value formatter,
so each keeps its tokens for non-finite values: ``NaN``, ``inf`` and
``-inf`` in CSV (``format_float``), ``NaN``, ``Infinity`` and ``-Infinity``
in JSON.  The other floats of a JSON document are formatted one at a time.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from . import _float17
from .operators import Operator

__all__ = [
    "format_float",
    "dumps",
    "operator_to_jsonable",
    "trajectory_csv_lines",
]


_CHUNK = 8192  # values per kernel call: bounds the buffers of a large output
# an operator part with at least this many entries goes to the kernel in one
# call: below it, formatting per value costs less than the call's fixed cost
_BULK = 32


def format_float(x: float) -> str:
    if x != x:  # NaN
        return "NaN"
    return format(float(x), ".17g")


def _json_float(x: float) -> str:
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format_float(x)


def _emit(obj: Any) -> str:
    if isinstance(obj, float):  # first: the most frequent type
        return _json_float(obj)
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
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if isinstance(obj, _Rows) and obj.values.size >= _BULK:
            return _grid_text(obj.values)
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Rows(tuple):
    """An operator part's entries: one tuple of Python floats per row, and
    the read-only float64 array they were read from, which ``_emit`` formats
    in one kernel call (see ``operator_to_jsonable``)."""

    values: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "_Rows":
        rows = cls(tuple(row.tolist()) for row in values)
        rows.values = values
        return rows


def _grid_text(grid: np.ndarray) -> str:
    """The JSON list of lists of a 2-D float array, as ``_emit`` writes it."""
    n_rows, n_cols = grid.shape
    step = max(1, _CHUNK // n_cols)
    text = ["["]
    for start in range(0, n_rows, step):
        block = grid[start:start + step]
        # per row ", [" and a NUL, then per value its cell and ", " (or "]")
        buf = np.empty((len(block), 2 + n_cols * (_float17.WIDTH + 2) // 2), np.uint16)
        buf[:, :2] = np.frombuffer(b", [\0", np.uint16)
        values = buf[:, 2:].reshape(len(block), n_cols, -1)
        values[..., :-1] = _float17.cells(block, _json_float).view(np.uint16).reshape(
            len(block), n_cols, -1)
        values[..., -1] = np.frombuffer(b", ", np.uint16)
        values[:, -1, -1] = np.frombuffer(b"]\0", np.uint16)
        if start == 0:
            buf[0, 0] = 0
        text.append(_float17.text(buf))
    text.append("]")
    return "".join(text)


def dumps(obj: Any) -> str:
    """JSON text with fixed float formatting and a trailing newline."""
    return _emit(obj) + "\n"


def operator_to_jsonable(op: Operator) -> dict:
    """Shared wire form: {"dim", "label", "re", "im"} with row-major entries,
    one tuple of Python floats per row.  The tuples are immutable, so the
    array they were read from (``op.mat`` is read-only) still holds them when
    ``dumps`` formats it."""
    return {
        "dim": op.dim,
        "label": op.label,
        "re": _Rows.of(op.mat.real),
        "im": _Rows.of(op.mat.imag),
    }


def trajectory_csv_lines(
    times: Iterable[float],
    element_tracks: Iterable[tuple[tuple[int, int], Iterable[complex]]],
) -> str:
    """The CSV text: a ``t,row,col,re,im`` header, then one row per time and
    element, grouped by time then by element order, each ending in a newline.

    The times go to the kernel at once, the re/im grid in blocks of time
    steps of at most ``_CHUNK`` values.
    """
    times = np.array(list(times), dtype=np.float64)
    tracks = [(rc, v if isinstance(v, np.ndarray) else list(v)) for rc, v in element_tracks]
    if any(len(vals) < len(times) for _, vals in tracks):
        raise IndexError("every track needs one value per time")
    text = ["t,row,col,re,im\n"]
    if not tracks:
        return text[0]
    grid = np.empty((len(times), len(tracks)), np.complex128)
    for k, (_, vals) in enumerate(tracks):
        grid[:, k] = vals[: len(times)]
    labels = np.array([f",{row},{col},".encode() for (row, col), _ in tracks])
    label = labels.view(np.uint8).reshape(len(tracks), labels.itemsize)
    # a line: the time's cell, the ",row,col," label, the re cell, ",", the im cell, "\n"
    width = _float17.WIDTH
    re = width + label.shape[1]
    im = re + width + 1
    time_cells = _float17.cells(times, format_float)
    steps = max(1, _CHUNK // (2 * len(tracks)))
    for start in range(0, len(times), steps):
        block = slice(start, start + steps)
        values = _float17.cells(grid[block].view(np.float64), format_float)
        values = values.reshape(-1, len(tracks), 2, width)
        buf = np.empty((len(values), len(tracks), im + width + 1), np.uint8)
        buf[..., :width] = time_cells[block, None]
        buf[..., width:re] = label
        buf[..., re:re + width] = values[:, :, 0]
        buf[..., re + width] = ord(",")
        buf[..., im:im + width] = values[:, :, 1]
        buf[..., -1] = ord("\n")
        text.append(_float17.text(buf))
    return "".join(text)
