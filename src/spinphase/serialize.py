"""Deterministic JSON/CSV emission.

Reruns of the same scenario must produce byte-identical files, so floats are
always printed with 17 significant digits (enough to round-trip a double)
instead of relying on repr shortest-form, and dict keys keep insertion order.
JSON has no token for a non-finite float, so the emitter writes the ones
Python's ``json`` module reads and writes: ``NaN``, ``Infinity`` and
``-Infinity``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from .operators import Operator

__all__ = [
    "format_float",
    "dumps",
    "operator_to_jsonable",
    "operator_from_jsonable",
    "trajectory_csv_lines",
]


def format_float(x: float) -> str:
    if x != x:  # NaN
        return "NaN"
    return format(float(x), ".17g")


def _emit(obj: Any) -> str:
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
        return format_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """JSON text with fixed float formatting and a trailing newline."""
    return _emit(obj) + "\n"


def operator_to_jsonable(op: Operator) -> dict:
    """Shared wire form: {"dim", "label", "re", "im"} with row-major entries."""
    return {
        "dim": op.dim,
        "label": op.label,
        "re": [[float(v) for v in row] for row in op.mat.real],
        "im": [[float(v) for v in row] for row in op.mat.imag],
    }


def operator_from_jsonable(payload: dict) -> Operator:
    dim = int(payload["dim"])
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"operator payload shape does not match dim={dim}")
    return Operator(re + 1j * im, str(payload.get("label", "")))


def trajectory_csv_lines(
    times: Iterable[float],
    element_tracks: Iterable[tuple[tuple[int, int], Iterable[complex]]],
) -> list[str]:
    """Rows `t,row,col,re,im`, grouped by time then by element order."""
    tracks = [(rc, list(vals)) for rc, vals in element_tracks]
    lines = ["t,row,col,re,im"]
    for i, t in enumerate(times):
        for (row, col), vals in tracks:
            v = vals[i]
            lines.append(
                f"{format_float(t)},{row},{col},"
                f"{format_float(v.real)},{format_float(v.imag)}"
            )
    return lines
