"""Deterministic JSON/CSV emission.

Reruns of the same scenario must produce byte-identical files, so floats are
always printed with 17 significant digits (enough to round-trip a double)
instead of relying on repr shortest-form, and dict keys keep insertion order.
JSON has no token for a non-finite float, so the emitter writes the ones
Python's ``json`` module reads and writes: ``NaN``, ``Infinity`` and
``-Infinity``.

Floats are formatted in bulk: a list of Python floats in JSON, and the time
and re/im values of one time step in CSV, go through one ``%``-template.  That is
exact: ``'%.17g' % x`` is byte for byte ``format(x, '.17g')``, and the two
paths differ only on non-finite values (``nan``/``inf`` against ``NaN``,
``Infinity``, ``-Infinity``).  A finite ``.17g`` number never contains an
``n`` (only digits, ``-``, ``.``, ``e`` and ``+``), so text that does takes
the per-value path instead.
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
        if obj and {*map(type, obj)} == {float}:
            text = ", ".join(["%.17g"] * len(obj)) % tuple(obj)
            if "n" not in text:
                return "[" + text + "]"
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
        "re": op.mat.real.tolist(),
        "im": op.mat.imag.tolist(),
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
) -> str:
    """The CSV text: a ``t,row,col,re,im`` header, then one row per time and
    element, grouped by time then by element order, each ending in a newline.

    One template, built once, takes a time step's time text and re/im
    values (exact; see the module docstring), and the text is joined once.
    """
    times = list(times)
    tracks = [(rc, v if isinstance(v, np.ndarray) else list(v)) for rc, v in element_tracks]
    if any(len(vals) < len(times) for _, vals in tracks):
        raise IndexError("every track needs one value per time")
    # one row per time step: a slot for the time text, then re, im, per element
    cells = np.zeros((len(times), len(tracks), 3))
    for k, (_, vals) in enumerate(tracks):
        v = np.asarray(vals[: len(times)], dtype=np.complex128)
        cells[:, k, 1], cells[:, k, 2] = v.real, v.imag
    cells = cells.reshape(len(times), 3 * len(tracks))
    rows = [f",{row},{col}".replace("%", "%%") for (row, col), _ in tracks]
    template = "".join(f"%s{rc},%.17g,%.17g\n" for rc in rows)
    text = ["t,row,col,re,im\n"]
    for i, t in enumerate(times):
        values = cells[i].tolist()
        values[::3] = [format_float(t)] * len(tracks)
        step = template % tuple(values)
        if "n" in step:  # a non-finite value: the per-value tokens
            tokens = (v if isinstance(v, str) else format_float(v) for v in values)
            step = template.replace("%.17g", "%s") % tuple(tokens)
        text.append(step)
    return "".join(text)
