"""Span tracing of spinphase's layers from outside the package.

A :class:`Tracer` replaces every public function of every ``spinphase``
module, in each module namespace that holds it (that is where callers look
it up), with a wrapper that records one span per call.  Two methods are
wrapped on their classes: ``Operator.__matmul__`` (span ``operators.matmul``)
and ``CheckReport.add`` (span ``report.add``).  ``unpatch`` restores the
originals, so untraced passes run the unmodified program.

Spans are kept in memory as tuples and only summarised after a pass ends.
Each span carries a name, start, end, its parent span and the request id;
calls made in the CLI's sweep worker threads get the request's root span as
their parent.  Self time is a span's duration minus the union of its child
spans' intervals, so concurrent children in worker threads are not counted
twice.

Dense kernel work is *computed* from operand dimensions, not measured:
each complex n x n product counts 8 n^3 flops and 3 * 16 n^2 bytes (two
operands read, one result written).  Only products made through the
``operators`` / ``dynamics`` entry points below are counted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

SPAN, PARENT, REQUEST, NAME, START, END, RAISED, INFO = range(8)

# complex n x n products per call of each dense kernel
DENSE_PRODUCTS = {
    "operators.matmul": 1,
    "operators.commutator": 2,
    "operators.r_commutator": 2,
    "operators.psd_sqrt": 1,
    "dynamics.heisenberg_derivative": 2,
}

# per-element helpers called hundreds of thousands of times per pass; a span
# each would measure the tracer rather than the program
UNTRACED = {"serialize.format_float", "deform.q_number"}


def _text_bytes(result) -> int:
    if isinstance(result, str):
        return len(result.encode())
    return sum(len(line.encode()) + 1 for line in result)  # joined with "\n"


def _info(name: str, args: tuple, result):
    """Per-span detail: operand dim for dense kernels, verdict for checks,
    text size for serializers."""
    if name in DENSE_PRODUCTS:
        return args[0].dim
    if name == "report.add":
        return result.passed
    if name in ("serialize.dumps", "serialize.trajectory_csv_lines"):
        return _text_bytes(result)
    return None


class Tracer:
    """Records spans for the calls made while patched."""

    def __init__(self, package) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._request = -1
        self._saved: list[tuple[object, str, object]] = []
        self._targets = self._find_targets(package)

    @staticmethod
    def _find_targets(package) -> list[tuple[object, str, object, str]]:
        """(namespace, attribute, original, span name) for every patch point."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for key, m in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        targets = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(prefix)
                ):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name not in UNTRACED:
                        targets.append((mod, attr, obj, name))
        operator_cls = package.operators.Operator
        report_cls = package.report.CheckReport
        targets.append((operator_cls, "__matmul__", operator_cls.__matmul__, "operators.matmul"))
        targets.append((report_cls, "add", report_cls.add, "report.add"))
        return targets

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            span = next(tracer._ids)
            stack.append(span)
            start = perf_counter()
            result = None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = None if raised else _info(name, args, result)
                tracer.spans.append((span, parent, tracer._request, name, start, end, raised, info))

        return traced

    def patch(self) -> None:
        wrappers: dict[int, object] = {}
        for owner, attr, original, name in self._targets:
            wrapper = wrappers.setdefault(id(original), self._wrap(original, name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, request_id: int, fn, *args):
        """Run fn as the root span ``cli.main`` of one request."""
        self._request = request_id
        self._root = next(self._ids)
        self._local.stack = [self._root]
        start = perf_counter()
        raised = True
        try:
            result = fn(*args)
            raised = False
            return result
        finally:
            end = perf_counter()
            self._local.stack = []
            self.spans.append((self._root, 0, request_id, "cli.main", start, end, raised, None))
            self._root = 0

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple], sweep_jobs: dict[int, int]) -> dict:
    """Per-layer totals of one traced pass.

    Returns ``layers`` (span name -> calls, busy_ms, self_ms) and
    ``counters``.  ``sweep_jobs`` maps the request ids of sweep requests to
    their ``--jobs``; it feeds ``cli.sweep.pool_efficiency``.
    """
    by_id = {s[SPAN]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            children[s[PARENT]].append((s[START], s[END]))
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
    products = flops = nbytes = 0
    builder_raises = checks_added = checks_failed = bytes_out = 0
    sweep_wall = sweep_verify = 0.0
    for s in spans:
        name = s[NAME]
        duration = s[END] - s[START]
        clipped = [(max(a, s[START]), min(b, s[END])) for a, b in children.get(s[SPAN], ())]
        row = layers[name]
        row["calls"] += 1
        row["busy_ms"] += duration * 1e3
        row["self_ms"] += (duration - _union_length(clipped)) * 1e3
        n = s[INFO]
        if name in DENSE_PRODUCTS and n is not None:
            k = DENSE_PRODUCTS[name]
            products += k
            flops += k * 8 * n**3
            nbytes += k * 3 * 16 * n**2
        elif name == "report.add":
            checks_added += 1
            checks_failed += n is False
        elif name in ("serialize.dumps", "serialize.trajectory_csv_lines") and n is not None:
            bytes_out += n
        if s[RAISED] and name.startswith("deform."):
            parent = by_id.get(s[PARENT])
            if parent is None or not parent[NAME].startswith("deform."):
                builder_raises += 1
        jobs = sweep_jobs.get(s[REQUEST])
        if jobs is not None:
            if name == "cli.main":
                sweep_wall += duration * jobs
            elif name == "verify.run_verify":
                sweep_verify += duration
    counters = {
        "operators.dense_products_computed": products,
        "operators.dense_gflop_computed": flops / 1e9,
        "operators.dense_mb_computed": nbytes / 1e6,
        "deform.builder_raises": builder_raises,
        "report.checks_added": checks_added,
        "report.checks_failed": checks_failed,
        "serialize.bytes_out": bytes_out,
        "cli.sweep.pool_efficiency": sweep_verify / sweep_wall if sweep_wall else 0.0,
    }
    return {"layers": dict(layers), "counters": counters}
