"""The lines of ``spinphase`` that no corpus request runs (a script; pytest does
not collect it).

Imports ``spinphase`` and runs every argv of ``tests/corpus.py`` in-process
under a ``sys.settrace`` limited to the package's own files, then prints each
line that one of the package's code objects holds (``co_lines``) but that
neither the import nor any request executed, one per line as
``module.py:line: function: source``.  Two checkouts are compared by diffing
two runs, with the line numbers dropped so that an edit does not shift every
line after it::

    PYTHONPATH=src python3 tests/traffic_lines.py > head.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tests/traffic_lines.py > base.txt
    diff <(sed -E 's/:[0-9]+:/:/' base.txt) <(sed -E 's/:[0-9]+:/:/' head.txt)

Tracing makes the corpus about three times slower than ``tests/corpus.py``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import types
import warnings
from collections import defaultdict


def _held(code: types.CodeType):
    """(line, function name) of every line ``code`` and its nested code hold."""
    for _, _, line in code.co_lines():
        if line is not None:
            yield line, code.co_name
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _held(const)


def _run_traced(package: str) -> dict[str, set[int]]:
    """The lines of each file under ``package`` that the corpus executes."""
    executed: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(package + os.sep)
        if not inside[name]:
            return None
        executed[name].add(frame.f_lineno)  # the def line, which fires no line event
        return line

    warnings.simplefilter("always")
    sys.settrace(call)
    try:
        import corpus  # imports spinphase, traced

        with tempfile.TemporaryDirectory() as tmp:
            report = os.path.join(tmp, "report.json")
            for argv in corpus.corpus(tmp):
                corpus.run(argv, report)
    finally:
        sys.settrace(None)
    return {os.path.realpath(name): lines for name, lines in executed.items()}


def main() -> int:
    spec = importlib.util.find_spec("spinphase")  # located, not imported
    package = os.path.realpath(spec.submodule_search_locations[0])
    executed = _run_traced(package)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        ran = executed.get(path, set())
        held = dict(sorted(_held(compile(source, path, "exec"))))
        for lineno, function in held.items():
            if lineno not in ran:
                print(f"{name}:{lineno}: {function}: {text[lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
