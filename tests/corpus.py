"""Byte-identity corpus of CLI requests (a script; pytest does not collect it).

Runs every argv below in-process through ``spinphase.cli.main`` and prints one
line per argv: the exit code (or the type and message of the exception that
escaped ``main``), a sha256 over stdout, the last stderr line and the
``--report`` bytes, and the argv itself.  Two checkouts are compared by
diffing two runs::

    PYTHONPATH=src python3 tests/corpus.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tests/corpus.py > parent.txt
    diff parent.txt change.txt

The argv cover ``build``, ``verify --report`` and ``evolve`` of every family
on a size ladder, ``verify`` and ``evolve`` of jordan_schwinger at s = 30,
the benchmark's sweeps, zero-rate controls, the inputs on which a builder
raises, and usage errors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

from spinphase.cli import main

SPINS = ("1/2", "1", "5/2", "25/2", "35/2", "50")


def spin_scenarios(f_deform: str) -> list[list[str]]:
    """The six spin families, hermitian_f at a phase-valued q and the left
    ab_map split, on the spin ladder."""
    out = []
    for j in SPINS:
        base = ["--j", j, "--theta0", "0.7"]
        out += [
            ["--family", "su2", *base],
            ["--family", "suq2", *base, "--q", "1.3"],
            ["--family", "witten", *base, "--r", "1.2"],
            ["--family", "ab_map", *base, "--q", "1.3"],
            ["--family", "f_deform", *base, "--scenario", f_deform],
            ["--family", "hermitian_f", *base, "--q", "1.3"],
            ["--family", "hermitian_f", *base, "--q-phase", "3"],
            ["--family", "hermitian_f", *base, "--q-phase", "7"],
        ]
    return out


def corpus(tmp: str) -> list[list[str]]:
    f_deform = os.path.join(tmp, "f_deform.json")
    left = os.path.join(tmp, "left.json")
    with open(f_deform, "w", encoding="utf-8") as fh:
        json.dump({"f_coeff": 0.01}, fh)
    with open(left, "w", encoding="utf-8") as fh:
        json.dump({"family": "ab_map", "split": "left"}, fh)
    report = os.path.join(tmp, "report.json")

    scenarios = spin_scenarios(f_deform)
    scenarios += [["--scenario", left, "--j", j, "--q", "1.3"] for j in SPINS]
    for s in ("3", "12", "30"):
        scenarios += [["--family", fam, "--s", s, "--phi0", "0.7"]
                      for fam in ("oscillator", "q_oscillator")]
    scenarios += [["--family", "jordan_schwinger", "--s", s, "--phi0", "0.7"] for s in ("3", "12")]

    argvs = []
    for sc in scenarios:
        argvs.append(["build", *sc])
        argvs.append(["verify", *sc, "--report", report])
        argvs.append(["evolve", *sc, "--t-max", "2.5", "--steps", "20"])

    verify_only = [
        # builders that raise, or raised once, at these points
        ["--family", "suq2", "--j", "5", "--q", "3"],
        ["--family", "ab_map", "--j", "5", "--q", "3"],
        ["--family", "hermitian_f", "--j", "5", "--q", "3"],
        ["--family", "hermitian_f", "--j", "15/2", "--q", "2"],
        ["--scenario", left, "--j", "15/2", "--q", "2"],
        # zero rates: the negative control has nothing to miss
        ["--family", "su2", "--j", "3/2", "--muB", "0"],
        ["--family", "suq2", "--j", "3/2", "--q", "1.3", "--muB", "0"],
        ["--family", "oscillator", "--s", "4", "--omega", "0"],
        ["--family", "q_oscillator", "--s", "4", "--omega", "0"],
        ["--family", "jordan_schwinger", "--s", "3", "--omega1", "0", "--omega2", "0",
         "--muB", "0"],
        ["--family", "jordan_schwinger", "--s", "3", "--omega1", "1", "--omega2", "1",
         "--muB", "0"],
    ]
    argvs += [["verify", *sc, "--report", report] for sc in verify_only]

    # the benchmark's slowest request, dim 961 (its build JSON would be ~100 MB)
    two_mode = ["--family", "jordan_schwinger", "--s", "30", "--phi0", "0.7"]
    argvs += [
        ["verify", *two_mode, "--report", report],
        ["evolve", *two_mode, "--t-max", "2.5", "--steps", "20"],
    ]

    argvs += [
        ["sweep", "--family", "suq2", "--j", "5/2", "--param", "q:1.0001:3:101"],
        ["sweep", "--family", "witten", "--param", "j:0.5:4.5:9", "--param", "r:1.1:2.0:6"],
        ["sweep", "--family", "suq2", "--j", "5", "--param", "q:1.0001:3:21"],
        ["sweep", "--family", "hermitian_f", "--j", "5", "--param", "q:1.5:3:4"],
        ["sweep", "--family", "su2", "--j", "1", "--param", "muB:-1:1:3"],
        ["sweep", "--family", "ab_map", "--j", "2", "--param", "q:0.5:2.5:5"],
        ["sweep", "--family", "oscillator", "--param", "s:1:9:5"],
    ]

    argvs += [
        # usage errors
        ["verify", "--family", "suq2", "--j", "1"],
        ["verify", "--family", "su2", "--j", "1/3"],
        ["verify", "--family", "ab_map", "--j", "1", "--q", "1.3", "--tol", "-1"],
        ["verify", "--scenario", left, "--j", "1", "--q", "-2"],
        ["build", "--family", "witten", "--j", "1", "--r", "1"],
        ["evolve", "--family", "su2", "--j", "1", "--t-max", "0", "--steps", "5"],
        ["sweep", "--family", "su2", "--j", "1", "--param", "q:1:2:3"],
    ]
    return argvs


def run(argv: list[str], report: str) -> tuple[str, str]:
    """(outcome, sha256 over stdout, the last stderr line and the report)."""
    if os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = f"exit={main(argv)}"
        except Exception as exc:  # the outcome is recorded, not handled
            outcome = f"raise={type(exc).__name__}: {exc}"
        except SystemExit as exc:
            outcome = f"exit={exc.code}"
    digest = hashlib.sha256(out.getvalue().encode())
    lines = err.getvalue().splitlines()
    digest.update(("\0" + (lines[-1] if lines else "") + "\0").encode())
    if os.path.exists(report):
        with open(report, "rb") as fh:
            digest.update(fh.read())
    return outcome, digest.hexdigest()


def main_corpus() -> int:
    warnings.simplefilter("always")
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for argv in corpus(tmp):
            outcome, digest = run(argv, report)
            shown = " ".join(argv).replace(tmp, "$TMP")
            print(f"{digest[:16]} {outcome} | {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
