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
outputs of many formatting chunks or with values in scientific notation,
the benchmark's sweeps, sweeps of the phase frame's fields (j, theta0, muB)
on deformed families, sweeps whose points on one frame part ways (error
rows, a failed construction, a branch only some points take), zero-rate
controls, the inputs on which a builder or a check suite raises (every
builder gate the CLI can reach), a phase-valued q near 1, parameters
at which a ladder or SU_q(2)'s casimir table overflows, usage errors (one
under an environment variable), output paths that cannot be written (a
missing directory, a directory itself, a path under a file, or a file name
too long), parameters at which the hamiltonian, the corner phase or the
scaled tolerance overflows, and spins or s whose dimension no float holds.
Temporary paths print as ``$TMP``: in the argv, the outcome and the stderr
line alike.  Leading ``NAME=value`` words of an argv set environment
variables for that request only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from unittest import mock

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
    f_huge = os.path.join(tmp, "f_huge.json")
    with open(f_huge, "w", encoding="utf-8") as fh:
        json.dump({"f_coeff": 1e150}, fh)
    misspelt, boolean = os.path.join(tmp, "misspelt.json"), os.path.join(tmp, "boolean.json")
    with open(misspelt, "w", encoding="utf-8") as fh:
        json.dump({"family": "su2", "j": "1/2", "thta0": 1}, fh)
    with open(boolean, "w", encoding="utf-8") as fh:
        json.dump({"family": "oscillator", "s": True}, fh)
    split, not_object = os.path.join(tmp, "split.json"), os.path.join(tmp, "list.json")
    with open(split, "w", encoding="utf-8") as fh:
        json.dump({"family": "ab_map", "j": "1", "q": 1.3, "split": "diagonal"}, fh)
    with open(not_object, "w", encoding="utf-8") as fh:
        json.dump([1, 2], fh)
    unwritable = os.path.join(tmp, "missing", "x.json")
    under_file = os.path.join(tmp, "afile", "x.json")
    with open(os.path.join(tmp, "afile"), "w", encoding="utf-8"):
        pass
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
        # the scaled map's gate, at weights whose identities overflow
        ["--family", "f_deform", "--j", "5/2", "--scenario", f_huge],
        # a phase-valued q near 1, where the q-bracket tends to x
        ["--family", "hermitian_f", "--j", "5/2", "--q-phase", "1e12"],
        ["--family", "hermitian_f", "--j", "5/2", "--q-phase", "1e13"],
        ["--family", "hermitian_f", "--j", "5/2", "--q-phase", "1e300"],
        # the casimir suite at zero tolerance
        ["--family", "su2", "--j", "1", "--tol", "0"],
        # zero rates: the negative control has nothing to miss
        ["--family", "su2", "--j", "3/2", "--muB", "0"],
        ["--family", "suq2", "--j", "3/2", "--q", "1.3", "--muB", "0"],
        ["--family", "oscillator", "--s", "4", "--omega", "0"],
        ["--family", "q_oscillator", "--s", "4", "--omega", "0"],
        ["--family", "jordan_schwinger", "--s", "3", "--omega1", "0", "--omega2", "0",
         "--muB", "0"],
        ["--family", "jordan_schwinger", "--s", "3", "--omega1", "1", "--omega2", "1",
         "--muB", "0"],
        # parameters at which the ladder's weights overflow
        ["--family", "witten", "--j", "50", "--r", "1e10"],
        ["--family", "witten", "--j", "3/2", "--r", "1e-300"],
        ["--family", "suq2", "--j", "3/2", "--q", "1e300"],
        ["--family", "hermitian_f", "--j", "3/2", "--q", "1e300"],
        # finite entries, but SU_q(2)'s casimir table overflows
        ["--family", "suq2", "--j", "1/2", "--q", "1e300"],
    ]
    argvs += [["verify", *sc, "--report", report] for sc in verify_only]
    argvs.append(["build", "--family", "suq2", "--j", "1/2", "--q", "1e300"])

    # the benchmark's slowest request, dim 961 (its build JSON would be ~100 MB)
    two_mode = ["--family", "jordan_schwinger", "--s", "30", "--phi0", "0.7"]
    argvs += [
        ["verify", *two_mode, "--report", report],
        ["evolve", *two_mode, "--t-max", "2.5", "--steps", "20"],
    ]

    # outputs of many formatting chunks: the benchmark's evolves, a time grid
    # printed in scientific notation, and entries up to 8.6e59
    t_max = "6.283185307179586"
    argvs += [
        ["evolve", "--family", "su2", "--j", "25", "--t-max", t_max, "--steps", "2000"],
        ["evolve", "--family", "jordan_schwinger", "--s", "12", "--phi0", "0.7",
         "--t-max", t_max, "--steps", "200"],
        ["evolve", "--family", "su2", "--j", "25", "--t-max", "1e-300", "--steps", "3"],
        ["build", "--family", "witten", "--j", "50", "--r", "2"],
    ]

    argvs += [
        ["sweep", "--family", "suq2", "--j", "5/2", "--param", "q:1.0001:3:101"],
        ["sweep", "--family", "witten", "--param", "j:0.5:4.5:9", "--param", "r:1.1:2.0:6"],
        ["sweep", "--family", "suq2", "--j", "5", "--param", "q:1.0001:3:21"],
        ["sweep", "--family", "hermitian_f", "--j", "5", "--param", "q:1.5:3:4"],
        ["sweep", "--family", "su2", "--j", "1", "--param", "muB:-1:1:3"],
        ["sweep", "--family", "ab_map", "--j", "2", "--param", "q:0.5:2.5:5"],
        ["sweep", "--family", "oscillator", "--param", "s:1:9:5"],
        # frame fields (j, theta0, muB) swept on deformed families, inner and outer
        ["sweep", "--family", "hermitian_f", "--j", "5/2", "--q", "1.3", "--param", "theta0:0:6:7"],
        ["sweep", "--family", "ab_map", "--j", "5/2", "--q", "1.3", "--param", "muB:-2:2:5"],
        ["sweep", "--family", "witten", "--param", "r:1.1:2.0:6", "--param", "j:0.5:4.5:9"],
        ["sweep", "--family", "f_deform", "--j", "5/2", "--param", "f_coeff:-0.1:0.3:5",
         "--param", "theta0:0:1.4:3"],
        # points of one frame that part ways: singular-F error rows, a failed
        # construction, an r = 1 usage row, and the left split's adjoint check
        # that only q = 1 passes
        ["sweep", "--family", "f_deform", "--j", "1", "--param", "f_coeff:-1:1:5"],
        ["sweep", "--family", "hermitian_f", "--j", "1", "--param", "q_phase:3:7:5"],
        ["sweep", "--family", "hermitian_f", "--j", "5/2", "--param", "q_phase:1e12:1e14:3"],
        ["sweep", "--family", "witten", "--j", "3/2", "--param", "r:0.5:1.5:3"],
        ["sweep", "--scenario", left, "--j", "2", "--param", "q:0.5:2.5:5"],
        # a point that runs, then two whose weights overflow
        ["sweep", "--family", "witten", "--j", "50", "--param", "r:1.2:1e10:3"],
        # three points whose casimir table overflows
        ["sweep", "--family", "suq2", "--j", "1/2", "--param", "q:1e299:1e300:3"],
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
        ["sweep", "--family", "suq2", "--j", "1", "--param", "q:1.1:2:2", "--param", "q:2:3:2"],
        ["sweep", "--family", "hermitian_f", "--j", "1", "--q-phase", "3", "--param", "q:1.1:2:3"],
        ["verify", "--scenario", misspelt],
        ["verify", "--scenario", boolean],
        ["verify", "--family", "su2"],
        ["verify", "--family", "oscillator"],
        ["verify", "--family", "oscillator", "--s", "0"],
        ["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "2"],
        ["verify", "--scenario", split],
        ["verify", "--scenario", not_object],
        ["SPINPHASE_TOL=-1", "verify", "--family", "su2", "--j", "1"],
        ["sweep", "--family", "su2", "--param", "j:1:2:2", "--param", "muB:1:2:2",
         "--param", "theta0:0:1:2"],
        ["sweep", "--family", "suq2", "--j", "1", "--param", "q:1:2"],
        ["sweep", "--family", "suq2", "--j", "1", "--param", "q:a:2:3"],
        ["sweep", "--family", "suq2", "--j", "1", "--param", "q:1:2:1"],
        ["sweep", "--family", "oscillator", "--param", "s:1:2:3"],
        # output paths that cannot be written
        ["verify", "--family", "su2", "--j", "1", "--report", unwritable],
        ["build", "--family", "su2", "--j", "1", "--out", unwritable],
        ["evolve", "--family", "su2", "--j", "1", "--t-max", "1", "--steps", "3",
         "--out", unwritable],
        ["sweep", "--family", "su2", "--j", "1", "--param", "muB:0:1:2", "--out", unwritable],
        # an existing directory as the output path
        ["verify", "--family", "su2", "--j", "1", "--report", tmp],
        ["sweep", "--family", "su2", "--j", "1", "--param", "muB:0:1:2", "--out", tmp],
        # a path under a regular file, and a file name too long to create
        ["build", "--family", "su2", "--j", "1", "--out", under_file],
        ["build", "--family", "su2", "--j", "1", "--out", os.path.join(tmp, "a" * 300 + ".json")],
    ]

    argvs += [
        # hamiltonians whose energies overflow, finite angles whose corner phase
        # does not, a sweep frame that cannot be built, and a tolerance that
        # overflows once scaled by the dimension
        ["verify", "--family", "su2", "--j", "50", "--muB", "1e307", "--report", report],
        ["verify", "--family", "oscillator", "--s", "2", "--omega", "1e308"],
        ["verify", "--family", "jordan_schwinger", "--s", "2", "--omega1=1e308", "--omega2=-1e308"],
        ["verify", "--family", "su2", "--j", "1/2", "--theta0", "1e308", "--report", report],
        ["build", "--family", "su2", "--j", "1/2", "--theta0", "1e308"],
        ["evolve", "--family", "oscillator", "--s", "2", "--phi0=-1e308", "--t-max", "1",
         "--steps", "3"],
        ["sweep", "--family", "su2", "--j", "50", "--param", "muB:1:1e307:2"],
        ["verify", "--family", "su2", "--j", "1/2", "--tol", "1e308", "--report", report],
    ]

    # exact spins and integral s whose dimension no float holds
    huge_s = os.path.join(tmp, "huge_s.json")
    with open(huge_s, "w", encoding="utf-8") as fh:
        fh.write('{"family": "oscillator", "s": 1' + "0" * 400 + "}")
    argvs += [
        ["verify", "--family", "su2", "--j", "1e400"],
        ["build", "--family", "su2", "--j", "1e400"],
        ["sweep", "--family", "su2", "--j", "1e400", "--param", "muB:0:1:2"],
        ["verify", "--scenario", huge_s],
        ["sweep", "--family", "su2", "--j", "1/2", "--param", "j:0.5:1e308:2"],
    ]
    return argvs


def _is_assignment(word: str) -> bool:
    return "=" in word and word.split("=", 1)[0].isupper()


def run(argv: list[str], report: str) -> tuple[str, str]:
    """(outcome, sha256 over stdout, the last stderr line and the report)."""
    if os.path.exists(report):
        os.remove(report)
    assignments = list(itertools.takewhile(_is_assignment, argv))
    env = mock.patch.dict(os.environ, [word.split("=", 1) for word in assignments])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), env:
        try:
            outcome = f"exit={main(argv[len(assignments):])}"
        except Exception as exc:  # the outcome is recorded, not handled
            outcome = f"raise={type(exc).__name__}: {exc}"
        except SystemExit as exc:
            outcome = f"exit={exc.code}"
    digest = hashlib.sha256(out.getvalue().encode())
    lines = err.getvalue().replace(os.path.dirname(report), "$TMP").splitlines()
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
            print(f"{digest[:16]} {outcome} | {' '.join(argv)}".replace(tmp, "$TMP"))
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
