"""The check table: every check is declared once and reached by a golden
scenario, only the evaluator adds checks to a report, the evaluator drops a
derived operand after the last check that reads it, and one gate raises a
builder's violated relation."""

import collections
import json
import pathlib
import re
import weakref

import numpy as np
import pytest

from spinphase import build_su2, checks, operators
from spinphase.scenarios import resolve_scenario
from spinphase.verify import run_verify

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "structure_golden.json").read_text())
SRC = pathlib.Path(checks.__file__).parent


def test_every_golden_check_is_declared_once():
    declared = collections.Counter(c.name for c in checks.CHECKS)
    assert [name for name, count in declared.items() if count > 1] == []
    golden = {name for case in GOLDEN.values() for name, *_ in case["checks"]}
    assert golden - set(declared) == set()


def test_every_declared_check_is_reached_by_a_golden_scenario():
    reports = [run_verify(resolve_scenario(case["scenario"]))[0] for case in GOLDEN.values()]
    reached = {c.name for report in reports for c in report}
    # construction stands for a scenario that cannot be built; no golden one is
    assert {c.name for c in checks.CHECKS} - reached == {"construction"}
    report, bundle = run_verify(resolve_scenario({"family": "hermitian_f", "j": "1", "q_phase": 3}))
    assert bundle is None and [c.name for c in report] == ["construction"]


@pytest.mark.parametrize(
    "module", ["families", "deform", "dynamics", "su2", "phase", "oscillator", "verify"]
)
def test_only_the_evaluator_adds_checks(module):
    source = (SRC / f"{module}.py").read_text()
    assert re.findall(r"\.add\(|CheckResult\(", source) == []


def test_only_the_gate_raises_arithmetic_error():
    # every builder gate is a checks.require call
    found = {path.name: len(re.findall(r"raise ArithmeticError\b", path.read_text()))
             for path in SRC.glob("*.py")}
    assert {name: n for name, n in found.items() if n} == {"checks.py": 1}


def test_a_nan_residual_neither_raises_nor_hides_a_violation():
    checks.require([float("nan"), 1e-13], 1e-12, "unused")
    # a first residual of NaN is never the largest: the next one's violation raises
    with pytest.raises(ArithmeticError, match=r"^violated: 2\.000e-11$"):
        checks.require([float("nan"), 2e-11, 1e-11], 1e-12, "violated: {:.3e}")
    # a batch's rows that exceed the tolerance run apart
    with pytest.raises(operators.Diverged) as info:
        checks.require([np.array([np.nan, 0.0]), np.array([1.0, 0.0])], 0.5, "{:.3e}")
    assert info.value.args[0].tolist() == [True, False]


def test_a_derived_operand_is_dropped_after_its_last_check():
    rep, refs, alive = build_su2("1"), [], []

    def casimir():  # the derived operand C, read by casimir_orderings only
        c = rep.Jm @ rep.Jp + rep.J0 @ rep.J0 + rep.J0
        refs.append(weakref.ref(c._data))
        return c

    def lowering():  # derived for the next check: is C still held?
        alive.append(refs[0]() is not None)
        return rep.Jm

    values = {"Cd": rep.Jp @ rep.Jm + rep.J0 @ rep.J0 - rep.J0, "Jp": rep.Jp, "t": 1e-12,
              "hermitian": True}
    derived = {"C": checks.call(casimir), "Jm": checks.call(lowering)}
    report = checks.evaluate(("casimir_orderings", "adjoint_pair"), values, derived=derived)
    assert report.all_pass and alive == [False]


def test_given_checks_are_reported_as_made_and_when_gates_a_check():
    rep = build_su2("3/2")
    values = {"J0": rep.J0, "Jp": rep.Jp, "Jm": rep.Jm, "t": 1e-12, "hermitian": False}
    made = checks.evaluate(("j0_ladder_raising",), values)
    report = checks.evaluate(("j0_ladder_raising", "adjoint_pair"), values, given=made)
    assert report.checks == made.checks and report.checks[0] is made.checks[0]
    report = checks.evaluate(("adjoint_pair",), {**values, "hermitian": True})
    assert [c.name for c in report] == ["adjoint_pair"] and report.all_pass
