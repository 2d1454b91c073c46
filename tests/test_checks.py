"""The check table: every check is declared once and reached by a golden
scenario, only the evaluator adds checks to a report or runs a tree, the
evaluator drops a derived operand after the last check that reads it, and one
gate, given the names of declared checks, raises a builder's violated relation."""

import collections
import json
import pathlib
import re
import weakref

import numpy as np
import pytest

from spinphase import build_su2, checks, operators
from spinphase.scenarios import resolve_scenario
from spinphase.su2 import _place_ladders
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


def test_only_the_table_runs_a_tree_and_every_gate_names_its_checks():
    # a compiled tree (``.fn``) runs only in checks.py, and every builder gate is
    # given the names of declared checks, never residuals computed beside them
    found = {path.name: re.findall(r"\.fn\(|require\(\s*(?:\[|\w*res)", path.read_text())
             for path in SRC.glob("*.py") if path.name != "checks.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.mark.parametrize("values, derived", [({"delta": 2.0}, {}),
                                             ({}, {"delta": checks.call(float, 2.0)})])
def test_a_child_scope_may_not_rebind_its_parents_operands(values, derived):
    # a check reading only the parent's operands is made on the parent, where
    # the child's own value of one would be ignored: evaluate refuses it instead
    parent = checks.Scope({"delta": 1.0, "muB": 1.0, "t": 1e-12})
    report = checks.evaluate(("frequency_condition",), {"Jp": None}, parent=parent)
    assert report.checks[0].residual == 0.0 and "frequency_condition" in parent.results
    with pytest.raises(ValueError, match=r"^\['delta'\] rebind the parent's operands$"):
        checks.evaluate(("frequency_condition",), values, derived=derived, parent=parent)


def test_a_nan_residual_neither_raises_nor_hides_a_violation():
    # the residuals |delta - muB|, ||Jp |0>|| and ||Jm |0>||, with Jp and Jm
    # each a spin-1/2 raising operator of the given step entry
    names = ("frequency_condition", "vacuum_annihilated", "bottom_state_annihilated")

    def scope(delta, up, down, t):
        jp, jm = (_place_ladders(np.array(entry))[0] for entry in (up, down))
        return {"delta": delta, "muB": 0.0, "Jp": jp, "Jm": jm, "t": t}

    report = checks.require(names, scope(float("nan"), [1e-13], [0.0], 1e-12), "unused")
    assert [c.name for c in report] == list(names)
    # a first residual of NaN is never the largest: the largest violation raises, not the last
    with pytest.raises(ArithmeticError, match=r"^violated: 2\.000e-11$"):
        checks.require(names, scope(float("nan"), [2e-11], [1e-11], 1e-12), "violated: {:.3e}")
    # a batch's rows that exceed the tolerance run apart
    with pytest.raises(operators.Diverged) as info:
        checks.require(names, scope(np.array([np.nan, 0.0]), [[1.0], [0.0]], [0.0], 0.5), "{:.3e}")
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
