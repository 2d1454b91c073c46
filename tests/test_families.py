"""The family table: builders' verified relations reach the verify report as
computed, builders still raise on a violation, and the shared phase
derivation keeps each family's negative-control floor."""

import sys

import numpy as np
import pytest

from spinphase import (
    CheckReport,
    Operator,
    Su2Rep,
    build_phase_operator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    casimir,
    discrete_antiderivative,
    identity,
    polar_decompose,
    qbracket_structure,
)
from spinphase import deform
from spinphase.families import SpinParts
from spinphase.operators import Tolerance
from spinphase.scenarios import build_bundle, resolve_scenario
from spinphase.verify import collect_checks, run_verify

_LADDER = ["j0_ladder_raising", "j0_ladder_lowering"]


@pytest.mark.parametrize(
    "values, names",
    [
        ({"family": "suq2", "j": "5/2", "q": 1.3}, [*_LADDER, "adjoint_pair"]),
        ({"family": "hermitian_f", "j": "5/2", "q": 1.3}, [*_LADDER, "adjoint_pair"]),
        ({"family": "hermitian_f", "j": "1", "q_phase": 7}, [*_LADDER, "adjoint_pair"]),
        ({"family": "ab_map", "j": "5/2", "q": 1.3}, [*_LADDER, "adjoint_pair"]),
        ({"family": "ab_map", "j": "5/2", "q": 1.3, "split": "left"}, _LADDER),
        ({"family": "f_deform", "j": "5/2"}, [*_LADDER, "structure_relation"]),
        ({"family": "f_deform", "j": "5/2", "f_coeff": 0.0}, [*_LADDER, "adjoint_pair"]),
        (
            {"family": "witten", "j": "5/2", "r": 1.2},
            ["witten_relation_raising", "witten_relation_pair", "witten_relation_lowering",
             "adjoint_pair"],
        ),
        ({"family": "jordan_schwinger", "s": 3}, [*_LADDER, "adjoint_pair"]),
    ],
    ids=lambda v: "-".join(map(str, v.values())) if isinstance(v, dict) else None,
)
def test_builder_checks_are_reported_not_recomputed(values, names):
    bundle = build_bundle(resolve_scenario(values))
    triple = bundle.parts.triple if isinstance(bundle.parts, SpinParts) else bundle.parts[0]
    report = collect_checks(bundle)
    for name in names:
        # the very result the builder computed, not an equal recomputation
        assert report.named(name)[0] is triple.checks.named(name)[0]


@pytest.mark.parametrize(
    "values",
    [
        {"family": "ab_map", "j": "5/2", "q": 1.3, "split": "left"},
        {"family": "f_deform", "j": "5/2"},
    ],
)
def test_non_hermitian_pair_has_no_adjoint_check(values):
    report, bundle = run_verify(resolve_scenario(values))
    triple = bundle.parts.triple
    assert not triple.hermitian_pair
    assert "adjoint_pair" not in [c.name for c in [*triple.checks, *report]]
    assert triple.checks.all_pass


def test_two_mode_verify_computes_each_ladder_commutator_once(monkeypatch):
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("spinphase.")]
    for module in modules:
        original = getattr(module, "commutator", None)
        if original is not None:
            def counted(a, b, _original=original):
                calls.append(a.dim)
                return _original(a, b)

            monkeypatch.setattr(module, "commutator", counted)
    report, _ = run_verify(resolve_scenario({"family": "jordan_schwinger", "s": 4}))
    assert report.all_pass
    assert calls == [25, 25]  # [J0, J+~] and [J0, J-~] in the builder, nowhere else


def test_polar_decompose_adds_its_reconstructions():
    report = CheckReport()
    polar_decompose(build_su2("5/2"), build_phase_operator("5/2", 0.3), report=report)
    assert [c.name for c in report] == [
        "polar_raising_left", "polar_raising_right", "polar_lowering_left", "polar_lowering_right"
    ]
    assert all(c.passed and c.category == "phase" for c in report)


def _corrupt(rep: Su2Rep) -> Su2Rep:
    """rep with J+ no longer a weighted shift (J- stays its adjoint)."""
    jp = Operator(rep.Jp.mat + 0.1 * np.eye(rep.dim))
    return Su2Rep(rep.twoj, jp, jp.adjoint(), rep.J0)


def test_polar_decompose_still_raises():
    report = CheckReport()
    with pytest.raises(ArithmeticError, match="polar reconstruction failed: residual "):
        polar_decompose(_corrupt(build_su2("5/2")), build_phase_operator("5/2"), report=report)
    assert not report.all_pass


def test_casimir_adds_its_orderings_and_still_raises():
    report = CheckReport()
    casimir(build_su2(2), report=report)
    assert [c.name for c in report] == ["casimir_orderings", "casimir_scalar"]
    assert report.all_pass
    with pytest.raises(ArithmeticError, match="casimir orderings disagree"):
        casimir(_corrupt(build_su2(2)))


def test_ladder_violation_still_raises():
    with pytest.raises(ArithmeticError, match=r"\[J0~, J\+-~\] = \+-J\+-~ violated: residual "):
        build_suq2(build_su2(50), 1.3)


def test_split_structure_violation_still_raises():
    rep = build_su2("35/2")
    g = discrete_antiderivative(qbracket_structure(1.3), "35/2")
    with pytest.raises(ArithmeticError, match="split map violates its structure relation"):
        build_split_deformation(rep, g, "symmetric")


def test_scaled_identities_violation_still_raises():
    with pytest.raises(ArithmeticError, match="scaled-deformation identities violated"):
        build_scaled_deformation(build_su2("5/2"), lambda c, m: 1.0 + 0.1 * m, Tolerance(1e-30))


def test_witten_relation_violation_still_raises(monkeypatch):
    original = deform.r_commutator
    monkeypatch.setattr(
        deform, "r_commutator", lambda a, b, r: original(a, b, r) + identity(a.dim)
    )
    with pytest.raises(ArithmeticError, match="Witten defining relations violated"):
        build_witten(build_su2("3/2"), 1.2)


@pytest.mark.parametrize(
    "values, control_passes",
    [
        # spin and oscillator controls scale with the rate, so at rate 0 they
        # pass with residual 0 >= tol 0; pinned so that the shared derivation
        # keeps each family's control as it was
        ({"family": "su2", "j": "3/2", "muB": 0.0}, True),
        ({"family": "oscillator", "s": 4, "omega": 0.0}, True),
        # the two-mode control has a floor: V must not be an eigen-operator
        ({"family": "jordan_schwinger", "s": 3, "omega1": 0.0, "omega2": 0.0, "muB": 0.0}, False),
        ({"family": "jordan_schwinger", "s": 3, "omega1": 1.0, "omega2": 1.0, "muB": 0.0}, True),
    ],
)
def test_negative_control_at_zero_rate(values, control_passes):
    report, _ = run_verify(resolve_scenario(values))
    assert report.named("phase_equation_without_boundary")[0].passed is control_passes


def test_oscillators_share_one_check_body():
    # the plain and the q oscillator run the same derivation checks in order
    names = {}
    for family in ("oscillator", "q_oscillator"):
        report = collect_checks(build_bundle(resolve_scenario({"family": family, "s": 5})))
        names[family] = [c.name for c in report if c.category in ("derivation", "control")]
    assert names["oscillator"] == names["q_oscillator"] == [
        "phase_equation_with_boundary",
        "boundary_term_annihilated",
        "ladder_dynamics_from_phase",
        "phase_equation_without_boundary",
    ]
