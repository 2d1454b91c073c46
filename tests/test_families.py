"""The family table: builders' verified relations reach the verify report as
computed, builders still raise on a violation, and the shared phase
derivation keeps each family's negative-control floor."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    Operator,
    Su2Rep,
    build_deformation,
    build_hermitian_deformation,
    build_phase_operator,
    build_q_oscillator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    casimir,
    discrete_antiderivative,
    identity,
    jordan_schwinger,
    polar_decompose,
    qbracket_structure,
)
from spinphase import checks
from spinphase.families import spin_frame
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
    report = collect_checks(bundle)
    for name in names:
        # the very result the builder computed, not an equal recomputation
        assert report.named(name)[0] is bundle.given.named(name)[0]


@pytest.mark.parametrize(
    "values",
    [
        {"family": "ab_map", "j": "5/2", "q": 1.3, "split": "left"},
        {"family": "f_deform", "j": "5/2"},
    ],
)
def test_non_hermitian_pair_has_no_adjoint_check(values):
    report, bundle = run_verify(resolve_scenario(values))
    triple = bundle.operands["triple"]
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


def _corrupt(rep: Su2Rep) -> Su2Rep:
    """rep with J+ no longer a weighted shift (J- stays its adjoint)."""
    jp = Operator(rep.Jp.mat + 0.1 * np.eye(rep.dim))
    return Su2Rep(rep.twoj, jp, jp.adjoint(), rep.J0)


def test_polar_decompose_raises_on_a_failed_reconstruction():
    rep, phase = _corrupt(build_su2("5/2")), build_phase_operator("5/2")
    with pytest.raises(ArithmeticError, match="polar reconstruction failed: residual "):
        polar_decompose(rep, phase)


def test_casimir_raises_on_disagreeing_orderings():
    assert casimir(build_su2(2)).label == "C"
    with pytest.raises(ArithmeticError, match="^casimir orderings disagree; representation"):
        casimir(_corrupt(build_su2(2)))


def test_ladder_violation_still_raises():
    with pytest.raises(ArithmeticError, match=r"\[J0~, J\+-~\] = \+-J\+-~ violated: residual "):
        build_suq2(build_su2(50), 1.3)


def test_general_deformation_raises_on_a_broken_ladder_relation(monkeypatch):
    rep = build_su2("3/2")
    entries = rep.ladder_entries() * 1.1
    triple = build_deformation(rep, entries, provenance={"map": "general", "params": {}})
    assert triple.checks.all_pass and triple.hermitian_pair
    original = checks.commutator  # the declared identities call it
    monkeypatch.setattr(checks, "commutator", lambda a, b: original(a, b) + identity(a.dim))
    with pytest.raises(ArithmeticError, match=r"\[J0~, J\+-~\] = \+-J\+-~ violated: residual "):
        build_deformation(rep, entries, provenance={"map": "general", "params": {}})


def test_jordan_schwinger_raises_on_a_broken_ladder_relation(monkeypatch):
    mode = build_q_oscillator(3)
    assert jordan_schwinger(mode, mode).checks.all_pass
    original = checks.commutator  # the declared identities call it
    monkeypatch.setattr(checks, "commutator", lambda a, b: original(a, b) + identity(a.dim))
    with pytest.raises(ArithmeticError, match="Jordan-Schwinger ladder relations violated: "):
        jordan_schwinger(mode, mode)


def test_split_structure_violation_still_raises():
    rep = build_su2("35/2")
    g = discrete_antiderivative(qbracket_structure(1.3), "35/2")
    with pytest.raises(ArithmeticError, match="split map violates its structure relation"):
        build_split_deformation(rep, g, "symmetric")


def test_scaled_identities_violation_still_raises():
    with pytest.raises(ArithmeticError, match="scaled-deformation identities violated"):
        build_scaled_deformation(build_su2("5/2"), lambda c, m: 1.0 + 0.1 * m, Tolerance(1e-30))


def test_witten_relation_violation_still_raises(monkeypatch):
    original = checks.r_commutator
    monkeypatch.setattr(
        checks, "r_commutator", lambda a, b, r: original(a, b, r) + identity(a.dim)
    )
    with pytest.raises(ArithmeticError, match="Witten defining relations violated"):
        build_witten(build_su2("3/2"), 1.2)


LADDER_NAMES = ["j0_ladder_raising", "j0_ladder_lowering"]
WITTEN_NAMES = ["witten_relation_raising", "witten_relation_pair", "witten_relation_lowering"]
SCALED_NAMES = ["scaled_ladder", "structure_relation", *LADDER_NAMES]
# each builder at a point where its relations hold, and the checks its triple records
BUILDERS = {
    "split": (lambda rep: build_split_deformation(
        rep, discrete_antiderivative(qbracket_structure(1.3), rep.j)),
        [*LADDER_NAMES, "adjoint_pair"]),
    "split_left": (lambda rep: build_split_deformation(
        rep, discrete_antiderivative(qbracket_structure(1.3), rep.j), "left"), LADDER_NAMES),
    "hermitian": (lambda rep: build_hermitian_deformation(rep, qbracket_structure(1.3)),
                  [*LADDER_NAMES, "adjoint_pair"]),
    "suq2": (lambda rep: build_suq2(rep, 1.3), [*LADDER_NAMES, "adjoint_pair"]),
    "witten": (lambda rep: build_witten(rep, 1.2), [*WITTEN_NAMES, "adjoint_pair"]),
    "scaled": (lambda rep: build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m), SCALED_NAMES),
    "scaled_constant": (lambda rep: build_scaled_deformation(rep, lambda c, m: 2.0),
                        [*SCALED_NAMES, "adjoint_pair"]),
    "jordan_schwinger": (lambda rep: jordan_schwinger(build_q_oscillator(3), build_q_oscillator(3)),
                         [*LADDER_NAMES, "adjoint_pair"]),
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_each_builder_records_the_checks_it_gates(builder):
    build, names = BUILDERS[builder]
    triple = build(build_su2("3/2"))
    assert [c.name for c in triple.checks] == names
    assert triple.checks.all_pass and triple.hermitian_pair == ("adjoint_pair" in names)


LADDER_MESSAGE = r"^\[J0~, J\+-~\] = \+-J\+-~ violated: residual \d\.\d{3}e[+-]\d\d$"


@pytest.mark.parametrize(
    "builder, message",
    [
        # the ladder gate raises before the split's structure gate and SU_q(2)'s casimir gate
        ("split", LADDER_MESSAGE),
        ("split_left", LADDER_MESSAGE),
        ("hermitian", LADDER_MESSAGE),
        ("suq2", LADDER_MESSAGE),
        ("scaled", r"^scaled-deformation identities violated: \d\.\d{3}e[+-]\d\d$"),
        ("jordan_schwinger", r"^Jordan-Schwinger ladder relations violated: \d\.\d{3}e[+-]\d\d$"),
        ("witten", None),  # Witten's relations are r-commutators: its gate holds
    ],
)
def test_each_gate_raises_on_a_broken_commutator(monkeypatch, builder, message):
    build, names = BUILDERS[builder]
    original = checks.commutator  # the declared identities call it
    monkeypatch.setattr(checks, "commutator", lambda a, b: original(a, b) + identity(a.dim))
    if message is None:
        assert [c.name for c in build(build_su2("3/2")).checks] == names
        return
    with pytest.raises(ArithmeticError, match=message) as info:
        build(build_su2("3/2"))
    assert type(info.value) is ArithmeticError


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_suq2(build_su2(5), 3.0), r"SU_q\(2\) casimir identity violated"),
        (lambda: build_split_deformation(
            build_su2("35/2"), discrete_antiderivative(qbracket_structure(1.3), "35/2")),
         r"split map violates its structure relation: \d\.\d{3}e[+-]\d\d"),
    ],
)
def test_a_later_gate_raises_after_the_ladder_gate(monkeypatch, build, message):
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        build()
    original = checks.commutator  # with the ladder relations broken too, their gate is first
    monkeypatch.setattr(checks, "commutator", lambda a, b: original(a, b) + identity(a.dim))
    with pytest.raises(ArithmeticError, match=LADDER_MESSAGE):
        build()


@pytest.mark.parametrize(
    "values, control_passes",
    [
        # one rule for every family: the tolerance 0.5*max(|rate|, 1e-300)
        # keeps the control able to fail, so at rate 0 it fails
        ({"family": "su2", "j": "3/2", "muB": 0.0}, False),
        ({"family": "oscillator", "s": 4, "omega": 0.0}, False),
        ({"family": "jordan_schwinger", "s": 3, "omega1": 0.0, "omega2": 0.0, "muB": 0.0}, False),
        # at omega1 = omega2 the rate is 0 too, but V's wrap terms still miss
        ({"family": "jordan_schwinger", "s": 3, "omega1": 1.0, "omega2": 1.0, "muB": 0.0}, True),
        ({"family": "suq2", "j": "3/2", "q": 1.3, "muB": 0.0}, False),
        ({"family": "q_oscillator", "s": 4, "omega": 0.0}, False),
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


_FRAME_CHECKS = [
    "phase_unitarity",
    "polar_raising_left",
    "polar_raising_right",
    "polar_lowering_left",
    "polar_lowering_right",
    "phase_number_commutator",
    "phase_equation_with_boundary",
    "conjugate_phase_equation_with_boundary",
    "phase_equation_without_boundary",
]


@pytest.mark.parametrize(
    "family, field",
    [("suq2", "q"), ("witten", "r"), ("f_deform", "f_coeff"), ("ab_map", "q"), ("hermitian_f", "q")],
)
def test_deformations_on_one_frame_share_its_checks(family, field):
    # J+~ = U G: U's checks are the frame's, only the G- and K-checks differ
    frame = spin_frame(Fraction(3, 2), 0.0, 1.0, Tolerance())
    reports = [
        run_verify(resolve_scenario({"family": family, "j": "3/2", field: value}), frame)[0]
        for value in (0.3, 1.3)
    ]
    for name in _FRAME_CHECKS:
        assert reports[0].named(name)[0] is reports[1].named(name)[0]
    for name in ("raising_dynamics_from_phase", "lowering_dynamics_from_phase"):
        assert reports[0].named(name)[0] is not reports[1].named(name)[0]
    # the frame's checks keep their places in the report
    alone = run_verify(resolve_scenario({"family": family, "j": "3/2", field: 1.3}))[0]
    assert [c.name for c in alone] == [c.name for c in reports[1]]
    assert alone.to_jsonable() == reports[1].to_jsonable()
