"""The operator families: what each reads, how it is built, how it is checked.

``FAMILY_TABLE`` holds one entry per family: the Scenario fields it reads
(in report order), its build function and its check function, which
evaluates the family's list of declared checks (``checks.CHECKS``) on the
operands it binds; a check the builder made is reported as made.

Every deformed ladder factors as J+~ = U G with only the diagonal weight G
depending on the deformation, so a spin scenario is built on a *phase
frame* (``spin_frame``) that reads only (j, theta0, muB, tol), whose
operands (``dynamics.spin_motion``) carry every check no ladder enters,
evaluated once per frame.  A sweep's points on one frame run as a batch: q,
q_phase, r or f_coeff is a list, the weights and every operator reading
them hold a row per point, and each residual is a row of dense norms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from .deform import (
    LADDER,
    WITTEN,
    DeformedTriple,
    GridFunction,
    build_hermitian_deformation,
    build_scaled_deformation,
    build_split_deformation,
    build_suq2,
    build_witten,
    discrete_antiderivative,
    qbracket_structure,
    _casimir_orderings,
    _suq2_entries,
)
from .checks import (
    BRACKET, CASIMIR, MOTION, J0, ONE, Scope, call, evaluate, operands
)
from .dynamics import (
    SPIN_DERIVATION,
    SPIN_WEIGHTS,
    Hamiltonian,
    dipole_hamiltonian,
    number_hamiltonian,
    spin_motion,
    two_mode_hamiltonian,
)
from .operators import Operator, Tolerance, from_diagonal, identity, per_point, psd_sqrt, _kron
from .oscillator import build_finite_oscillator, build_q_oscillator, jordan_schwinger
from .phase import POLAR, PhaseOperator, build_phase_operator
from .report import CheckReport
from .su2 import Su2Rep, _place_ladders, build_su2

if TYPE_CHECKING:
    from .scenarios import Scenario

__all__ = [
    "FAMILY_TABLE",
    "Family",
    "FamilyBundle",
    "SpinFrame",
    "SpinParts",
    "spin_frame",
    "structure_function_for",
]


@dataclass(frozen=True)
class FamilyBundle:
    """Everything the CLI commands need about a constructed scenario.

    ``parts`` holds the family's own objects for its checks: SpinParts for a
    spin family, (oscillator, a, a^dag) for the two oscillators and
    (triple, q-oscillator mode) for jordan_schwinger.
    """

    scenario: Scenario
    operators: dict
    provenance: dict | None
    metadata: dict
    hamiltonian: Hamiltonian
    evolve_target: Operator
    eigenvalue: complex
    parts: Any


@dataclass(frozen=True, eq=False)
class SpinFrame:
    """What a spin scenario shares with every deformation at the same (j,
    theta0, muB, tol): the representation, the phase operator, the dipole
    Hamiltonian and, made on first use, the checks' operands no ladder enters.
    Its operators are immutable, so one frame serves any number of scenarios."""

    rep: Su2Rep
    phase: PhaseOperator
    hamiltonian: Hamiltonian
    tol: Tolerance

    @cached_property
    def motion(self) -> Scope:
        """The operands and checks no ladder enters (``dynamics.spin_motion``)."""
        return spin_motion(self.rep, self.phase, self.hamiltonian, self.tol)


def spin_frame(j: Fraction, theta0: float, muB: float, tol: Tolerance) -> SpinFrame:
    """The phase frame of every spin scenario at (j, theta0, muB, tol)."""
    rep = build_su2(j)
    return SpinFrame(
        rep, build_phase_operator(rep.j, theta0), dipole_hamiltonian(rep.J0, muB), tol
    )


class SpinParts(NamedTuple):
    """A spin family's phase frame, its generators as a triple (su2's own,
    Witten's W+, W-, W0) and, for ab_map, the solved g."""

    frame: SpinFrame
    triple: DeformedTriple
    g: GridFunction | None = None


Suite = Callable[[CheckReport, FamilyBundle], None]


class Family(NamedTuple):
    """One operator family: the Scenario fields it reads (in report order),
    its build function (given the scenario and, for a spin family, its phase
    frame) and its check function."""

    params: tuple[str, ...]
    build: Callable[[Scenario, SpinFrame | None], FamilyBundle]
    check: Suite


def structure_function_for(sc: Scenario):
    """f = [2x]_q with q real or the phase exp(i*2*pi/q_phase); a batch's
    list of them, one per point."""
    if sc.q_phase is not None:
        return per_point(lambda p: qbracket_structure(cmath.rect(1.0, 2.0 * np.pi / p)), sc.q_phase)
    return per_point(lambda q: qbracket_structure(float(q)), sc.q)


# --- builds ---------------------------------------------------------------


def _spin_bundle(
    sc: Scenario, frame: SpinFrame, triple: DeformedTriple, ops: dict, provenance: dict | None,
    g: GridFunction | None = None,
) -> FamilyBundle:
    meta = {"basis": "ascending_m", "j": str(sc.j), "theta0": sc.theta0}
    parts = SpinParts(frame, triple, g)
    return FamilyBundle(
        sc, ops, provenance, meta, frame.hamiltonian, triple.Jp, -1j * sc.muB, parts
    )


def _deformed_bundle(
    sc: Scenario, frame: SpinFrame, triple: DeformedTriple, g: GridFunction | None = None
) -> FamilyBundle:
    ops = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}
    prov = triple.provenance | {"hermitian_pair": triple.hermitian_pair}
    return _spin_bundle(sc, frame, triple, ops, prov, g)


def _build_su2(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    rep = frame.rep
    undeformed = DeformedTriple(rep.Jp, rep.Jm, rep.J0, {"map": "su2", "params": {}}, True)
    return _spin_bundle(sc, frame, undeformed, {"Jp": rep.Jp, "Jm": rep.Jm, "J0": rep.J0}, None)


def _build_suq2(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    return _deformed_bundle(sc, frame, build_suq2(frame.rep, sc.q, sc.tol))


def _build_witten(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    triple = build_witten(frame.rep, sc.r, sc.tol)
    ops = {"W0": triple.J0, "Wp": triple.Jp, "Wm": triple.Jm}
    return _spin_bundle(sc, frame, triple, ops, triple.provenance | {"hermitian_pair": True})


def _build_ab_map(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    g = per_point(lambda f: discrete_antiderivative(f, sc.j), structure_function_for(sc))
    triple = build_split_deformation(frame.rep, g, sc.split, tol=sc.tol)
    return _deformed_bundle(sc, frame, triple, g)


def _build_f_deform(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    weight = per_point(lambda coeff: lambda c, m: 1.0 + coeff * m, sc.f_coeff)
    triple = build_scaled_deformation(frame.rep, weight, sc.tol)
    return _deformed_bundle(sc, frame, triple)


def _build_hermitian_f(sc: Scenario, frame: SpinFrame) -> FamilyBundle:
    triple = build_hermitian_deformation(frame.rep, structure_function_for(sc), sc.tol)
    return _deformed_bundle(sc, frame, triple)


def _oscillator_bundle(
    sc: Scenario, osc, a: Operator, adag: Operator, ops: dict, **meta
) -> FamilyBundle:
    meta = {"basis": "fock_ascending", "s": sc.s, "phi0": sc.phi0, **meta}
    ham = number_hamiltonian(osc.N, sc.omega)
    return FamilyBundle(sc, ops, None, meta, ham, a, -1j * sc.omega, (osc, a, adag))


def _build_oscillator(sc: Scenario, frame: SpinFrame | None) -> FamilyBundle:
    osc = build_finite_oscillator(sc.s, sc.phi0, sc.tol)
    ops = {"N": osc.N, "a": osc.a, "adag": osc.adag, "U": osc.U.U}
    return _oscillator_bundle(sc, osc, osc.a, osc.adag, ops)


def _build_q_oscillator(sc: Scenario, frame: SpinFrame | None) -> FamilyBundle:
    qosc = build_q_oscillator(sc.s, sc.phi0, sc.tol)
    ops = {"a_q": qosc.a_q, "a_qdag": qosc.a_qdag, "Nprime": qosc.Nprime, "U": qosc.U.U}
    return _oscillator_bundle(
        sc, qosc, qosc.a_q, qosc.a_qdag, ops,
        n0=qosc.n0, q_arg=qosc.q_arg, radicands=list(qosc.radicands),
    )


def _build_jordan_schwinger(sc: Scenario, frame: SpinFrame | None) -> FamilyBundle:
    mode = build_q_oscillator(sc.s, sc.phi0, sc.tol)  # modes A and B are alike
    triple = jordan_schwinger(mode, mode, sc.tol)
    ham = two_mode_hamiltonian(sc.s, sc.omega1, sc.omega2)
    ops = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}
    meta = {
        "basis": "fock_ascending",
        "s": sc.s,
        "product_dim": (sc.s + 1) ** 2,
        "tensor_order": "mode A (x) mode B, row-major index n1*(s+1)+n2",
    }
    prov = triple.provenance | {"hermitian_pair": triple.hermitian_pair}
    lam = -1j * (sc.omega2 - sc.omega1)
    return FamilyBundle(sc, ops, prov, meta, ham, triple.Jp, lam, (triple, mode))


# --- check suites ---------------------------------------------------------

_ANNIHILATION = ("top_state_annihilated", "bottom_state_annihilated")
_QBRACKET = (*LADDER, *_ANNIHILATION, "structure_relation", "casimir_orderings", "casimir_central")
_EIGEN = ("raising_eigenoperator", "lowering_eigenoperator", "weight_conserved")


def _spin_checks(names: tuple[str, ...], operands=None, details: dict | None = None) -> Suite:
    """A spin family's check function: the phase frame's checks, ``names`` and the
    dynamics, on the ladder, its frame and the family's ``operands(bundle)``; a
    check the builder made is reported as made."""
    names = ("phase_unitarity", *POLAR, "phase_number_commutator", *names, *SPIN_DERIVATION,
             *_EIGEN)

    def check(report: CheckReport, bundle: FamilyBundle) -> None:
        frame, triple = bundle.parts.frame, bundle.parts.triple
        values = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0, "lam": bundle.eigenvalue,
                  "hermitian": triple.hermitian_pair, "rep": frame.rep}
        if operands:
            values.update(operands(bundle))
        evaluate(names, values, report, derived=_SPIN_DERIVED, parent=frame.motion,
                 details=details, given=triple.checks)

    return check


def _qbracket_operands(bundle: FamilyBundle) -> dict:
    """[J+~, J-~] = f(J0) with f = [2x]_q and the casimir from its antiderivative g."""
    sc, rep, triple = bundle.scenario, bundle.parts.frame.rep, bundle.parts.triple
    f, ms = structure_function_for(sc), rep.m_values()
    f_diag = from_diagonal(per_point(lambda fn: [fn(float(m)) for m in ms], f))
    # ab_map's build solved g
    g = bundle.parts.g or per_point(lambda fn: discrete_antiderivative(fn, sc.j), f)
    c_up, c_down = _casimir_orderings(triple, per_point(lambda gf: gf.values, g))
    other = "left" if sc.split == "symmetric" else "symmetric"
    return {"B": triple.bracket, "F": f_diag, "C": c_up, "Cd": c_down, "g": g, "q": sc.q,
            "real_q": sc.q is not None, "tol": sc.tol, "other": other}


# what a spin family's checks may derive, each made only where a check reads it
# (a family's values take precedence): the weights G and K, su2's structure and
# casimir, ab_map's other split, and hermitian_f's SU_q(2) ladder at a real q
_SPIN_DERIVED = {
    **SPIN_WEIGHTS, "B": BRACKET, "F": 2.0 * J0, **CASIMIR,
    "S": call(lambda rep: from_diagonal([rep.casimir_value] * rep.dim), *operands("rep")),
    "Balt": call(lambda rep, g, other, tol: build_split_deformation(rep, g, other, tol).bracket,
                 *operands("rep g other tol")),
    "RefP": call(lambda rep, q: _place_ladders(per_point(lambda v: _suq2_entries(rep, v), q))[0],
                 *operands("rep q")),
}


_OSCILLATOR_DETAILS = {
    "phase_equation_with_boundary": "(1/i)[U,H] = -i*omega*(U - (s+1)e^{i(s+1)phi0}|s><0|)",
    "boundary_term_annihilated": "|s><0| sqrt(level weights) = 0",
    "phase_equation_without_boundary": (
        "negative control: the bare eigen-relation fails for U itself"
    ),
}


def _oscillator_checks(algebra: tuple[str, ...], modulus, details: dict) -> Suite:
    """The check function of the plain and the q oscillator, a = U G with G the
    ``modulus``: unitarity, the variant's own ``algebra`` checks, the phase
    derivation with the corner (s+1) e^{i(s+1)phi0} |s><0| and the dynamics."""
    names = ("phase_unitarity", *algebra, "phase_equation_with_boundary",
             "boundary_term_annihilated", "ladder_dynamics_from_phase",
             "phase_equation_without_boundary", *_EIGEN)
    derived, details = {**MOTION, "G": modulus}, {**_OSCILLATOR_DETAILS, **details}

    def check(report: CheckReport, bundle: FamilyBundle) -> None:
        sc = bundle.scenario
        osc, a, adag = bundle.parts
        values = {
            "U": osc.U.U, "I": identity(osc.s + 1), "corner": osc.U.boundary, "Jp": a, "Jm": adag,
            "J0": osc.N, "L": ONE, "tol": sc.tol, "radicands": getattr(osc, "radicands", None),
            "H": bundle.hamiltonian.op, "lam": bundle.eigenvalue, "rate": sc.omega,
            "hermitian": True, "t": sc.tol.for_dim(osc.s + 1),
        }
        evaluate(names, values, report, derived=derived, details=details)

    return check


_TWO_MODE_DETAILS = {
    "ladder_dynamics_from_phase": (
        "the two-mode phase equation reproduces dJ+~/dt = -i(omega2-omega1)J+~"
    ),
    "phase_equation_without_boundary": (
        "negative control: V itself is no eigen-operator; wrap terms remain"
    ),
}
_TWO_MODE = (
    *LADDER, "adjoint_pair", "vacuum_annihilated", "frequency_condition", *_EIGEN,
    "two_mode_polar_product", "ladder_dynamics_from_phase", "phase_equation_without_boundary",
)
# J+~ = L V G with V = U_A^dag (x) U_B and diagonal moduli L = sqrt(D_A) (x) I,
# G = I (x) sqrt(D_B); V's wrap terms have no single corner, so no boundary
# checks, and the control must fail even at omega1 = omega2.  Derived operands
# call this module's functions when evaluated, as a tree's operations do.
_UA, _EYE, _ROOT = operands("UA eye root")
_TWO_MODE_FACTORS = {
    "U": call(lambda a, b: _kron(a, b, "V"), _UA.adjoint(), _UA),
    "L": call(lambda a, b: _kron(a, b), _ROOT, _EYE),
    "G": call(lambda a, b: _kron(a, b), _EYE, _ROOT), **MOTION,
}


def _check_jordan_schwinger(report: CheckReport, bundle: FamilyBundle) -> None:
    sc = bundle.scenario
    triple, mode = bundle.parts
    delta = sc.omega2 - sc.omega1
    values = {
        "Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0, "H": bundle.hamiltonian.op,
        "lam": bundle.eigenvalue, "delta": delta, "muB": sc.muB, "rate": delta,
        "UA": mode.U.U, "eye": identity(mode.s + 1), "root": from_diagonal(np.sqrt(mode.radicands)),
        "t": sc.tol.for_dim(triple.dim),
    }
    evaluate(_TWO_MODE, values, report, derived=_TWO_MODE_FACTORS, details=_TWO_MODE_DETAILS,
             given=triple.checks)  # the builder's ladder relations and adjoint pair


FAMILY_TABLE = {
    "su2": Family(("j", "theta0", "muB"), _build_su2, _spin_checks(
        (*LADDER, "structure_relation", *_ANNIHILATION, "casimir_orderings", "casimir_scalar",
         "casimir_central"), details={"structure_relation": "[J+, J-] = 2 J0"},
    )),
    "suq2": Family(("j", "q", "theta0", "muB"), _build_suq2, _spin_checks(
        (*_QBRACKET, "adjoint_pair"), _qbracket_operands
    )),
    "witten": Family(("j", "r", "theta0", "muB"), _build_witten, _spin_checks(
        (*WITTEN, "adjoint_pair", *_ANNIHILATION)
    )),
    "ab_map": Family(("j", "q", "theta0", "muB", "split"), _build_ab_map, _spin_checks(
        (*_QBRACKET, "adjoint_pair", "alternate_split_structure"), _qbracket_operands
    )),
    "f_deform": Family(("j", "theta0", "muB", "f_coeff"), _build_f_deform, _spin_checks(
        (*LADDER, *_ANNIHILATION, "structure_relation", "adjoint_pair")
    )),
    "hermitian_f": Family(("j", "q", "q_phase", "theta0", "muB"), _build_hermitian_f, _spin_checks(
        (*_QBRACKET, "matches_suq2_representation", "adjoint_pair"), _qbracket_operands
    )),
    "oscillator": Family(("s", "phi0", "omega"), _build_oscillator, _oscillator_checks(
        ("polar_product", "number_ladder_commutator", "adjoint_pair"),
        call(lambda n, tol: psd_sqrt(n, tol), *operands("J0 tol")), {},
    )),
    "q_oscillator": Family(("s", "phi0", "omega"), _build_q_oscillator, _oscillator_checks(
        ("radicand_positivity", "polar_product", "adjoint_pair", "number_ladder_commutator"),
        call(lambda radicands: from_diagonal(np.sqrt(radicands)), *operands("radicands")),
        {"polar_product": "a_q = U sqrt([N-n0]_q + [n0]_q)", "number_ladder_commutator": ""},
    )),
    "jordan_schwinger": Family(
        ("s", "phi0", "omega1", "omega2", "muB"), _build_jordan_schwinger, _check_jordan_schwinger
    ),
}
