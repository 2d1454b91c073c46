"""The operator families: what each reads, how it is built, which checks it reports.

``FAMILY_TABLE`` holds one entry per family, data but for its build
function: the Scenario fields it reads (in report order), the build, the
names of the declared checks it reports (``checks.CHECKS``), the operands
those checks may derive, each made only where a check reads it, and the
details the family words its own way.  A build binds the checks' operands on
its bundle with the relations its builder verified (``given``, reported as
made); ``build`` and ``evolve`` form none of the derived ones, and
``verify.collect_checks`` evaluates every family in one call.

Every deformed ladder factors as J+~ = U G with only the diagonal weight G
depending on the deformation, so a spin scenario is built on a *phase
frame* (``spin_frame``) that reads only (j, theta0, muB, tol): the parent
``checks.Scope`` of its scenarios' checks, whose operands
(``dynamics.spin_motion``) carry every check no ladder enters, evaluated
once per frame.  A sweep's points on one frame run as a batch: q,
q_phase, r or f_coeff is a list, the weights and every operator reading
them hold a row per point, and each residual is a row of dense norms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .deform import (
    LADDER,
    QCASIMIR,
    WITTEN,
    DeformedTriple,
    build_hermitian_deformation,
    build_scaled_deformation,
    build_split_deformation,
    build_suq2,
    build_witten,
    discrete_antiderivative,
    qbracket_structure,
    _suq2_entries,
)
from .checks import BRACKET, CASIMIR, MOTION, I, J0, ONE, Scope, call, operands
from .dynamics import (
    SPIN_DERIVATION,
    SPIN_WEIGHTS,
    Hamiltonian,
    dipole_hamiltonian,
    number_hamiltonian,
    spin_motion,
    two_mode_hamiltonian,
)
from .operators import Operator, Tolerance, from_diagonal, identity, per_point, _kron
from .oscillator import build_finite_oscillator, build_q_oscillator, jordan_schwinger
from .phase import POLAR, build_phase_operator
from .report import CheckReport
from .su2 import _place_ladders, build_su2

if TYPE_CHECKING:
    from .scenarios import Scenario

__all__ = [
    "FAMILY_TABLE",
    "Family",
    "FamilyBundle",
    "spin_frame",
    "structure_function_for",
]


def spin_frame(j: Fraction, theta0: float, muB: float, tol: Tolerance) -> Scope:
    """The phase frame of every spin scenario at (j, theta0, muB, tol): the scope
    of ``dynamics.spin_motion``, binding ``rep`` and ``hamiltonian`` too.  Its
    operators are immutable, so one frame serves any number of scenarios."""
    rep = build_su2(j)
    return spin_motion(
        rep, build_phase_operator(rep.j, theta0), dipole_hamiltonian(rep.J0, muB), tol
    )


@dataclass(frozen=True)
class FamilyBundle:
    """Everything the CLI commands need about a constructed scenario, and what
    its checks read: their ``operands`` by name (``evolve`` samples ``Jp``), a
    spin family's phase ``frame`` and the checks its builder made (``given``)."""

    scenario: Scenario
    operators: dict
    provenance: dict | None
    metadata: dict
    hamiltonian: Hamiltonian
    operands: dict
    frame: Scope | None = None
    given: CheckReport | tuple = ()


class Family(NamedTuple):
    """One operator family: the Scenario fields it reads (in report order), its
    build function (given the scenario and, for a spin family, its phase
    frame), the names of the checks it reports, the operands they may derive
    and the details that replace a declared check's."""

    params: tuple[str, ...]
    build: Callable[[Scenario, Scope | None], FamilyBundle]
    names: tuple[str, ...]
    derived: dict
    details: dict | None = None


def structure_function_for(sc: Scenario):
    """f = [2x]_q with q real or the phase exp(i*2*pi/q_phase); a batch's
    list of them, one per point."""
    if sc.q_phase is not None:
        return per_point(lambda p: qbracket_structure(cmath.rect(1.0, 2.0 * np.pi / p)), sc.q_phase)
    return per_point(lambda q: qbracket_structure(float(q)), sc.q)


# --- builds ---------------------------------------------------------------


def _spin_bundle(sc: Scenario, frame: Scope, triple: DeformedTriple, ops: dict | None = None,
                 **extra) -> FamilyBundle:
    """The bundle writing out ``ops`` (J+~, J-~ and J0~ as Jp, Jm and J0 by
    default) with the triple's provenance, none for su2's undeformed triple."""
    meta = {"basis": "ascending_m", "j": str(sc.j), "theta0": sc.theta0}
    prov = triple.provenance and triple.provenance | {"hermitian_pair": triple.hermitian_pair}
    values = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0, "lam": -1j * sc.muB,
              "hermitian": triple.hermitian_pair, "triple": triple, "q": sc.q, **extra}
    return FamilyBundle(sc, ops or {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}, prov,
                        meta, frame["hamiltonian"], values, frame, triple.checks)


def _build_su2(sc: Scenario, frame: Scope) -> FamilyBundle:
    rep = frame["rep"]
    return _spin_bundle(sc, frame, DeformedTriple(rep.Jp, rep.Jm, rep.J0, None, True))


def _build_suq2(sc: Scenario, frame: Scope) -> FamilyBundle:
    triple = build_suq2(frame["rep"], sc.q, sc.tol)
    return _spin_bundle(sc, frame, triple, f=structure_function_for(sc))


def _build_witten(sc: Scenario, frame: Scope) -> FamilyBundle:
    triple = build_witten(frame["rep"], sc.r, sc.tol)
    return _spin_bundle(sc, frame, triple, {"W0": triple.J0, "Wp": triple.Jp, "Wm": triple.Jm})


def _build_ab_map(sc: Scenario, frame: Scope) -> FamilyBundle:
    f = structure_function_for(sc)
    g = per_point(lambda fn: discrete_antiderivative(fn, sc.j), f)
    triple = build_split_deformation(frame["rep"], g, sc.split, tol=sc.tol)
    return _spin_bundle(sc, frame, triple, f=f, g=g, split=sc.split)


def _build_f_deform(sc: Scenario, frame: Scope) -> FamilyBundle:
    weight = per_point(lambda coeff: lambda c, m: 1.0 + coeff * m, sc.f_coeff)
    triple = build_scaled_deformation(frame["rep"], weight, sc.tol)
    return _spin_bundle(sc, frame, triple)


def _build_hermitian_f(sc: Scenario, frame: Scope) -> FamilyBundle:
    f = structure_function_for(sc)
    return _spin_bundle(sc, frame, build_hermitian_deformation(frame["rep"], f, sc.tol), f=f)


def _oscillator_bundle(sc: Scenario, osc, a: Operator, adag: Operator, ops: dict,
                       levels, **meta) -> FamilyBundle:
    meta = {"basis": "fock_ascending", "s": sc.s, "phi0": sc.phi0, **meta}
    ham = number_hamiltonian(osc.N, sc.omega)
    values = {
        "U": osc.U.U, "I": identity(osc.s + 1), "corner": osc.U.boundary, "Jp": a, "Jm": adag,
        "J0": osc.N, "L": ONE, "radicands": levels,
        "H": ham.op, "lam": -1j * sc.omega, "rate": sc.omega, "hermitian": True,
        "t": sc.tol.for_dim(osc.s + 1),
    }
    return FamilyBundle(sc, ops, None, meta, ham, values)


def _build_oscillator(sc: Scenario, frame: Scope | None) -> FamilyBundle:
    osc = build_finite_oscillator(sc.s, sc.phi0, sc.tol)
    ops = {"N": osc.N, "a": osc.a, "adag": osc.adag, "U": osc.U.U}
    return _oscillator_bundle(sc, osc, osc.a, osc.adag, ops, osc.N.diagonal().real)


def _build_q_oscillator(sc: Scenario, frame: Scope | None) -> FamilyBundle:
    qosc = build_q_oscillator(sc.s, sc.phi0, sc.tol)
    ops = {"a_q": qosc.a_q, "a_qdag": qosc.a_qdag, "Nprime": qosc.Nprime, "U": qosc.U.U}
    return _oscillator_bundle(
        sc, qosc, qosc.a_q, qosc.a_qdag, ops, qosc.radicands,
        n0=qosc.n0, q_arg=qosc.q_arg, radicands=list(qosc.radicands),
    )


def _build_jordan_schwinger(sc: Scenario, frame: Scope | None) -> FamilyBundle:
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
    delta = sc.omega2 - sc.omega1
    values = {
        "Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0, "H": ham.op, "lam": -1j * delta,
        "delta": delta, "muB": sc.muB, "rate": delta, "UA": mode.U.U, "I": identity(mode.s + 1),
        "radicands": mode.radicands, "t": sc.tol.for_dim(triple.dim),
    }
    # the builder's ladder relations and adjoint pair are reported as made
    return FamilyBundle(sc, ops, prov, meta, ham, values, None, triple.checks)


# --- the checks each family reports ---------------------------------------

_ANNIHILATION = ("top_state_annihilated", "bottom_state_annihilated")
_QBRACKET = (*LADDER, *_ANNIHILATION, "structure_relation", "casimir_orderings", "casimir_central")
_EIGEN = ("raising_eigenoperator", "lowering_eigenoperator", "weight_conserved")


def _spin(*names: str) -> tuple[str, ...]:
    """A spin family's checks: its phase frame's, ``names`` and the dynamics."""
    return ("phase_unitarity", *POLAR, "phase_number_commutator", *names, *SPIN_DERIVATION,
            *_EIGEN)


_rep, _f, _g, _q = operands("rep f g q")
# what a spin family's checks may derive (its bound operands take precedence),
# no name a frame check reads: the weights G and K, su2's structure and
# casimir, and for the q-bracket families, with f = [2x]_q bound by the build,
# g its antiderivative, [J+~, J-~] = f(J0), the casimir J-~ J+~ + g(J0) =
# J+~ J-~ + g(J0 - 1), ab_map's other split and hermitian_f's SU_q(2) ladder
_SPIN_DERIVED = {
    **SPIN_WEIGHTS, "B": BRACKET, "F": 2.0 * J0, **CASIMIR,
    "S": call(lambda rep: from_diagonal([rep.casimir_value] * rep.dim), _rep),
}
_QBRACKET_DERIVED = {
    **_SPIN_DERIVED,
    "B": call(lambda triple: triple.bracket, *operands("triple")),
    "F": call(lambda f, rep: from_diagonal(
        per_point(lambda fn: [fn(float(m)) for m in rep.m_values()], f)), _f, _rep),
    "g": call(lambda f, rep: per_point(lambda fn: discrete_antiderivative(fn, rep.j), f), _f, _rep),
    "gv": call(lambda g: np.asarray(per_point(lambda gf: gf.values, g)), _g),  # on {-j-1, ..., j}
    **QCASIMIR,
    "other": call(lambda split: "left" if split == "symmetric" else "symmetric",
                  *operands("split")),
    "Balt": call(lambda rep, g, other, tol: build_split_deformation(rep, g, other, tol).bracket,
                 *operands("rep g other tol")),
    "real_q": call(lambda q: q is not None, _q),
    "RefP": call(lambda rep, q: _place_ladders(per_point(lambda v: _suq2_entries(rep, v), q))[0],
                 _rep, _q),
}


def _oscillator(*algebra: str) -> tuple[str, ...]:
    """The checks of the plain and the q oscillator, a = U G with G the modulus:
    unitarity, the variant's own ``algebra`` checks, the phase derivation with
    the corner (s+1) e^{i(s+1)phi0} |s><0| and the dynamics."""
    return ("phase_unitarity", *algebra, "phase_equation_with_boundary",
            "boundary_term_annihilated", "ladder_dynamics_from_phase",
            "phase_equation_without_boundary", *_EIGEN)


_ROOT = call(lambda radicands: from_diagonal(np.sqrt(radicands)), *operands("radicands"))
_OSCILLATOR_DETAILS = {
    "phase_equation_with_boundary": "(1/i)[U,H] = -i*omega*(U - (s+1)e^{i(s+1)phi0}|s><0|)",
    "boundary_term_annihilated": "|s><0| sqrt(level weights) = 0",
    "phase_equation_without_boundary": (
        "negative control: the bare eigen-relation fails for U itself"
    ),
}
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
_UA, _R = operands("UA root")
_TWO_MODE_FACTORS = {
    "root": _ROOT,
    "U": call(lambda a, b: _kron(a, b, "V"), _UA.adjoint(), _UA),
    "L": call(lambda a, b: _kron(a, b), _R, I),
    "G": call(lambda a, b: _kron(a, b), I, _R), **MOTION,
}


FAMILY_TABLE = {
    "su2": Family(("j", "theta0", "muB"), _build_su2, _spin(
        *LADDER, "structure_relation", *_ANNIHILATION, "casimir_orderings", "casimir_scalar",
        "casimir_central"), _SPIN_DERIVED, {"structure_relation": "[J+, J-] = 2 J0"},
    ),
    "suq2": Family(("j", "q", "theta0", "muB"), _build_suq2, _spin(*_QBRACKET, "adjoint_pair"),
                   _QBRACKET_DERIVED),
    "witten": Family(("j", "r", "theta0", "muB"), _build_witten,
                     _spin(*WITTEN, "adjoint_pair", *_ANNIHILATION), _SPIN_DERIVED),
    "ab_map": Family(("j", "q", "theta0", "muB", "split"), _build_ab_map,
                     _spin(*_QBRACKET, "adjoint_pair", "alternate_split_structure"),
                     _QBRACKET_DERIVED),
    "f_deform": Family(("j", "theta0", "muB", "f_coeff"), _build_f_deform,
                       _spin(*LADDER, *_ANNIHILATION, "structure_relation", "adjoint_pair"),
                       _SPIN_DERIVED),
    "hermitian_f": Family(("j", "q", "q_phase", "theta0", "muB"), _build_hermitian_f,
                          _spin(*_QBRACKET, "matches_suq2_representation", "adjoint_pair"),
                          _QBRACKET_DERIVED),
    "oscillator": Family(("s", "phi0", "omega"), _build_oscillator, _oscillator(
        "polar_product", "number_ladder_commutator", "adjoint_pair"),
        {**MOTION, "G": _ROOT}, _OSCILLATOR_DETAILS,
    ),
    "q_oscillator": Family(("s", "phi0", "omega"), _build_q_oscillator, _oscillator(
        "radicand_positivity", "polar_product", "adjoint_pair", "number_ladder_commutator"),
        {**MOTION, "G": _ROOT}, {**_OSCILLATOR_DETAILS, "number_ladder_commutator": "",
                                 "polar_product": "a_q = U sqrt([N-n0]_q + [n0]_q)"},
    ),
    "jordan_schwinger": Family(("s", "phi0", "omega1", "omega2", "muB"),
                               _build_jordan_schwinger, _TWO_MODE, _TWO_MODE_FACTORS,
                               _TWO_MODE_DETAILS),
}
