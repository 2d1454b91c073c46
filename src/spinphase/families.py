"""The operator families: what each reads, how it is built, how it is checked.

``FAMILY_TABLE`` holds one entry per family: the Scenario fields it reads
(in report order), its build function and its check function; a spin
family's check runs shared suites in a fixed order.  A relation the builder
already verified is reported from the builder's checks, not computed again.

Every deformed ladder factors as J+~ = U G with only the diagonal weight G
depending on the deformation, so a spin scenario is built on a *phase
frame* (``spin_frame``) that reads only (j, theta0, muB, tol): the SU(2)
representation, the phase operator U, the dipole H, the phase suite's
checks and U's equation of motion with its ladder-free residuals.  The suites
add only the checks that G and K = J-~ U enter.  A spin family's build is
given its frame (``scenarios.build_bundle`` makes one when none is passed).
[J+~, J-~] is built once per scenario (``DeformedTriple.bracket``).  A sweep's
points on one frame run as a batch: q, q_phase, r or f_coeff is a list, the
weights and every operator reading them hold a row per point, and each
residual is a row of dense norms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from .deform import (
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
from .dynamics import (
    Hamiltonian,
    PhaseMotion,
    dipole_hamiltonian,
    eigenoperator_residual,
    ladder_from_phase,
    number_hamiltonian,
    spin_ladder_from_phase,
    spin_phase_motion,
    two_mode_hamiltonian,
)
from .operators import (
    Operator,
    SplitError,
    Tolerance,
    commutator,
    from_diagonal,
    identity,
    per_point,
    psd_sqrt,
    residual,
    _kron,
    _larger,
)
from .oscillator import build_finite_oscillator, build_q_oscillator, jordan_schwinger
from .phase import (
    PhaseOperator,
    build_phase_operator,
    phase_number_commutator_residual,
    polar_decompose,
)
from .report import CheckReport
from .su2 import Su2Rep, _place_ladders, build_su2, casimir

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
    """What a spin scenario's checks share with every deformation at the
    same (j, theta0, muB, tol): the representation, the phase operator, the
    dipole Hamiltonian and, computed on first use, the phase suite's checks
    and U's equation of motion.  Its operators are immutable, so one frame
    serves any number of scenarios."""

    rep: Su2Rep
    phase: PhaseOperator
    hamiltonian: Hamiltonian
    tol: Tolerance

    @cached_property
    def phase_checks(self) -> CheckReport:
        """Unitarity, the four polar reconstructions, and the phase commutator."""
        rep, phase, t = self.rep, self.phase, self.tol.for_dim(self.rep.dim)
        report = CheckReport()
        _unitarity(report, phase.U, t)
        polar_decompose(rep, phase, self.tol, report)
        report.add(
            "phase_number_commutator",
            phase_number_commutator_residual(rep, phase),
            t,
            detail="[exp(+-i*phi), J0] matches its closed form incl. the corner term",
            category="phase",
        )
        return report

    @cached_property
    def motion(self) -> PhaseMotion:
        """dU/dt, dU^dag/dt, the corner and the residuals no ladder enters."""
        return spin_phase_motion(self.phase, self.hamiltonian, self.tol.for_dim(self.rep.dim))


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


def _in_order(*suites: Suite) -> Suite:
    """A check function running suites one after another."""

    def check(report: CheckReport, bundle: FamilyBundle) -> None:
        for suite in suites:
            suite(report, bundle)

    return check


def _from_builder(*names: str) -> Suite:
    """A suite reporting the named checks the spin family's builder verified."""
    return lambda report, bundle: report.extend(bundle.parts.triple.checks.named(*names))


def _spin(bundle: FamilyBundle) -> tuple[Scenario, Su2Rep, DeformedTriple, float]:
    """A spin bundle's scenario, representation, triple and tolerance."""
    rep = bundle.parts.frame.rep
    return bundle.scenario, rep, bundle.parts.triple, bundle.scenario.tol.for_dim(rep.dim)


def _unitarity(report: CheckReport, u: Operator, t: float) -> None:
    eye = identity(u.dim)
    udag = u.adjoint()
    report.add(
        "phase_unitarity", max(residual(u @ udag, eye), residual(udag @ u, eye)), t,
        category="phase",
    )


def _phase_suite(report: CheckReport, bundle: FamilyBundle) -> None:
    report.extend(bundle.parts.frame.phase_checks)


def _image_norm(op: Operator, index: int) -> float:
    """|| op |index> || for the basis state at index; per row for a batch."""
    state = np.zeros(op.dim, dtype=complex)
    state[index] = 1.0
    image, norm = op.apply(state), np.linalg.norm  # a batch's image: a row per point
    return float(norm(image)) if image.ndim == 1 else np.array([*map(norm, image)])


def _annihilation(report: CheckReport, bundle: FamilyBundle) -> None:
    _, _, triple, t = _spin(bundle)
    report.add("top_state_annihilated", _image_norm(triple.Jp, -1), t, detail="J+~ |j, j> = 0")
    report.add(
        "bottom_state_annihilated", _image_norm(triple.Jm, 0), t, detail="J-~ |j, -j> = 0"
    )


def _casimir_central(
    report: CheckReport, c: Operator, jp: Operator, jm: Operator, t: float
) -> None:
    report.add(
        "casimir_central",
        _larger(residual(commutator(c, jp), 0.0 * jp), residual(commutator(c, jm), 0.0 * jm)),
        t,
    )


def _su2_algebra(report: CheckReport, bundle: FamilyBundle) -> None:
    """The undeformed ladder and structure relations, annihilation, casimir."""
    sc, rep, _, t = _spin(bundle)
    report.add("j0_ladder_raising", residual(commutator(rep.J0, rep.Jp), rep.Jp), t)
    report.add("j0_ladder_lowering", residual(commutator(rep.J0, rep.Jm), -1.0 * rep.Jm), t)
    report.add(
        "structure_relation", residual(commutator(rep.Jp, rep.Jm), 2.0 * rep.J0), t,
        detail="[J+, J-] = 2 J0",
    )
    _annihilation(report, bundle)
    _casimir_central(report, casimir(rep, sc.tol, report), rep.Jp, rep.Jm, t)


def _qbracket_algebra(report: CheckReport, bundle: FamilyBundle) -> None:
    """[J+~, J-~] = [2 J0]_q and the casimir built from its antiderivative g."""
    sc, rep, triple, t = _spin(bundle)
    f, ms = structure_function_for(sc), rep.m_values()
    f_diag = from_diagonal(per_point(lambda fn: [fn(float(m)) for m in ms], f))
    report.add(
        "structure_relation", residual(triple.bracket, f_diag), t,
        detail="[J+~, J-~] = f(J0) with f = [2x]_q",
    )
    # ab_map's build solved g
    g = bundle.parts.g or per_point(lambda fn: discrete_antiderivative(fn, sc.j), f)
    c_up, c_down = _casimir_orderings(triple, per_point(lambda gf: gf.values, g))
    report.add("casimir_orderings", residual(c_up, c_down), t)
    _casimir_central(report, c_up, triple.Jp, triple.Jm, t)


def _matches_suq2(report: CheckReport, bundle: FamilyBundle) -> None:
    sc, rep, triple, t = _spin(bundle)
    if sc.q is not None:  # a phase-valued q has no SU_q(2) counterpart here
        ref_p, ref_m = _place_ladders(per_point(lambda q: _suq2_entries(rep, q), sc.q))
        report.add(
            "matches_suq2_representation",
            _larger(residual(triple.Jp, ref_p), residual(triple.Jm, ref_m)),
            t,
            detail="hermitian map at f = [2x]_q equals the SU_q(2) elements",
        )


def _alternate_split(report: CheckReport, bundle: FamilyBundle) -> None:
    sc, rep, triple, t = _spin(bundle)
    other = "left" if sc.split == "symmetric" else "symmetric"
    try:
        alt = build_split_deformation(rep, bundle.parts.g, other, tol=sc.tol)
    except (SplitError, ArithmeticError) as exc:
        report.add("alternate_split_structure", float("inf"), t, detail=str(exc))
        return
    report.add(
        "alternate_split_structure",
        residual(alt.bracket, triple.bracket),
        t,
        detail=f"{other} split realizes the same commutator",
    )


def _dynamics_suite(
    report: CheckReport, bundle: FamilyBundle, jp: Operator, jm: Operator, conserved: Operator
) -> None:
    t = bundle.scenario.tol.for_dim(jp.dim)
    lam = bundle.eigenvalue
    report.add(
        "raising_eigenoperator",
        eigenoperator_residual(jp, bundle.hamiltonian, lam),
        t,
        detail=f"(1/i)[J+~, H] = ({lam.real:g}{lam.imag:+g}i) J+~",
        category="dynamics",
    )
    report.add(
        "lowering_eigenoperator",
        eigenoperator_residual(jm, bundle.hamiltonian, np.conj(lam)),
        t,
        category="dynamics",
    )
    report.add(
        "weight_conserved",
        eigenoperator_residual(conserved, bundle.hamiltonian, 0.0),
        t,
        detail=f"{conserved.label or 'J0~'} is a constant of the motion",
        category="dynamics",
    )


def _spin_dynamics(report: CheckReport, bundle: FamilyBundle) -> None:
    """The phase derivation of the ladder dynamics, then the dynamics itself."""
    triple = bundle.parts.triple
    report.extend(spin_ladder_from_phase(bundle.parts.frame.motion, triple.Jp, triple.Jm))
    _dynamics_suite(report, bundle, triple.Jp, triple.Jm, triple.J0)


_OSCILLATOR_DETAILS = {
    "phase_equation_with_boundary": "(1/i)[U,H] = -i*omega*(U - (s+1)e^{i(s+1)phi0}|s><0|)",
    "boundary_term_annihilated": "|s><0| sqrt(level weights) = 0",
    "ladder_dynamics_from_phase": "dU/dt * modulus reproduces the annihilation dynamics",
    "phase_equation_without_boundary": (
        "negative control: the bare eigen-relation fails for U itself"
    ),
}


def _oscillator_checks(algebra: Callable[[CheckReport, FamilyBundle, float], Operator]) -> Suite:
    """The check function of the plain and the q oscillator, a = U * modulus.

    ``algebra`` adds the variant's own polar and ladder checks and returns
    the modulus; the phase U closes its shift with the corner
    (s+1) e^{i(s+1)phi0} |s><0|.
    """

    def check(report: CheckReport, bundle: FamilyBundle) -> None:
        sc = bundle.scenario
        osc, a, adag = bundle.parts
        t = sc.tol.for_dim(osc.s + 1)
        phase = osc.U
        _unitarity(report, phase.U, t)
        modulus = algebra(report, bundle, t)
        motion = PhaseMotion(
            phase.U, phase.boundary, bundle.hamiltonian, sc.omega, t, _OSCILLATOR_DETAILS
        )
        report.extend(ladder_from_phase(motion, (None, modulus), a))
        _dynamics_suite(report, bundle, a, adag, osc.N)

    return check


def _number_algebra(report: CheckReport, bundle: FamilyBundle, t: float) -> Operator:
    osc, a, adag = bundle.parts
    sqrt_n = psd_sqrt(osc.N, bundle.scenario.tol)
    report.add(
        "polar_product", residual(a, osc.U.U @ sqrt_n), t,
        detail="a = U sqrt(N) exactly", category="phase",
    )
    report.add(
        "number_ladder_commutator",
        residual(commutator(a, osc.N), a),
        t,
        detail="[a, N] = a with no boundary term in finite dimension",
    )
    report.add("adjoint_pair", residual(adag, a.adjoint()), t)
    return sqrt_n


def _q_algebra(report: CheckReport, bundle: FamilyBundle, t: float) -> Operator:
    qosc, a_q, a_qdag = bundle.parts
    report.add(
        "radicand_positivity", max(0.0, -min(qosc.radicands)), t,
        detail=f"level radicands {tuple(round(v, 12) for v in qosc.radicands)} all >= 0",
    )
    modulus = from_diagonal(np.sqrt(qosc.radicands))
    report.add(
        "polar_product", residual(a_q, qosc.U.U @ modulus), t,
        detail="a_q = U sqrt([N-n0]_q + [n0]_q)", category="phase",
    )
    report.add("adjoint_pair", residual(a_qdag, a_q.adjoint()), t)
    report.add("number_ladder_commutator", residual(commutator(a_q, qosc.N), a_q), t)
    return modulus


_TWO_MODE_DETAILS = {
    "ladder_dynamics_from_phase": (
        "the two-mode phase equation reproduces dJ+~/dt = -i(omega2-omega1)J+~"
    ),
    "phase_equation_without_boundary": (
        "negative control: V itself is no eigen-operator; wrap terms remain"
    ),
}


def _check_jordan_schwinger(report: CheckReport, bundle: FamilyBundle) -> None:
    sc = bundle.scenario
    triple, mode = bundle.parts
    dim = triple.dim
    t = sc.tol.for_dim(dim)
    delta = sc.omega2 - sc.omega1

    report.extend(triple.checks)  # the ladder relations and the adjoint pair
    report.add(
        "vacuum_annihilated", _image_norm(triple.Jp, 0), t,
        detail="J+~ kills |0> (x) |0> because b_q does",
    )
    report.add(
        "frequency_condition",
        abs(delta - sc.muB),
        t,
        detail="omega2 - omega1 = muB matches the spin precession rate",
        category="dynamics",
    )
    _dynamics_suite(report, bundle, triple.Jp, triple.Jm, triple.J0)

    # Two-mode phase derivation: J+~ = L V R with V = U_A^dag (x) U_B and
    # diagonal moduli L = sqrt(D_A) (x) I, R = I (x) sqrt(D_B); V's wrap
    # terms have no single corner, so no boundary checks, and the control
    # must fail even at omega1 = omega2.
    eye = identity(mode.s + 1)
    root = from_diagonal(np.sqrt(mode.radicands))
    v = _kron(mode.U.U.adjoint(), mode.U.U, "V")
    left, right = _kron(root, eye), _kron(eye, root)
    report.add(
        "two_mode_polar_product",
        residual(left @ v @ right, triple.Jp),
        t,
        detail="J+~ factors through the relative phase unitary U_A^dag (x) U_B",
        category="derivation",
    )
    motion = PhaseMotion(v, None, bundle.hamiltonian, delta, t, _TWO_MODE_DETAILS)
    report.extend(ladder_from_phase(motion, (left, right), triple.Jp))


_LADDER = _from_builder("j0_ladder_raising", "j0_ladder_lowering")
# a builder records the adjoint check only for a hermitian pair
_ADJOINT = _from_builder("adjoint_pair")
_WITTEN = _from_builder(
    "witten_relation_raising", "witten_relation_pair", "witten_relation_lowering"
)

FAMILY_TABLE = {
    "su2": Family(
        ("j", "theta0", "muB"), _build_su2, _in_order(_phase_suite, _su2_algebra, _spin_dynamics)
    ),
    "suq2": Family(("j", "q", "theta0", "muB"), _build_suq2, _in_order(
        _phase_suite, _LADDER, _annihilation, _qbracket_algebra, _ADJOINT, _spin_dynamics
    )),
    "witten": Family(("j", "r", "theta0", "muB"), _build_witten, _in_order(
        _phase_suite, _WITTEN, _ADJOINT, _annihilation, _spin_dynamics
    )),
    "ab_map": Family(("j", "q", "theta0", "muB", "split"), _build_ab_map, _in_order(
        _phase_suite, _LADDER, _annihilation, _qbracket_algebra, _ADJOINT, _alternate_split,
        _spin_dynamics,
    )),
    "f_deform": Family(("j", "theta0", "muB", "f_coeff"), _build_f_deform, _in_order(
        _phase_suite, _LADDER, _annihilation, _from_builder("structure_relation"), _ADJOINT,
        _spin_dynamics,
    )),
    "hermitian_f": Family(("j", "q", "q_phase", "theta0", "muB"), _build_hermitian_f, _in_order(
        _phase_suite, _LADDER, _annihilation, _qbracket_algebra, _matches_suq2, _ADJOINT,
        _spin_dynamics,
    )),
    "oscillator": Family(
        ("s", "phi0", "omega"), _build_oscillator, _oscillator_checks(_number_algebra)
    ),
    "q_oscillator": Family(
        ("s", "phi0", "omega"), _build_q_oscillator, _oscillator_checks(_q_algebra)
    ),
    "jordan_schwinger": Family(
        ("s", "phi0", "omega1", "omega2", "muB"), _build_jordan_schwinger, _check_jordan_schwinger
    ),
}
