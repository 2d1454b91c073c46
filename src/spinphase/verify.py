"""Per-family check suites driven by the verify/sweep commands.

Each suite covers the family's defining algebra, the polar/phase identities
of the underlying representation, the eigen-operator dynamics, the
phase-operator derivation of those dynamics, and the negative control
(the phase equation with its boundary term removed must fail).
"""

from __future__ import annotations

import numpy as np

from .deform import (
    DeformedTriple,
    build_split_deformation,
    build_suq2,
    discrete_antiderivative,
    witten_relation_tolerance,
)
from .dynamics import (
    NEGATIVE_CONTROL_FLOOR,
    derive_ladder_dynamics_from_phase,
    eigenoperator_residual,
    heisenberg_derivative,
)
from .operators import (
    NegativeNormError,
    Operator,
    SplitError,
    commutator,
    from_diagonal,
    identity,
    matrix_unit,
    psd_sqrt,
    r_commutator,
    residual,
)
from .phase import build_phase_operator, phase_number_commutator_residual, polar_decompose
from .report import CheckReport
from .scenarios import SPIN_FAMILIES, FamilyBundle, Scenario, build_bundle, structure_function_for
from .su2 import casimir

__all__ = ["run_verify", "collect_checks"]


def _phase_suite(report: CheckReport, bundle: FamilyBundle) -> None:
    """Unitarity, the four polar reconstructions, and the phase commutator."""
    rep = bundle.rep
    theta0 = bundle.scenario.theta0
    t = bundle.scenario.tol.for_dim(rep.dim)
    phase = build_phase_operator(rep.j, theta0)
    u, udag = phase.U, phase.adjoint()
    eye = identity(rep.dim)
    report.add(
        "phase_unitarity",
        max(residual(u @ udag, eye), residual(udag @ u, eye)),
        t,
        category="phase",
    )
    mod_p, mod_m, _ = polar_decompose(rep, theta0, bundle.scenario.tol)
    report.add("polar_raising_left", residual(mod_p @ u, rep.Jp), t, category="phase")
    report.add("polar_raising_right", residual(u @ mod_m, rep.Jp), t, category="phase")
    report.add("polar_lowering_left", residual(mod_m @ udag, rep.Jm), t, category="phase")
    report.add("polar_lowering_right", residual(udag @ mod_p, rep.Jm), t, category="phase")
    report.add(
        "phase_number_commutator",
        phase_number_commutator_residual(rep.j, theta0),
        t,
        detail="[exp(+-i*phi), J0] matches its closed form incl. the corner term",
        category="phase",
    )


def _ladder_suite(
    report: CheckReport, j0: Operator, jp: Operator, jm: Operator, t: float
) -> None:
    report.add("j0_ladder_raising", residual(commutator(j0, jp), jp), t)
    report.add("j0_ladder_lowering", residual(commutator(j0, jm), -1.0 * jm), t)


def _annihilation_suite(
    report: CheckReport, jp: Operator, jm: Operator, t: float
) -> None:
    dim = jp.dim
    top = np.zeros(dim, dtype=complex)
    top[-1] = 1.0
    bottom = np.zeros(dim, dtype=complex)
    bottom[0] = 1.0
    report.add(
        "top_state_annihilated", float(np.linalg.norm(jp.apply(top))), t,
        detail="J+~ |j, j> = 0",
    )
    report.add(
        "bottom_state_annihilated", float(np.linalg.norm(jm.apply(bottom))), t,
        detail="J-~ |j, -j> = 0",
    )


def _dynamics_suite(
    report: CheckReport,
    bundle: FamilyBundle,
    jp: Operator,
    jm: Operator,
    conserved: Operator,
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


def _casimir_residuals(
    report: CheckReport,
    name: str,
    c_up: Operator,
    c_down: Operator,
    jp: Operator,
    jm: Operator,
    t: float,
    scalar: Operator | None = None,
) -> None:
    report.add(f"{name}_orderings", residual(c_up, c_down), t)
    if scalar is not None:
        report.add(f"{name}_scalar", residual(c_up, scalar), t)
    report.add(
        f"{name}_central",
        max(residual(commutator(c_up, jp), 0.0 * jp), residual(commutator(c_up, jm), 0.0 * jm)),
        t,
    )


def collect_checks(bundle: FamilyBundle) -> CheckReport:
    """Run the full invariant suite for an already-built bundle."""
    sc = bundle.scenario
    report = CheckReport()

    if sc.family in SPIN_FAMILIES:
        rep = bundle.rep
        t = sc.tol.for_dim(rep.dim)
        _phase_suite(report, bundle)

        if sc.family == "su2":
            _ladder_suite(report, rep.J0, rep.Jp, rep.Jm, t)
            report.add(
                "structure_relation",
                residual(commutator(rep.Jp, rep.Jm), 2.0 * rep.J0),
                t,
                detail="[J+, J-] = 2 J0",
            )
            _annihilation_suite(report, rep.Jp, rep.Jm, t)
            c = casimir(rep, sc.tol)
            c_down = rep.Jp @ rep.Jm + rep.J0 @ rep.J0 - rep.J0
            scalar = from_diagonal([rep.casimir_value] * rep.dim)
            _casimir_residuals(report, "casimir", c, c_down, rep.Jp, rep.Jm, t, scalar)
            report.extend(
                derive_ladder_dynamics_from_phase(rep, None, sc.theta0, bundle.hamiltonian, sc.tol)
            )
            _dynamics_suite(report, bundle, rep.Jp, rep.Jm, rep.J0)
            return report

        if sc.family == "witten":
            gens = bundle.witten
            r = gens.r
            t_w = witten_relation_tolerance(gens, t)
            report.add(
                "witten_relation_raising",
                residual(r_commutator(gens.W0, gens.Wp, r), gens.Wp),
                t_w,
                detail="[W0, W+]_r = W+",
            )
            report.add(
                "witten_relation_pair",
                residual(r_commutator(gens.Wp, gens.Wm, 1.0 / r**2), gens.W0),
                t_w,
                detail="[W+, W-]_{1/r^2} = W0",
            )
            report.add(
                "witten_relation_lowering",
                residual(r_commutator(gens.Wm, gens.W0, r), gens.Wm),
                t_w,
                detail="[W-, W0]_r = W-",
            )
            report.add("adjoint_pair", residual(gens.Wm, gens.Wp.adjoint()), t)
            _annihilation_suite(report, gens.Wp, gens.Wm, t)
            as_triple = DeformedTriple(
                gens.Wp, gens.Wm, gens.W0,
                {"map": "witten", "params": {"r": gens.r}}, True,
            )
            report.extend(
                derive_ladder_dynamics_from_phase(
                    rep, as_triple, sc.theta0, bundle.hamiltonian, sc.tol
                )
            )
            _dynamics_suite(report, bundle, gens.Wp, gens.Wm, gens.W0)
            return report

        triple = bundle.triple
        undeformed_j0 = rep.J0 if sc.family == "f_deform" else triple.J0
        _ladder_suite(report, undeformed_j0, triple.Jp, triple.Jm, t)
        _annihilation_suite(report, triple.Jp, triple.Jm, t)

        if sc.family in ("suq2", "hermitian_f", "ab_map"):
            f = structure_function_for(sc)
            f_diag = from_diagonal([f(float(m)) for m in rep.m_values()])
            report.add(
                "structure_relation",
                residual(commutator(triple.Jp, triple.Jm), f_diag),
                t,
                detail="[J+~, J-~] = f(J0) with f = [2x]_q",
            )
            g = discrete_antiderivative(f, sc.j)
            c_up = triple.Jm @ triple.Jp + _g_diag(g, rep, 0.0)
            c_down = triple.Jp @ triple.Jm + _g_diag(g, rep, -1.0)
            _casimir_residuals(report, "casimir", c_up, c_down, triple.Jp, triple.Jm, t)
        else:  # f_deform: verified identities live in the builder; re-check the pair one
            coeff = sc.f_coeff

            def w(m: float) -> float:
                return 1.0 + coeff * m

            ms = rep.m_values()
            lhs = commutator(triple.Jp, triple.Jm)
            coeff_diag = from_diagonal([1.0 - w(m + 1.0) / w(m - 1.0) for m in ms])
            shift_diag = from_diagonal([w(m + 1.0) for m in ms])
            rhs = coeff_diag @ (triple.Jp @ triple.Jm) + 2.0 * (shift_diag @ triple.J0)
            report.add(
                "structure_relation",
                residual(lhs, rhs),
                t,
                detail="[J+~, J-~] matches the scaled-deformation closed form",
            )

        if sc.family == "hermitian_f" and sc.q is not None:
            ref = build_suq2(sc.j, sc.q, sc.tol)
            report.add(
                "matches_suq2_representation",
                max(residual(triple.Jp, ref.Jp), residual(triple.Jm, ref.Jm)),
                t,
                detail="hermitian map at f = [2x]_q equals the SU_q(2) elements",
            )

        if triple.hermitian_pair:
            report.add("adjoint_pair", residual(triple.Jm, triple.Jp.adjoint()), t)

        if sc.family == "ab_map":
            other = "left" if sc.split == "symmetric" else "symmetric"
            try:
                g = bundle.grid_g
                alt = build_split_deformation(rep, g, other, tol=sc.tol)
                report.add(
                    "alternate_split_structure",
                    residual(commutator(alt.Jp, alt.Jm), commutator(triple.Jp, triple.Jm)),
                    t,
                    detail=f"{other} split realizes the same commutator",
                )
            except SplitError as exc:
                report.add(
                    "alternate_split_structure", float("inf"), t, detail=str(exc)
                )

        report.extend(
            derive_ladder_dynamics_from_phase(rep, triple, sc.theta0, bundle.hamiltonian, sc.tol)
        )
        _dynamics_suite(report, bundle, triple.Jp, triple.Jm, triple.J0)
        return report

    if sc.family == "oscillator":
        return _oscillator_checks(report, bundle)
    if sc.family == "q_oscillator":
        return _q_oscillator_checks(report, bundle)
    return _jordan_schwinger_checks(report, bundle)


def _g_diag(g, rep, shift: float) -> Operator:
    return from_diagonal([g.value(float(m) + shift) for m in rep.m_values()])


def _oscillator_phase_checks(
    report: CheckReport,
    u: Operator,
    corner: Operator,
    modulus: Operator,
    ladder: Operator,
    omega: float,
    h,
    t: float,
) -> None:
    """Phase-equation checks shared by the plain and the q oscillator."""
    numeric = heisenberg_derivative(u, h)
    analytic = (-1j * omega) * (u - corner)
    report.add(
        "phase_equation_with_boundary",
        residual(numeric, analytic),
        t,
        detail="(1/i)[U,H] = -i*omega*(U - (s+1)e^{i(s+1)phi0}|s><0|)",
        category="derivation",
    )
    report.add(
        "boundary_term_annihilated",
        (corner @ modulus).norm(),
        t,
        detail="|s><0| sqrt(level weights) = 0",
        category="derivation",
    )
    report.add(
        "ladder_dynamics_from_phase",
        residual(numeric @ modulus, (-1j * omega) * ladder),
        t,
        detail="dU/dt * modulus reproduces the annihilation dynamics",
        category="derivation",
    )
    report.add(
        "phase_equation_without_boundary",
        residual(numeric, (-1j * omega) * u),
        NEGATIVE_CONTROL_FLOOR * abs(omega),
        detail="negative control: the bare eigen-relation fails for U itself",
        category="control",
        mode="ge",
    )


def _oscillator_checks(report: CheckReport, bundle: FamilyBundle) -> CheckReport:
    sc = bundle.scenario
    osc = bundle.oscillator
    dim = osc.s + 1
    t = sc.tol.for_dim(dim)
    eye = identity(dim)
    u = osc.U.U
    report.add(
        "phase_unitarity",
        max(residual(u @ u.adjoint(), eye), residual(u.adjoint() @ u, eye)),
        t,
        category="phase",
    )
    sqrt_n = psd_sqrt(osc.N, sc.tol)
    report.add(
        "polar_product", residual(osc.a, u @ sqrt_n), t,
        detail="a = U sqrt(N) exactly", category="phase",
    )
    report.add(
        "number_ladder_commutator",
        residual(commutator(osc.a, osc.N), osc.a),
        t,
        detail="[a, N] = a with no boundary term in finite dimension",
    )
    report.add("adjoint_pair", residual(osc.adag, osc.a.adjoint()), t)
    corner = matrix_unit(dim, dim - 1, 0, dim * np.exp(1j * dim * osc.phi0))
    _oscillator_phase_checks(
        report, u, corner, sqrt_n, osc.a, sc.omega, bundle.hamiltonian, t
    )
    _dynamics_suite(report, bundle, osc.a, osc.adag, osc.N)
    return report


def _q_oscillator_checks(report: CheckReport, bundle: FamilyBundle) -> CheckReport:
    sc = bundle.scenario
    qosc = bundle.oscillator
    dim = qosc.s + 1
    t = sc.tol.for_dim(dim)
    eye = identity(dim)
    u = qosc.U.U
    report.add(
        "phase_unitarity",
        max(residual(u @ u.adjoint(), eye), residual(u.adjoint() @ u, eye)),
        t,
        category="phase",
    )
    worst = max(0.0, -min(qosc.radicands))
    report.add(
        "radicand_positivity", worst, t,
        detail=f"level radicands {tuple(round(v, 12) for v in qosc.radicands)} all >= 0",
    )
    modulus = from_diagonal(np.sqrt(qosc.radicands))
    report.add(
        "polar_product", residual(qosc.a_q, u @ modulus), t,
        detail="a_q = U sqrt([N-n0]_q + [n0]_q)", category="phase",
    )
    report.add("adjoint_pair", residual(qosc.a_qdag, qosc.a_q.adjoint()), t)
    report.add(
        "number_ladder_commutator",
        residual(commutator(qosc.a_q, qosc.N), qosc.a_q),
        t,
    )
    corner = matrix_unit(dim, dim - 1, 0, dim * np.exp(1j * dim * qosc.phi0))
    _oscillator_phase_checks(
        report, u, corner, modulus, qosc.a_q, sc.omega, bundle.hamiltonian, t
    )
    _dynamics_suite(report, bundle, qosc.a_q, qosc.a_qdag, qosc.N)
    return report


def _jordan_schwinger_checks(report: CheckReport, bundle: FamilyBundle) -> CheckReport:
    sc = bundle.scenario
    triple = bundle.triple
    mode_a, mode_b = bundle.q_oscillators
    dim = triple.dim
    t = sc.tol.for_dim(dim)
    h = bundle.hamiltonian
    delta = sc.omega2 - sc.omega1

    _ladder_suite(report, triple.J0, triple.Jp, triple.Jm, t)
    report.add("adjoint_pair", residual(triple.Jm, triple.Jp.adjoint()), t)
    vacuum = np.zeros(dim, dtype=complex)
    vacuum[0] = 1.0
    report.add(
        "vacuum_annihilated",
        float(np.linalg.norm(triple.Jp.apply(vacuum))),
        t,
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
    # diagonal moduli L = sqrt(D_A) (x) I, R = I (x) sqrt(D_B).
    s_dim = mode_a.s + 1
    eye = np.eye(s_dim)
    v = Operator(np.kron(mode_a.U.U.adjoint().mat, mode_b.U.U.mat), "V")
    left = Operator(np.kron(np.diag(np.sqrt(mode_a.radicands)), eye))
    right = Operator(np.kron(eye, np.diag(np.sqrt(mode_b.radicands))))
    report.add(
        "two_mode_polar_product",
        residual(left @ v @ right, triple.Jp),
        t,
        detail="J+~ factors through the relative phase unitary U_A^dag (x) U_B",
        category="derivation",
    )
    dv = heisenberg_derivative(v, h)
    report.add(
        "ladder_dynamics_from_phase",
        residual(left @ dv @ right, (-1j * delta) * triple.Jp),
        t,
        detail="the two-mode phase equation reproduces dJ+~/dt = -i(omega2-omega1)J+~",
        category="derivation",
    )
    report.add(
        "phase_equation_without_boundary",
        residual(dv, (-1j * delta) * v),
        NEGATIVE_CONTROL_FLOOR * max(abs(delta), 1e-300),
        detail="negative control: V itself is no eigen-operator; wrap terms remain",
        category="control",
        mode="ge",
    )
    return report


def run_verify(sc: Scenario) -> tuple[CheckReport, FamilyBundle | None]:
    """Build the scenario and run its checks.

    Mathematical impossibilities during construction (negative norm, an
    impossible split) come back as a failed check instead of an exception,
    so the CLI can exit 1 with a report; genuine parameter errors propagate.
    """
    try:
        bundle = build_bundle(sc)
    except (NegativeNormError, SplitError) as exc:
        report = CheckReport()
        report.add(
            "construction",
            float("inf"),
            sc.tol.abs_tol,
            detail=str(exc),
        )
        return report, None
    return collect_checks(bundle), bundle
