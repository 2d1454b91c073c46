"""Acceptance suite: the nine exit criteria, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  All checks are property-based at desk scale and complete in a
few seconds on one core.
"""

from fractions import Fraction

import numpy as np

from spinphase import (
    build_finite_oscillator,
    build_hermitian_deformation,
    build_phase_operator,
    build_q_oscillator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    commutator,
    derive_ladder_dynamics_from_phase,
    dipole_hamiltonian,
    discrete_antiderivative,
    eigenoperator_residual,
    evolve,
    identity,
    jordan_schwinger,
    number_hamiltonian,
    phase_number_commutator_residual,
    polar_decompose,
    qbracket_structure,
    r_commutator,
    residual,
    two_mode_hamiltonian,
)
from spinphase.cli import main
from spinphase.deform import DeformedTriple

ALL_SPINS = [Fraction(k, 2) for k in range(1, 26)]
DYN_SPINS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]
ANGLES = [0.0, 0.3, np.pi / 2]


def announce(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_su2_suite():
    worst = 0.0
    for j in ALL_SPINS:
        rep = build_su2(j)
        tol = 1e-12 * rep.dim
        scalar = rep.casimir_value * identity(rep.dim)
        residuals = [
            residual(commutator(rep.J0, rep.Jp), rep.Jp),
            residual(commutator(rep.J0, rep.Jm), -1.0 * rep.Jm),
            residual(commutator(rep.Jp, rep.Jm), 2.0 * rep.J0),
            residual(rep.Jm @ rep.Jp + rep.J0 @ rep.J0 + rep.J0, scalar),
            residual(rep.Jp @ rep.Jm + rep.J0 @ rep.J0 - rep.J0, scalar),
        ]
        assert max(residuals) < tol, f"j={j}"
        worst = max(worst, max(residuals) / tol)
    announce(1, True, f"SU(2) relations for j=1/2..25/2, worst residual/tol {worst:.2e}")


def test_criterion_2_phase_suite():
    worst = 0.0
    for j in ALL_SPINS:
        rep = build_su2(j)
        tol = 1e-12 * rep.dim
        eye = identity(rep.dim)
        for theta0 in ANGLES:
            phase = build_phase_operator(rep.j, theta0)
            mod_p, mod_m = polar_decompose(rep, phase)
            u, udag = phase.U, phase.adjoint()
            residuals = [
                residual(u @ udag, eye),
                residual(udag @ u, eye),
                residual(mod_p @ u, rep.Jp),
                residual(u @ mod_m, rep.Jp),
                residual(mod_m @ udag, rep.Jm),
                residual(udag @ mod_p, rep.Jm),
                phase_number_commutator_residual(rep, phase),
            ]
            assert max(residuals) < tol, f"j={j}, theta0={theta0}"
            worst = max(worst, max(residuals) / tol)
    announce(2, True, f"phase suite over j and theta0 grids, worst residual/tol {worst:.2e}")


def _families(j):
    rep = build_su2(j)
    out = [("su2", rep.Jp, rep.Jm, rep.J0)]
    for q in (0.5, 1.1, 2.0):
        t = build_suq2(build_su2(j), q)
        out.append((f"suq2 q={q}", t.Jp, t.Jm, t.J0))
        h = build_hermitian_deformation(build_su2(j), qbracket_structure(q))
        out.append((f"hermitian q={q}", h.Jp, h.Jm, h.J0))
    for r in (0.8, 1.2):
        w = build_witten(build_su2(j), r)
        out.append((f"witten r={r}", w.Jp, w.Jm, w.J0))
    g = discrete_antiderivative(qbracket_structure(1.3), j)
    for split in ("left", "symmetric"):
        t = build_split_deformation(rep, g, split)
        out.append((f"ab_map {split}", t.Jp, t.Jm, t.J0))
    t = build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m)
    out.append(("f_deform", t.Jp, t.Jm, t.J0))
    return rep, out


def test_criterion_3_dynamics_invariance():
    muB = 1.0
    count = 0
    for j in DYN_SPINS:
        rep, families = _families(j)
        h = dipole_hamiltonian(rep.J0, muB)
        tol = 1e-12 * rep.dim
        for name, jp, jm, conserved in families:
            assert eigenoperator_residual(jp, h, -1j * muB) < tol, (j, name)
            assert eigenoperator_residual(jm, h, 1j * muB) < tol, (j, name)
            assert eigenoperator_residual(conserved, h, 0.0) < tol, (j, name)
            count += 1
    announce(3, True, f"identical linear dynamics across {count} family/spin combinations")


def test_criterion_4_phase_derivation_and_negative_control():
    muB = 1.0
    for j in DYN_SPINS:
        rep, families = _families(j)
        h = dipole_hamiltonian(rep.J0, muB)
        for name, jp, jm, conserved in families:
            triple = (
                None
                if name == "su2"
                else DeformedTriple(jp, jm, conserved, {"map": name, "params": {}}, False)
            )
            phase = build_phase_operator(rep.j, 0.3)
            report = derive_ladder_dynamics_from_phase(rep, phase, triple, h)
            assert report.all_pass, (j, name, [c.name for c in report.failures()])
    # negative control floor at j = 1/2
    rep = build_su2("1/2")
    report = derive_ladder_dynamics_from_phase(
        rep, build_phase_operator(rep.j, 0.0), None, dipole_hamiltonian(rep.J0, muB)
    )
    control = next(c for c in report if c.name == "phase_equation_without_boundary")
    assert control.residual >= 0.5
    announce(
        4,
        True,
        f"phase derivation passes everywhere; control residual {control.residual:.3f} >= 0.5",
    )


def test_criterion_5_limits():
    q_eps = 1.0 + 1e-6
    close = build_suq2(build_su2(2), q_eps)
    classical = build_su2(2)
    drift = residual(close.Jp, classical.Jp)
    assert drift < 1e-4

    r_eps = 1.0 + 1e-6
    gens = build_witten(build_su2(2), r_eps)
    pair_drift = residual(
        r_commutator(gens.Jp, gens.Jm, 1.0 / r_eps**2), commutator(gens.Jp, gens.Jm)
    )
    raise_drift = residual(
        r_commutator(gens.J0, gens.Jp, r_eps), commutator(gens.J0, gens.Jp)
    )
    assert max(pair_drift, raise_drift) < 1e-4
    announce(
        5,
        True,
        f"q->1 drift {drift:.2e} and r->1 bracket drift {max(pair_drift, raise_drift):.2e} < 1e-4",
    )


def test_criterion_6_hermitian_map_equivalence():
    worst = 0.0
    for j in [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]:
        for q in (0.5, 1.3, 2.0):
            herm = build_hermitian_deformation(build_su2(j), qbracket_structure(q))
            ref = build_suq2(build_su2(j), q)
            tol = 1e-12 * herm.dim
            gap = max(residual(herm.Jp, ref.Jp), residual(herm.Jm, ref.Jm))
            assert gap < tol, (j, q)
            worst = max(worst, gap / tol)
    announce(6, True, f"hermitian map equals SU_q(2) elementwise, worst residual/tol {worst:.2e}")


def test_criterion_7_oscillator_suite():
    for s in (1, 2, 3, 7):
        osc = build_finite_oscillator(s)
        omega = 1.0
        h = number_hamiltonian(osc.N, omega)
        tol = 1e-12 * (s + 1)
        assert eigenoperator_residual(osc.a, h, -1j * omega) < tol
        assert eigenoperator_residual(osc.adag, h, 1j * omega) < tol

    qosc = build_q_oscillator(3)
    assert np.allclose(qosc.radicands[1:], (1.0, 2.0, 1.0), atol=1e-12)

    s = 3
    muB = 1.0
    triple = jordan_schwinger(build_q_oscillator(s), build_q_oscillator(s))
    assert triple.dim == 16
    h2 = two_mode_hamiltonian(s, 1.0, 1.0 + muB)
    tol = 1e-12 * 16
    assert eigenoperator_residual(triple.Jp, h2, -1j * muB) < tol
    assert eigenoperator_residual(triple.Jm, h2, 1j * muB) < tol
    assert eigenoperator_residual(triple.J0, h2, 0.0) < tol
    announce(7, True, "oscillator dynamics exact; q-oscillator radicands (1,2,1); 16-dim JS matches")


def test_criterion_8_evolution():
    rep = build_su2("3/2")
    h = dipole_hamiltonian(rep.J0, 1.0)
    tol = 1e-12 * rep.dim
    assert residual(evolve(rep.Jp, h, np.pi), -1.0 * rep.Jp) < tol

    rng = np.random.default_rng(0)
    worst = 0.0
    for t1, t2 in rng.uniform(-5.0, 5.0, size=(100, 2)):
        composed = evolve(evolve(rep.Jp, h, t1), h, t2)
        direct = evolve(rep.Jp, h, t1 + t2)
        worst = max(worst, residual(composed, direct))
        worst = max(worst, abs(direct.norm() - rep.Jp.norm()))
        assert worst < tol
    announce(8, True, f"evolve(pi) = -J+, group law and norm over 100 random pairs, worst {worst:.2e}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    assert main(["verify", "--family", "suq2", "--j", "5/2", "--q", "1.3", "--muB", "1"]) == 0
    assert main(["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "3"]) == 1
    assert main(["verify", "--family", "su2", "--j", "0.4"]) == 2
    capsys.readouterr()

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        main(["verify", "--family", "suq2", "--j", "2", "--q", "0.5", "--report", str(path)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        main(["evolve", "--family", "su2", "--j", "1", "--t-max", "2.0", "--steps", "5",
              "--out", str(path)])
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()
    announce(9, True, "verify exit codes 0/1/2 and byte-identical reruns")
