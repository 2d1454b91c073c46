"""Phase operator structure, polar identities, and the corner-term algebra."""

from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    Tolerance,
    build_phase_operator,
    build_su2,
    commutator,
    identity,
    phase_number_commutator_residual,
    phase_recovery_ambiguity,
    polar_decompose,
    residual,
)

TOL = Tolerance()
SPINS = [Fraction(k, 2) for k in range(1, 26)]
ANGLES = [0.0, 0.3, np.pi / 2]


class TestBuildPhaseOperator:
    def test_spin_half_zero_angle(self):
        u = build_phase_operator("1/2", 0.0).U
        assert np.allclose(u.mat, [[0, 1], [1, 0]], atol=1e-15)

    def test_spin_one_cyclic_permutation(self):
        u = build_phase_operator(1, 0.0).U
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.allclose(u.mat, perm, atol=1e-15)

    def test_corner_phase_at_pi_half(self):
        phase = build_phase_operator("1/2", np.pi / 2)
        assert phase.U.mat[0, 1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("j", SPINS)
    @pytest.mark.parametrize("theta0", ANGLES)
    def test_unitarity(self, j, theta0):
        phase = build_phase_operator(j, theta0)
        t = TOL.for_dim(phase.dim)
        eye = identity(phase.dim)
        assert residual(phase.U @ phase.adjoint(), eye) < t
        assert residual(phase.adjoint() @ phase.U, eye) < t

    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(3, 2), Fraction(4)])
    @pytest.mark.parametrize("theta0", ANGLES)
    def test_cyclicity(self, j, theta0):
        phase = build_phase_operator(j, theta0)
        power = identity(phase.dim)
        for _ in range(phase.dim):
            power = power @ phase.U
        expected = phase.corner_phase * identity(phase.dim)
        assert residual(power, expected) < TOL.for_dim(phase.dim)


class TestPolarDecompose:
    def test_spin_half_factors(self):
        rep = build_su2("1/2")
        phase = build_phase_operator(rep.j, 0.9)
        mod_p, mod_m = polar_decompose(rep, phase)
        assert np.allclose(mod_p.mat, np.diag([0.0, 1.0]), atol=1e-14)
        assert np.allclose((mod_p @ phase.U).mat, [[0, 0], [1, 0]], atol=1e-14)

    @pytest.mark.parametrize("j", SPINS[:13])
    @pytest.mark.parametrize("theta0", ANGLES)
    def test_all_four_reconstructions(self, j, theta0):
        rep = build_su2(j)
        phase = build_phase_operator(rep.j, theta0)
        mod_p, mod_m = polar_decompose(rep, phase)
        u, udag = phase.U, phase.adjoint()
        t = TOL.for_dim(rep.dim)
        assert residual(mod_p @ u, rep.Jp) < t
        assert residual(u @ mod_m, rep.Jp) < t
        assert residual(mod_m @ udag, rep.Jm) < t
        assert residual(udag @ mod_p, rep.Jm) < t

    def test_reconstruction_independent_of_theta0(self):
        rep = build_su2(2)
        phase_a = build_phase_operator(rep.j, 0.0)
        mod_a, _ = polar_decompose(rep, phase_a)
        phase_b = build_phase_operator(rep.j, 1.1)
        mod_b, _ = polar_decompose(rep, phase_b)
        rebuilt_a = mod_a @ phase_a.U
        rebuilt_b = mod_b @ phase_b.U
        assert residual(rebuilt_a, rebuilt_b) < TOL.for_dim(rep.dim)


class TestPhaseNumberCommutator:
    def test_spin_half_closed_form(self):
        # oracle: 2x2 arithmetic done by hand / bare numpy
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        j0 = np.diag([-0.5, 0.5]).astype(complex)
        lhs = u @ j0 - j0 @ u
        assert np.allclose(lhs, [[0, 1], [-1, 0]], atol=1e-15)
        rep, phase = build_su2("1/2"), build_phase_operator("1/2", 0.0)
        assert phase_number_commutator_residual(rep, phase) < TOL.for_dim(2)

    @pytest.mark.parametrize("j", SPINS[:13])
    @pytest.mark.parametrize("theta0", ANGLES + [0.3])
    def test_identity_holds(self, j, theta0):
        rep, phase = build_su2(j), build_phase_operator(j, theta0)
        assert phase_number_commutator_residual(rep, phase) < TOL.for_dim(int(2 * j) + 1)

    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(3, 2), Fraction(3)])
    def test_corner_term_magnitude(self, j):
        # [U, J0] + U has a single nonzero element of magnitude 2j+1
        rep = build_su2(j)
        phase = build_phase_operator(j, 0.3)
        corner = commutator(phase.U, rep.J0) + phase.U
        dim = rep.dim
        assert abs(corner.mat[0, dim - 1]) == pytest.approx(dim)
        mask = np.ones((dim, dim), dtype=bool)
        mask[0, dim - 1] = False
        assert np.max(np.abs(corner.mat[mask])) < TOL.for_dim(dim)


class TestPhaseRecoveryAmbiguity:
    def test_spin_half_candidate_misses_corner(self):
        report = phase_recovery_ambiguity(build_su2("1/2"), build_phase_operator("1/2", 0.0))
        assert report.all_pass
        names = [c.name for c in report]
        assert "phase_recovery_corner_lost" in names

    def test_exactly_one_element_differs(self):
        rep = build_su2(1)
        report = phase_recovery_ambiguity(build_su2(1), build_phase_operator(1, 0.0))
        off = next(c for c in report if c.name == "phase_recovery_off_corner")
        corner = next(c for c in report if c.name == "phase_recovery_corner_lost")
        assert off.residual < TOL.for_dim(rep.dim)
        assert corner.residual == pytest.approx(1.0)

    def test_missing_element_is_reference_phase(self):
        theta0 = 0.77
        report = phase_recovery_ambiguity(build_su2("1/2"), build_phase_operator("1/2", theta0))
        corner = next(c for c in report if c.name == "phase_recovery_corner_lost")
        # the lost value is exp(i*2*theta0) for 2j+1 = 2; only its size is
        # observable from the report, and it is a pure phase
        assert corner.residual == pytest.approx(abs(np.exp(2j * theta0)))
        assert "exp(i*(2j+1)*theta0)" in corner.detail

    def test_candidate_reconstruction_oracle(self):
        # independent route: numpy pinv of the modulus applied to J+
        theta0 = 0.77
        rep = build_su2("1/2")
        u = build_phase_operator("1/2", theta0).U
        modulus = np.diag([0.0, 1.0])  # sqrt(J+J-) at j = 1/2
        candidate = np.linalg.pinv(modulus) @ rep.Jp.mat
        diff = u.mat - candidate
        assert diff[0, 1] == pytest.approx(np.exp(2j * theta0))
        diff[0, 1] = 0.0
        assert np.linalg.norm(diff) < 1e-14
