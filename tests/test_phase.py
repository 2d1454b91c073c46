"""Phase operator structure, polar identities, and the corner-term algebra."""

from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    Operator,
    PhaseOperator,
    Tolerance,
    build_finite_oscillator,
    build_phase_operator,
    build_q_oscillator,
    build_su2,
    commutator,
    from_diagonal,
    identity,
    matrix_unit,
    phase_number_commutator_residual,
    polar_decompose,
    psd_sqrt,
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


def _bits(op):
    """Every bit of an operator's matrix and of what it stores, zero signs included."""
    stored = [] if op._offsets is None else op._data.view(np.uint64).tolist()
    return op._offsets, stored, np.ascontiguousarray(op.mat).view(np.uint64).tolist()


def _plus_zeros(op):
    """``_bits`` of op with each -0.0 made +0.0; adding +0.0 changes nothing else."""
    stored = [] if op._offsets is None else (op._data + 0.0).view(np.uint64).tolist()
    return op._offsets, stored, (op.mat + 0.0).view(np.uint64).tolist()


class TestOneConstructor:
    """The spin's phase unitary and boundary term come from one constructor,
    bit for bit the matrices each family used to build inline; the
    oscillators' are its adjoints."""

    @pytest.mark.parametrize("theta0", [0, 0.0, -0.0, 0.7, np.pi / 2, 2 * np.pi, 1e3])
    def test_spin_raising_shift(self, theta0):
        for dim in range(2, 102):
            phase = build_phase_operator(Fraction(dim - 1, 2), theta0)
            corner = [np.exp(1j * dim * theta0)]
            u = Operator._from_diagonals(dim, {-1: np.ones(dim - 1), dim - 1: corner})
            boundary = matrix_unit(dim, 0, dim - 1, dim * complex(np.exp(1j * dim * float(theta0))))
            assert _bits(phase.U) == _bits(u) and phase.U.label == "exp(i*phi)"
            assert _bits(phase.boundary) == _bits(boundary)

    @pytest.mark.parametrize("phi0", [0, 0.0, -0.0, 0.7, np.pi / 2, 2 * np.pi, 1e3])
    def test_oscillator_lowering_shift(self, phi0):
        # U and its corner are the spin phase's adjoints at theta0 = -phi0 with
        # every zero +0.0: the Fock-lowering shift the oscillators used to build
        # by hand, bit for bit, and a = U sqrt(weights)
        for s in range(1, 101):
            dim = s + 1
            spin = build_phase_operator(Fraction(s, 2), -phi0)
            u = Operator._from_diagonals(dim, {1: np.ones(s), -s: [np.exp(1j * dim * phi0)]})
            corner = matrix_unit(dim, s, 0, dim * np.exp(1j * dim * float(phi0)))
            builders = [build_finite_oscillator] + [build_q_oscillator] * (s > 1)
            for osc in (build(s, phi0) for build in builders):
                for got, want, by_hand in ((osc.U, spin.adjoint(), u),
                                           (osc.corner, spin.boundary.adjoint(), corner)):
                    assert _bits(got) == _plus_zeros(got) == _plus_zeros(want) == _bits(by_hand)
                assert osc.U.label == "exp(i*Phi)"
                a = osc.U @ from_diagonal(np.sqrt(osc.weights))
                assert _bits(osc.a) == _bits(a) and _bits(osc.adag) == _bits(a.adjoint())

    def test_a_hand_built_phase_has_the_spin_boundary(self):
        built = build_phase_operator("3/2", 0.7)
        by_hand = PhaseOperator(4, 0.7, built.U)
        assert _bits(by_hand.boundary) == _bits(built.boundary)
        assert by_hand.boundary.mat[0, 3] == 4 * by_hand.corner_phase


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
    """pinv(sqrt(J+J-)) J+ recovers exp(i*phi) except at its corner: the modulus
    has a zero eigenvalue at the bottom state, so the pseudo-inverse kills the
    row holding the corner, and the reference angle is lost."""

    @staticmethod
    def _miss(j, theta0):
        """exp(i*phi) minus the pseudo-inverse candidate, as a matrix."""
        rep = build_su2(j)
        candidate = np.linalg.pinv(psd_sqrt(rep.Jp @ rep.Jm).mat) @ rep.Jp.mat
        return build_phase_operator(j, theta0).U.mat - candidate

    def test_spin_half_candidate_misses_corner(self):
        diff = self._miss("1/2", 0.0)
        assert abs(diff[0, 1]) == pytest.approx(1.0)
        diff[0, 1] = 0.0
        assert np.linalg.norm(diff) < TOL.for_dim(2)

    def test_exactly_one_element_differs(self):
        diff = self._miss(1, 0.0)
        assert np.count_nonzero(np.abs(diff) > TOL.for_dim(3)) == 1
        assert abs(diff[0, 2]) == pytest.approx(1.0)

    def test_missing_element_is_reference_phase(self):
        theta0 = 0.77
        diff = self._miss("3/2", theta0)
        # the lost value is the corner phase exp(i*(2j+1)*theta0), here 2j+1 = 4
        assert diff[0, 3] == pytest.approx(np.exp(4j * theta0))

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
