"""Finite oscillator, q-oscillator positivity, and the two-mode realization."""

from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    ParameterError,
    ShapeError,
    Tolerance,
    build_deformation,
    build_finite_oscillator,
    build_phase_operator,
    build_q_oscillator,
    build_su2,
    commutator,
    derive_ladder_dynamics_from_phase,
    dipole_hamiltonian,
    identity,
    jordan_schwinger,
    residual,
    two_mode_hamiltonian,
)
from spinphase.scenarios import build_bundle, resolve_scenario

TOL = Tolerance()
LEVELS = [1, 2, 3, 7]


class TestFiniteOscillator:
    def test_s2_phase_is_cyclic_permutation(self):
        osc = build_finite_oscillator(2)
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        assert np.allclose(osc.U.mat, perm, atol=1e-15)

    def test_s2_annihilation_elements(self):
        osc = build_finite_oscillator(2)
        assert osc.a.mat[0, 1] == pytest.approx(1.0)
        assert osc.a.mat[1, 2] == pytest.approx(np.sqrt(2.0))
        # the corner contribution is multiplied by sqrt(0) and vanishes
        assert abs(osc.a.mat[2, 0]) == 0.0

    def test_s1_qubit_truncation(self):
        osc = build_finite_oscillator(1)
        assert np.allclose(osc.a.mat, [[0, 1], [0, 0]], atol=1e-15)

    @pytest.mark.parametrize("s", LEVELS)
    def test_phase_unitarity(self, s):
        osc = build_finite_oscillator(s, 0.4)
        u = osc.U
        t = TOL.for_dim(s + 1)
        assert residual(u @ u.adjoint(), identity(s + 1)) < t

    @pytest.mark.parametrize("s", LEVELS)
    def test_number_commutator_exact(self, s):
        # [a, N] = a with no boundary term; only the phase operator carries one
        osc = build_finite_oscillator(s, 0.7)
        assert residual(commutator(osc.a, osc.N), osc.a) < TOL.for_dim(s + 1)

    def test_vacuum_annihilated(self):
        osc = build_finite_oscillator(4)
        vac = np.zeros(5, dtype=complex)
        vac[0] = 1.0
        assert np.linalg.norm(osc.a.apply(vac)) == 0.0

    def test_adjoint_is_creation(self):
        osc = build_finite_oscillator(3)
        assert np.array_equal(osc.adag.mat, osc.a.mat.conj().T)

    def test_rejects_s_below_one(self):
        with pytest.raises(ParameterError):
            build_finite_oscillator(0)

    @pytest.mark.parametrize("s", LEVELS)
    def test_phase_equation_boundary_structure(self, s):
        # [U, N] = U - (s+1) e^{i(s+1)phi0} |s><0|, and sqrt(N) kills |s><0|
        phi0 = 0.3
        osc = build_finite_oscillator(s, phi0)
        u = osc.U
        dim = s + 1
        boundary = np.zeros((dim, dim), dtype=complex)
        boundary[dim - 1, 0] = dim * np.exp(1j * dim * phi0)
        lhs = commutator(u, osc.N).mat
        assert np.allclose(lhs, u.mat - boundary, atol=1e-13)
        sqrt_n = np.diag(np.sqrt(np.arange(dim, dtype=float)))
        assert np.linalg.norm(boundary @ sqrt_n) == 0.0


class TestQOscillator:
    def test_s3_radicands(self):
        qosc = build_q_oscillator(3)
        assert np.allclose(qosc.weights, (0.0, 1.0, 2.0, 1.0), atol=1e-12)

    def test_s3_ladder_elements(self):
        qosc = build_q_oscillator(3)
        assert qosc.a.mat[0, 1] == pytest.approx(1.0)
        assert qosc.a.mat[1, 2] == pytest.approx(np.sqrt(2.0))
        assert qosc.a.mat[2, 3] == pytest.approx(1.0)

    def test_s3_shifted_number_operator(self):
        assert build_q_oscillator(3).params == {"n0": 1.0, "q_arg": np.pi / 2}
        bundle = build_bundle(resolve_scenario({"family": "q_oscillator", "s": 3}))
        nprime = bundle.operators["Nprime"]
        assert nprime.label == "N'"
        assert np.allclose(nprime.mat, np.diag([-1.0, 0.0, 1.0, 2.0]), atol=1e-15)

    @pytest.mark.parametrize("s", [2, 3, 4, 7])
    def test_positivity(self, s):
        qosc = build_q_oscillator(s)
        assert min(qosc.weights) >= -TOL.for_dim(s + 1)

    def test_s1_hits_singular_bracket(self):
        # n0 = 1/2 and q = exp(i*pi) = -1: the smallest valid s is 2
        with pytest.raises(ParameterError):
            build_q_oscillator(1)

    def test_adjoint_pair(self):
        qosc = build_q_oscillator(4)
        assert np.array_equal(qosc.adag.mat, qosc.a.mat.conj().T)

    def test_number_commutator_exact(self):
        qosc = build_q_oscillator(3)
        assert residual(commutator(qosc.a, qosc.N), qosc.a) < TOL.for_dim(4)


class TestJordanSchwinger:
    def test_product_dimension(self):
        triple = jordan_schwinger(build_q_oscillator(3), build_q_oscillator(3))
        assert triple.dim == 16

    def test_ladder_relations(self):
        triple = jordan_schwinger(build_q_oscillator(3), build_q_oscillator(3))
        t = TOL.for_dim(16)
        assert residual(commutator(triple.J0, triple.Jp), triple.Jp) < t
        assert residual(commutator(triple.J0, triple.Jm), -1.0 * triple.Jm) < t

    def test_vacuum_annihilated(self):
        triple = jordan_schwinger(build_q_oscillator(3), build_q_oscillator(3))
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0  # |0> (x) |0> at row-major index 0
        assert np.linalg.norm(triple.Jp.apply(vac)) == 0.0

    def test_adjoint_pair(self):
        triple = jordan_schwinger(build_q_oscillator(2), build_q_oscillator(2))
        assert residual(triple.Jm, triple.Jp.adjoint()) < TOL.for_dim(9)

    def test_mode_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            jordan_schwinger(build_q_oscillator(2), build_q_oscillator(3))

    def test_j0_is_half_number_difference(self):
        s = 2
        triple = jordan_schwinger(build_q_oscillator(s), build_q_oscillator(s))
        n = np.diag(np.arange(s + 1.0))
        eye = np.eye(s + 1)
        oracle = (np.kron(n, eye) - np.kron(eye, n)) / 2.0
        assert np.allclose(triple.J0.mat, oracle, atol=1e-15)

    @pytest.mark.parametrize("s", [3, 12])
    def test_sectors_are_spin_ladders(self, s):
        # J+~ conserves n = n1 + n2: its block on sector n, ascending n1 (so
        # ascending m = n1 - n/2), is the spin-k/2 deformation with entries
        # sqrt(r[n1+1]) sqrt(r[n-n1]), and H = omega1 N1 + omega2 N2 is there
        # a constant minus (omega2 - omega1) m: the spin frame at muB = omega2 - omega1
        mode = build_q_oscillator(s)
        r, jp = mode.weights, jordan_schwinger(mode, mode).Jp.mat
        omega1, omega2 = 1.0, 2.5
        h = two_mode_hamiltonian(s, omega1, omega2).op.mat
        for n in range(2 * s + 1):
            n1s = range(max(0, n - s), min(n, s) + 1)
            idx = np.ix_(*[[n1 * (s + 1) + n - n1 for n1 in n1s]] * 2)
            block = np.ascontiguousarray(jp[idx])
            if len(n1s) == 1:  # n = 0 or 2s: one state, J+~ is zero there
                assert block.view(np.uint64).tolist() == [[0, 0]]
                continue
            rep = build_su2(Fraction(len(n1s) - 1, 2))
            entries = [np.sqrt(r[n1 + 1]) * np.sqrt(r[n - n1]) for n1 in n1s[:-1]]
            triple = build_deformation(rep, entries, provenance={"map": "sector", "params": {}})
            assert np.array_equal(block.view(np.uint64), triple.Jp.mat.view(np.uint64))
            ham = dipole_hamiltonian(rep.J0, omega2 - omega1)
            assert np.allclose(np.diag(h[idx] - ham.op.mat), h[idx][0, 0] - ham.op.mat[0, 0])
            phase = build_phase_operator(rep.j, 0.7)
            assert derive_ladder_dynamics_from_phase(rep, phase, triple, ham).all_pass
