"""Core operator arithmetic, residual policy, and error contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    NotDiagonalError,
    NotPSDError,
    Operator,
    ParameterError,
    ShapeError,
    Tolerance,
    build_finite_oscillator,
    build_q_oscillator,
    build_su2,
    build_witten,
    commutator,
    diag_function,
    from_diagonal,
    identity,
    psd_sqrt,
    r_commutator,
    residual,
    zero,
)
from spinphase.operators import _product, _structured

TOL = Tolerance()


def random_operator(rng, dim):
    return Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


complex_matrices = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: random_operator(np.random.default_rng(seed), 4)
)


class TestOperator:
    def test_entries_are_square_and_counted(self):
        op = Operator(np.ones((3, 3)))
        assert op.dim == 3
        assert op.mat.size == op.dim**2

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            Operator(np.ones((2, 3)))

    def test_entries_read_only(self):
        op = identity(2)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_adjoint_involution_exact(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, 5)
        assert np.array_equal(op.adjoint().adjoint().mat, op.mat)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            identity(2) @ identity(3)
        with pytest.raises(ShapeError):
            residual(identity(2), identity(3))


class TestTolerance:
    def test_scales_with_dim(self):
        assert Tolerance(1e-12).for_dim(6) == pytest.approx(6e-12)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            Tolerance(-1e-3)


class TestCommutator:
    def test_spin_half_ladder_pair(self):
        rep = build_su2("1/2")
        expected = np.diag([-1.0, 1.0]).astype(complex)
        assert np.allclose(commutator(rep.Jp, rep.Jm).mat, expected, atol=1e-15)

    def test_identity_commutes(self):
        rep = build_su2(1)
        assert residual(commutator(identity(3), rep.Jp), zero(3)) == 0.0

    def test_j0_raises_jp_spin_one(self):
        # independent oracle: explicit j=1 matrices multiplied with bare numpy
        s2 = np.sqrt(2.0)
        jp = np.array([[0, 0, 0], [s2, 0, 0], [0, s2, 0]], dtype=complex)
        j0 = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        oracle = j0 @ jp - jp @ j0
        rep = build_su2(1)
        assert np.allclose(commutator(rep.J0, rep.Jp).mat, oracle, atol=1e-15)
        assert np.allclose(oracle, jp, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(complex_matrices, complex_matrices)
    def test_antisymmetry_exact(self, a, b):
        assert np.array_equal(commutator(a, b).mat, -commutator(b, a).mat)


class TestRCommutator:
    @settings(max_examples=30, deadline=None)
    @given(complex_matrices, complex_matrices)
    def test_r_one_reduces_to_commutator(self, a, b):
        assert np.array_equal(r_commutator(a, b, 1.0).mat, commutator(a, b).mat)

    def test_scalar_case(self):
        got = r_commutator(identity(2), identity(2), 2.0)
        assert np.allclose(got.mat, 1.5 * np.eye(2), atol=1e-15)

    def test_zero_r_rejected(self):
        with pytest.raises(ParameterError):
            r_commutator(identity(2), identity(2), 0.0)

    def test_witten_defining_relation(self):
        gens = build_witten(build_su2(1), 1.2)
        assert residual(r_commutator(gens.J0, gens.Jp, 1.2), gens.Jp) < TOL.for_dim(3)


class TestDiagFunction:
    def test_identity_map(self):
        rep = build_su2(1)
        assert residual(diag_function(lambda x: x, rep.J0), rep.J0) == 0.0

    def test_quadratic_on_spin_half(self):
        rep = build_su2("1/2")
        got = diag_function(lambda x: x * (x + 1.0), rep.J0)
        assert np.allclose(got.mat, np.diag([-0.25, 0.75]), atol=1e-15)

    def test_power_weights_spin_one(self):
        rep = build_su2(1)
        got = diag_function(lambda x: 1.2 ** (-2.0 * x), rep.J0)
        assert np.allclose(got.mat, np.diag([36 / 25, 1.0, 25 / 36]), atol=1e-15)

    def test_rejects_non_diagonal(self):
        rep = build_su2(1)
        with pytest.raises(NotDiagonalError):
            diag_function(lambda x: x, rep.Jp)


class TestPsdSqrt:
    def test_diagonal_case(self):
        got = psd_sqrt(from_diagonal([4.0, 9.0]))
        assert np.allclose(got.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_ladder_modulus_spin_one(self):
        rep = build_su2(1)
        got = psd_sqrt(rep.Jp @ rep.Jm)
        assert np.allclose(got.mat, np.diag([0.0, np.sqrt(2), np.sqrt(2)]), atol=1e-14)

    def test_zero_operator(self):
        assert residual(psd_sqrt(zero(3)), zero(3)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(complex_matrices)
    def test_square_roundtrip(self, b):
        a = b.adjoint() @ b
        root = psd_sqrt(a)
        assert residual(root @ root, a) < 1e-10

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(from_diagonal([1.0, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(build_su2(1).Jp)

    def test_clamps_tiny_negative(self):
        got = psd_sqrt(from_diagonal([1.0, -1e-14]))
        assert np.allclose(got.mat, np.diag([1.0, 0.0]), atol=1e-7)


class TestResidual:
    def test_equal_operators(self):
        rep = build_su2(2)
        assert residual(rep.Jp, rep.Jp) == 0.0

    def test_identity_vs_zero(self):
        assert residual(identity(2), zero(2)) == pytest.approx(np.sqrt(2.0))

    def test_ladder_identity_high_spin(self):
        rep = build_su2("5/2")
        assert residual(commutator(rep.Jp, rep.Jm), 2.0 * rep.J0) < 1e-12 * 6


def assert_same_bits(got, want):
    """Equal bit for bit: values, NaN payloads and the signs of zeros."""
    got_bits = np.ascontiguousarray(got).view(np.uint64)
    want_bits = np.ascontiguousarray(want).view(np.uint64)
    assert np.array_equal(got_bits, want_bits)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def banded(op):
    """op stored as its 2 dim - 1 diagonals: every entry of a dense operator,
    held the way the package holds its own operators."""
    return Operator._from_diagonals(
        op.dim, {k: np.diagonal(op.mat, k) for k in range(1 - op.dim, op.dim)}
    )


def _scaling_operands(dim):
    """(left, right, whether the product is formed on the diagonals) pairs at dim."""
    rng = np.random.default_rng(dim)
    rep = build_su2((dim - 1) / 2)
    osc = build_finite_oscillator(dim - 1, phi0=4.9)
    sqrt_n = psd_sqrt(osc.N)
    real_diag = from_diagonal(rng.uniform(0.5, 2.0, dim) * rng.choice([-1.0, 1.0], dim))
    dense = banded(random_operator(rng, dim))
    return [
        # diagonal x dense (J0 and N are real, U carries a complex corner)
        (rep.J0, rep.Jp, True),
        (osc.N, osc.U.U, True),
        (real_diag, dense, True),
        # dense x diagonal
        (rep.Jm, rep.J0, True),
        (osc.U.U, sqrt_n, True),
        (dense, real_diag, True),
        # diagonal x diagonal
        (rep.J0, rep.J0, True),
        (osc.N, sqrt_n, True),
        # the zero matrix, on either side
        (zero(dim), osc.U.U, True),
        (dense, zero(dim), True),
        # two off-diagonal ladders: each entry of J+ J- has one term, both real
        (rep.Jp, rep.Jm, True),
        # complex x complex: U's complex corner times a complex dense operator
        (dense, osc.U.U, False),
    ]


class TestScalingProduct:
    """Products formed on the diagonals must equal the dense product bit for bit."""

    @pytest.mark.parametrize("dim", [2, 6, 31, 32, 33, 40, 64, 101])
    def test_matches_dense_product(self, dim):
        # Every entry is bitwise equal once zeros are made +0.0 on both sides.
        # The sign BLAS gives an exactly-zero entry follows its kernel: at some
        # sizes it is -0.0 when every term of the entry's sum is -0.0 (here
        # dense @ 0 at dims 33 and 101), where a structured product gives +0.0.
        # Residuals and norms do not see the sign; the products the CLI prints
        # are held to every bit in test_printed_products_keep_zero_signs.
        for a, b, structured in _scaling_operands(dim):
            assert _structured(a, b) == structured
            for got, want in [
                (_product(a, b).mat, a.mat @ b.mat),
                ((a @ b).mat, a.mat @ b.mat),
                (commutator(a, b).mat, a.mat @ b.mat - b.mat @ a.mat),
                (
                    r_commutator(a, b, 1.3).mat,
                    1.3 * (a.mat @ b.mat) - (1.0 / 1.3) * (b.mat @ a.mat),
                ),
            ]:
                assert_same_bits(got + 0.0, want + 0.0)

    @pytest.mark.parametrize("phi0", [0.0, 0.731, 4.9])
    def test_printed_products_keep_zero_signs(self, phi0):
        # `build` prints a = U sqrt(N) and a_q = U sqrt(weights), whose zero
        # entries come out -0.0 from a bare elementwise product
        for s in (2, 3, 12, 30, 31, 32, 40, 63, 64, 100):
            osc = build_finite_oscillator(s, phi0)
            sqrt_n = psd_sqrt(osc.N)
            assert _structured(osc.U.U, sqrt_n)
            assert_same_bits(_product(osc.U.U, sqrt_n).mat, osc.U.U.mat @ sqrt_n.mat)
            qosc = build_q_oscillator(s, phi0)
            weights = from_diagonal(np.sqrt(qosc.radicands))
            assert_same_bits(_product(qosc.U.U, weights).mat, qosc.U.U.mat @ weights.mat)

    def test_tiny_off_diagonal_entry_takes_dense_path(self):
        osc = build_finite_oscillator(40)
        m = np.diag(np.arange(1.0, 42.0)).astype(complex)
        m[0, 1] = 1e-300
        almost = Operator(m)
        assert not _structured(almost, osc.U.U) and not _structured(osc.U.U, almost)
        got = _product(almost, osc.U.U).mat
        assert_same_bits(got, almost.mat @ osc.U.U.mat)
        assert got[0, 2] == 1e-300  # the off-diagonal entry times U[1, 2] = 1

    def test_complex_times_complex_stays_dense(self):
        # numpy's elementwise complex multiply and BLAS round complex x complex
        # differently, so a complex diagonal scales only a real operand
        rng = np.random.default_rng(3)
        phases = from_diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, 40)))
        dense = banded(random_operator(rng, 40))
        assert not _structured(phases, dense) and not _structured(dense, phases)
        assert_same_bits(_product(phases, dense).mat, phases.mat @ dense.mat)
        real_dense = banded(Operator(dense.mat.real))
        assert _structured(phases, real_dense)
        assert_same_bits(_product(phases, real_dense).mat, phases.mat @ real_dense.mat)
        assert_same_bits(_product(real_dense, phases).mat, real_dense.mat @ phases.mat)

    def test_non_finite_operand_stays_dense(self):
        # 0 * inf is NaN in every entry of the dense sum it enters
        rep = build_su2(20)
        entries = rep.Jp.diagonal(-1)
        entries[0] = np.inf
        blown = Operator._from_diagonals(rep.dim, {-1: entries})
        assert not _structured(rep.J0, blown)
        with np.errstate(invalid="ignore"):
            got = _product(rep.J0, blown).mat
            want = rep.J0.mat @ blown.mat
        assert np.isnan(got[0, 0])
        assert_same_bits(got, want)

    def test_two_nonzero_terms_in_one_entry_stay_dense(self):
        # U + U^dag has two diagonals at distance two, so each diagonal entry
        # of its square sums two nonzero terms: BLAS's sum, not an elementwise one
        u = build_finite_oscillator(6).U.U
        hop = u + u.adjoint()
        assert not _structured(hop, hop)
        assert_same_bits(_product(hop, hop).mat, hop.mat @ hop.mat)
        assert _structured(u, u.adjoint())  # the corner term lands where the shift's does not


class TestStructuredCore:
    """Operations other than products act on the diagonals, entry for entry."""

    @pytest.mark.parametrize("phi0", [0.0, 4.9])
    def test_elementwise_operations_match_dense(self, phi0):
        osc = build_finite_oscillator(9, phi0)
        rep = build_su2("9/2")
        u, n, jp, jm = osc.U.U, osc.N, rep.Jp, rep.Jm
        for got, want in [
            (u.adjoint(), u.mat.conj().T),
            (jm, jp.mat.conj().T),
            (u + n, u.mat + n.mat),
            (jp - jm, jp.mat - jm.mat),
            (jm - jm, jm.mat - jm.mat),
            (2.5 * u, u.mat * 2.5),
            ((-1j * 0.7) * jm, jm.mat * (-1j * 0.7)),
            (u / 1j, u.mat / 1j),
            (-jm, -jm.mat),
        ]:
            assert got.mat.flags.c_contiguous == want.flags.c_contiguous
            assert_same_bits(got.mat, want)

    def test_residual_materializes_the_difference(self):
        rep = build_su2("7/2")
        for a, b in [(rep.Jp, rep.Jm), (rep.Jm, rep.Jp.adjoint()), (rep.J0, 2.0 * rep.Jm)]:
            assert residual(a, b) == float(np.linalg.norm(a.mat - b.mat))

    def test_apply_matches_dense(self):
        rep = build_su2(3)
        state = np.zeros(rep.dim)
        state[2] = 1.0
        for op in (rep.Jp, rep.Jm, rep.J0, build_finite_oscillator(6, 0.3).U.U):
            assert_same_bits(op.apply(state), op.mat @ state.astype(complex))
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        twisted = (1.0 + 2.0j) * rep.Jp
        assert not _structured(twisted, from_diagonal(vec))  # complex x complex stays dense
        assert_same_bits(twisted.apply(vec), twisted.mat @ vec)

    def test_diagonal_psd_sqrt_is_the_elementwise_root(self):
        for j in ("1/2", "5/2", "25/2", "50"):
            rep = build_su2(j)
            modulus = rep.Jp @ rep.Jm
            root = psd_sqrt(modulus)
            evals, evecs = np.linalg.eigh(modulus.mat)
            dense = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
            assert_same_bits(root.mat, dense)
