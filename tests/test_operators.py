"""Core operator arithmetic, residual policy, and error contracts."""

import copy
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
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
    from_diagonal,
    identity,
    matrix_unit,
    psd_sqrt,
    r_commutator,
    residual,
    zero,
)
from spinphase import operators
from spinphase.cli import main
from spinphase.operators import Diverged, _product, _structured

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

    @pytest.mark.parametrize("structured", [True, False])
    def test_attributes_cannot_be_assigned(self, structured):
        op = build_su2("5/2").Jp if structured else Operator(np.eye(3), "I")
        assert type(op) is Operator
        with pytest.raises(AttributeError):
            op.label = "renamed"
        with pytest.raises(AttributeError):
            op.dim = 7
        with pytest.raises(AttributeError):
            op._data = np.zeros(4, dtype=complex)
        with pytest.raises(AttributeError):
            del op.label
        assert op.label in ("J+", "I") and op.mat.shape == (op.dim, op.dim)

    @pytest.mark.parametrize("structured", [True, False])
    def test_copies_keep_storage_and_bits(self, structured):
        op = build_su2("5/2").Jp if structured else Operator(np.eye(3), "I")
        for copied in (pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op)):
            assert type(copied) is Operator and copied.label == op.label
            assert copied._offsets == op._offsets
            assert_same_bits(copied.mat, op.mat)
            with pytest.raises(AttributeError):
                copied.label = "renamed"
            with pytest.raises(ValueError):
                copied.mat[0, 0] = 5.0

    def test_stored_entries_read_only(self):
        # a write to the diagonals would fall out of step with the cached mat
        rep = build_su2("5/2")
        jp, u = rep.Jp, build_finite_oscillator(5, 0.3).U.U
        made = [jp + rep.Jm, jp - jp, 2.0 * jp, -jp, jp / 1j, jp.adjoint(), jp @ rep.Jm,
                commutator(rep.J0, jp), u @ u.adjoint(), jp.relabel("x"), zero(6), identity(6),
                from_diagonal(np.ones(6))]
        for op in made:
            assert not (op._dense if op._data is None else op._data).flags.writeable
        with pytest.raises(ValueError):
            jp._data[0] = 5.0

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


def assert_scratch_zeroed():
    """This thread's norm buffer, if it has one, is +0.0 bytes throughout."""
    buffer = getattr(operators._scratch, "buffer", None)
    assert buffer is None or not buffer.view(np.uint8).any()


def _norm_operands(dim):
    """Operators stored as diagonals at dim: a +0.0, a -0j and a NaN fill, and a
    batch of three rows."""
    rng = np.random.default_rng(dim)
    diagonals = {k: rng.standard_normal(dim - abs(k)) + 1j * rng.standard_normal(dim - abs(k))
                 for k in (0, 1, -31, 100)}
    lone = Operator._from_diagonals(dim, diagonals)
    rows = rng.standard_normal((3, dim - 1))
    rows[1] = 0.0  # a zero row takes no buffer
    with np.errstate(invalid="ignore"):
        nan_fill = np.inf * build_su2((dim - 1) / 2).Jp  # 0 * inf: NaN off the diagonal
    return [lone, lone.adjoint(), nan_fill, Operator._from_diagonals(dim, {-1: rows})]


def _dense_norm(op):
    """np.linalg.norm of op.mat, a norm per row for a batch, read from a copy."""
    mat = operators._dense_matrix(op.dim, op._offsets, op._data)
    return np.array([np.linalg.norm(m) for m in mat] if mat.ndim > 2 else np.linalg.norm(mat))


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

    @pytest.mark.parametrize("dim", [3, 6, 33, 101])
    def test_terms_sharing_an_entry_go_to_blas(self, dim):
        # two terms land on each inner diagonal entry of the square of a
        # two-sided band, even where one of them is zero: BLAS forms it
        rng = np.random.default_rng(dim)
        band = Operator._from_diagonals(
            dim, {-1: rng.uniform(0.5, 2.0, dim - 1), 1: np.zeros(dim - 1)}
        )
        assert not _structured(band, band)
        for got in (band @ band, _product(band, band)):
            assert got._offsets is None
            assert_same_bits(got.mat, band.mat @ band.mat)
        assert_same_bits(commutator(band, band).mat, band.mat @ band.mat - band.mat @ band.mat)


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
            assert_same_bits(got.mat, want)

    @pytest.mark.parametrize("phi0", [0.0, 4.9])
    def test_norms_are_the_dense_norms_bit_for_bit(self, phi0):
        rep = build_su2("25/2")
        u = build_finite_oscillator(25, phi0).U.U
        blown = rep.Jp.diagonal(-1)
        blown[3] = np.inf
        with np.errstate(invalid="ignore"):
            nan_fill = np.inf * rep.Jp  # 0 * inf: every other entry is NaN
            has_inf = Operator._from_diagonals(rep.dim, {-1: blown})
            pairs = [
                # differences that are zero in every entry
                (rep.Jp, rep.Jp),
                (u.adjoint(), u.adjoint()),  # -0j fill on both sides
                (commutator(rep.J0, rep.J0), zero(rep.dim)),
                (rep.Jm, rep.Jp.adjoint()),
                (Operator(u.mat), u),  # a held operand keeps the dense path
                # NaN and inf entries
                (nan_fill, nan_fill),
                (nan_fill, zero(rep.dim)),
                (has_inf, zero(rep.dim)),
                (has_inf, has_inf),
                # nonzero differences
                (rep.Jp, rep.Jm),
                (rep.J0, 2.0 * rep.Jm),
                (u, u.adjoint()),
                (1j * rep.Jp, 1j * rep.Jm),  # zero real parts
            ]
            for a, b in pairs:
                got = residual(a, b)
                assert_scratch_zeroed()
                want = float(np.linalg.norm(a.mat - b.mat))
                assert_same_bits(np.array([got]), np.array([want]))
            norms = [zero(rep.dim).adjoint(), -zero(rep.dim), u - u, nan_fill, has_inf, u,
                     u.adjoint(), 1j * rep.J0]
            for op in norms:
                got = op.norm()
                assert_scratch_zeroed()
                want = float(np.linalg.norm(op.mat))
                assert_same_bits(np.array([got]), np.array([want]))

    def test_norms_across_dims_reuse_one_zeroed_buffer(self):
        # the buffer grows to 961 * 961, then serves 169 from its prefix, then 961 again
        for dim in (961, 169, 961):
            for op in _norm_operands(dim):
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = op.norm(), _dense_norm(op)
                assert_scratch_zeroed()
                assert_same_bits(np.asarray(got), want)
        # the batch's two nonzero rows at 961: the buffer kept that size for 169
        assert operators._scratch.buffer.size >= 2 * 961 * 961

    def test_each_thread_norms_in_its_own_buffer(self):
        # two threads at once, dims 961 and 169, each gets the serial bits
        ops = {dim: _norm_operands(dim)[0] for dim in (961, 169)}
        serial = {dim: op.norm() for dim, op in ops.items()}
        start, buffers, results = threading.Barrier(2), {}, {}

        def work(dim):
            start.wait()
            results[dim] = [ops[dim].norm() for _ in range(20)]
            buffers[dim] = operators._scratch.buffer

        threads = [threading.Thread(target=work, args=(dim,)) for dim in ops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(results) == set(buffers) == set(ops)
        for dim, got in results.items():
            assert_same_bits(np.array(got), np.full(20, serial[dim]))
            assert buffers[dim].size == dim * dim and not buffers[dim].view(np.uint8).any()
        assert buffers[961] is not buffers[169]

    def test_two_mode_verify_builds_no_dense_matrix(self, capsys):
        # a warm verify at s = 30 (dim 961) allocates less than a quarter of one dim x dim
        # complex matrix: its norms lay their operands out in the thread's buffer
        argv = ["verify", "--family", "jordan_schwinger", "--s", "30", "--phi0", "0.7"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 961 * 961 * 16 / 4

    def test_zero_difference_builds_no_dense_matrix(self, monkeypatch):
        rep = build_su2("25/2")
        u = build_finite_oscillator(25, 4.9).U.U

        def refuse(*args):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(operators, "_dense_matrix", refuse)
        assert residual(rep.Jp, rep.Jp) == 0.0
        assert residual(u.adjoint(), u.adjoint()) == 0.0
        assert residual(commutator(rep.J0, rep.J0), zero(rep.dim)) == 0.0
        assert zero(rep.dim).adjoint().norm() == 0.0
        batch = Operator._from_diagonals(rep.dim, {-1: np.zeros((3, rep.dim - 1))})
        assert residual(batch, -batch).tolist() == [0.0, 0.0, 0.0]  # a batch of zero rows
        with pytest.raises(AssertionError):
            residual(rep.Jp, rep.Jm)  # a nonzero difference takes the dense norm

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


class TestInputChecks:
    """Out-of-range offsets, vectors and indices, on both storage kinds."""

    @staticmethod
    def _both_kinds():
        rep = build_su2(1)
        return [rep.Jp, Operator(rep.Jp.mat), build_finite_oscillator(2, 0.3).U.U]

    @pytest.mark.parametrize("offset", [3, 5, -3, -5, 100])
    def test_diagonal_off_the_matrix_is_empty(self, offset):
        for op in self._both_kinds():
            got = op.diagonal(offset)
            assert got.shape == (0,) and got.dtype == np.complex128
            assert_same_bits(got, np.diagonal(op.mat, offset))

    @pytest.mark.parametrize("vec", [[1, 0, 0, 7, 7], [1, 0], [], [[1, 0, 0]], np.eye(3)])
    def test_apply_rejects_a_vector_of_another_shape(self, vec):
        for op in self._both_kinds():
            with pytest.raises(ShapeError, match="dim-3"):
                op.apply(vec)

    @pytest.mark.parametrize(
        "row, col, bad",
        [
            (-1, 0, "row index -1"),
            (2, 3, "col index 3"),
            (3, 0, "row index 3"),
            (0, -2, "col index -2"),
        ],
    )
    def test_matrix_unit_rejects_an_index_outside(self, row, col, bad):
        with pytest.raises(ParameterError, match=bad):
            matrix_unit(3, row, col)

    def test_matrix_unit_places_its_value(self):
        for row, col in [(0, 0), (0, 2), (2, 0), (1, 2)]:
            want = np.zeros((3, 3), dtype=complex)
            want[row, col] = 2.5j
            assert_same_bits(matrix_unit(3, row, col, 2.5j).mat, want)


class TestBatchAxis:
    """A batch stores one row per point: every operation and norm is, row by
    row, the lone operator's to the last bit, and a batch never goes to BLAS."""

    @staticmethod
    def _rows(dim, seed, points=7):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((points, dim - 1)) * 10.0 ** rng.integers(-3, 4, (points, 1))

    @pytest.mark.parametrize("dim", [2, 6, 26])
    def test_rows_are_the_lone_operators(self, dim):
        rows = self._rows(dim, dim)
        rep = build_su2(f"{dim - 1}/2")
        u = build_finite_oscillator(dim - 1, 0.7).U.U
        scale = np.linspace(0.5, 2.0, len(rows))

        def ops(jp, s):
            jm = jp.adjoint()
            yield commutator(rep.J0, jp) - jp
            yield jm @ jp + from_diagonal(np.arange(dim)) - jp @ jm
            yield u.adjoint() @ jp
            yield (jm @ u) / 1j - (-1j * 0.7) * jm
            yield r_commutator(jp, jm, s) - s * jm
            yield jp.adjoint() - jm

        batch = Operator._from_diagonals(dim, {-1: rows})
        batched = list(ops(batch, scale))
        for i, row in enumerate(rows):
            for got, want in zip(batched, ops(Operator._from_diagonals(dim, {-1: row}), scale[i])):
                assert_same_bits(got.mat[i], want.mat)
                assert got.norm()[i].hex() == want.norm().hex()
        assert_same_bits(batch.apply(np.eye(dim)[0])[2], Operator._from_diagonals(
            dim, {-1: rows[2]}).apply(np.eye(dim)[0]))

    def test_rows_that_would_go_to_blas_run_apart(self):
        rows = self._rows(6, 1)
        rows[[1, 4], 2] = [np.inf, np.nan]
        batch = Operator._from_diagonals(6, {-1: rows})
        with pytest.raises(Diverged) as info:
            batch @ batch.adjoint()
        assert info.value.args[0].tolist() == [False, True, False, False, True, False, False]
        phase = build_finite_oscillator(5, 0.7).U.U  # complex: the rows must be real
        with pytest.raises(Diverged) as info:
            phase @ (1j * Operator._from_diagonals(6, {-1: self._rows(6, 2)}))
        assert info.value.args[0].all()
