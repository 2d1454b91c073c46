"""Deformation maps: q-numbers, the g-solution, and every builder's algebra."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    DeformedTriple,
    NegativeNormError,
    Operator,
    ParameterError,
    SplitError,
    StructureFunction,
    Tolerance,
    build_finite_oscillator,
    build_hermitian_deformation,
    build_phase_operator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    commutator,
    deformed_casimir,
    diag_function,
    discrete_antiderivative,
    from_diagonal,
    linear_structure,
    q_number,
    qbracket_structure,
    r_commutator,
    residual,
    table_structure,
)
from spinphase import deform

TOL = Tolerance()

finite_x = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
real_q = st.floats(min_value=0.1, max_value=5.0, allow_nan=False).filter(
    lambda q: abs(q - 1.0) > 1e-3
)


class TestQNumber:
    @pytest.mark.parametrize("q", [0.5, 1.3, 2.0, complex(np.cos(1.1), np.sin(1.1))])
    def test_bracket_of_one_is_one(self, q):
        assert q_number(1.0, q) == pytest.approx(1.0)

    def test_bracket_of_two_at_q_two(self):
        assert q_number(2.0, 2.0) == pytest.approx(2.5)

    def test_sine_form_zero(self):
        q = complex(np.cos(np.pi / 2), np.sin(np.pi / 2))
        assert q_number(2.0, q) == pytest.approx(0.0, abs=1e-15)

    def test_q_one_continuous_limit(self):
        assert q_number(3.5, 1.0) == 3.5

    def test_q_minus_one_singular(self):
        with pytest.raises(ParameterError):
            q_number(2.0, -1.0)
        with pytest.raises(ParameterError):
            q_number(2.0, complex(np.cos(np.pi), np.sin(np.pi)))

    def test_rejects_negative_real_and_off_circle(self):
        with pytest.raises(ParameterError):
            q_number(1.0, -2.0)
        with pytest.raises(ParameterError):
            q_number(1.0, 0.5 + 0.5j)

    @settings(max_examples=60, deadline=None)
    @given(finite_x, real_q)
    def test_inversion_symmetry(self, x, q):
        assert q_number(x, q) == pytest.approx(q_number(x, 1.0 / q), rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(finite_x, real_q)
    def test_oddness(self, x, q):
        assert q_number(-x, q) == pytest.approx(-q_number(x, q), rel=1e-10, abs=1e-10)


class TestDiscreteAntiderivative:
    def test_linear_anchored_at_zero(self):
        g = discrete_antiderivative(linear_structure(), 1, anchor_value=0.0, anchor_point=0.0)
        for x in (-2.0, -1.0, 0.0, 1.0):
            assert g.value(x) == pytest.approx(x * (x + 1.0), abs=1e-14)

    def test_default_anchor_is_lowest_point(self):
        g = discrete_antiderivative(linear_structure(), Fraction(3, 2))
        assert g.value(-2.5) == 0.0

    def test_qbracket_matches_product_form(self):
        q = 1.3
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, 2)

        def oracle(x):
            return q_number(x, q) * q_number(x + 1.0, q)

        # equal up to the anchor constant
        offset = g.value(0.0) - oracle(0.0)
        for x in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0):
            assert g.value(x) - oracle(x) == pytest.approx(offset, abs=1e-11)

    def test_zero_function_constant(self):
        g = discrete_antiderivative(StructureFunction(lambda x: 0.0), 1, anchor_value=4.0)
        assert all(v == 4.0 for v in g.values)

    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_shift_relation_exact(self, j):
        f = qbracket_structure(1.7)
        g = discrete_antiderivative(f, j)
        assert g.shift_residual(f) < 1e-13

    def test_periodic_addition_keeps_shift(self):
        f = qbracket_structure(1.7)
        g = discrete_antiderivative(f, 1)
        shifted = g.plus_periodic(lambda x: 3.25)
        assert shifted.shift_residual(f) < 1e-13
        assert shifted.p_value == 3.25

    def test_non_periodic_p_rejected(self):
        g = discrete_antiderivative(linear_structure(), 1)
        with pytest.raises(ParameterError):
            g.plus_periodic(lambda x: x)

    def test_off_grid_lookup_rejected(self):
        g = discrete_antiderivative(linear_structure(), 1)
        with pytest.raises(ParameterError):
            g.value(0.5)

    def test_non_finite_structure_function_rejected(self):
        blows_up = StructureFunction(lambda x: 1.0 / x if x != 0 else float("inf"))
        with pytest.raises(ParameterError):
            discrete_antiderivative(blows_up, 1)

    def test_declared_classical_limit(self):
        # the q-bracket structure function returns to 2x as q -> 1
        f = qbracket_structure(1.0 + 1e-8)
        assert all(abs(f(x) - 2.0 * x) < 1e-9 for x in (-2.5, -1.0, 0.5, 3.0))

    def test_table_structure_lookup(self):
        f = table_structure({-1.0: -2.0, 0.0: 0.0, 1.0: 2.0})
        assert f(1.0) == 2.0
        with pytest.raises(ParameterError):
            f(2.0)


class TestSplitDeformation:
    def test_identity_deformation(self):
        # f(x) = 2x with g = x(x+1) and constant p = C gives A = B = 1
        rep = build_su2(1)
        g = discrete_antiderivative(
            linear_structure(), 1, anchor_value=0.0, anchor_point=0.0, p_value=2.0
        )
        triple = build_split_deformation(rep, g, "symmetric")
        assert residual(triple.Jp, rep.Jp) < 1e-14
        assert residual(triple.Jm, rep.Jm) < 1e-14

    @pytest.mark.parametrize("split", ["left", "symmetric"])
    @pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_structure_relation(self, split, q, j):
        rep = build_su2(j)
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, j)
        triple = build_split_deformation(rep, g, split)
        f_diag = from_diagonal([f(float(m)) for m in rep.m_values()])
        assert residual(commutator(triple.Jp, triple.Jm), f_diag) < TOL.for_dim(rep.dim)

    def test_left_split_breaks_adjoint_pairing(self):
        rep = build_su2(1)
        g = discrete_antiderivative(qbracket_structure(1.3), 1)
        triple = build_split_deformation(rep, g, "left")
        assert not triple.hermitian_pair
        assert residual(triple.Jm, rep.Jm) == 0.0  # B = 1 leaves J- untouched

    def test_symmetric_split_requires_nonnegative_product(self):
        rep = build_su2(1)
        sign_flipped = StructureFunction(lambda x: -2.0 * x, {}, "-2x")
        g = discrete_antiderivative(sign_flipped, 1)
        with pytest.raises(SplitError):
            build_split_deformation(rep, g, "symmetric")
        # the left split still realizes [J+~, J-~] = -2*J0
        triple = build_split_deformation(rep, g, "left")
        assert residual(commutator(triple.Jp, triple.Jm), -2.0 * rep.J0) < TOL.for_dim(3)

    def test_custom_split_matches_scaled_deformation(self):
        rep = build_su2(1)

        def weight(c, m):
            return 1.0 + 0.1 * m

        custom = build_split_deformation(
            rep,
            None,
            "custom",
            raising_weight=lambda m: weight(rep.casimir_value, m),
            lowering_weight=lambda m: weight(rep.casimir_value, m + 1.0),
        )
        scaled = build_scaled_deformation(rep, weight)
        assert residual(custom.Jp, scaled.Jp) < 1e-14
        assert residual(custom.Jm, scaled.Jm) < 1e-14
        assert (
            residual(
                commutator(custom.Jp, custom.Jm), commutator(scaled.Jp, scaled.Jm)
            )
            < 1e-14
        )

    def test_custom_split_requires_both_weights(self):
        rep = build_su2(1)
        with pytest.raises(ParameterError):
            build_split_deformation(rep, None, "custom", raising_weight=lambda m: 1.0)

    def test_unknown_split_rejected(self):
        rep = build_su2(1)
        g = discrete_antiderivative(linear_structure(), 1)
        with pytest.raises(ParameterError):
            build_split_deformation(rep, g, "diagonal")


class TestSuq2:
    def test_q_one_is_classical(self):
        rep = build_su2("3/2")
        triple = build_suq2(build_su2("3/2"), 1.0)
        assert residual(triple.Jp, rep.Jp) == 0.0

    def test_spin_half_is_undeformed_for_any_q(self):
        for q in (0.5, 1.3, 2.0):
            triple = build_suq2(build_su2("1/2"), q)
            assert triple.Jp.mat[1, 0] == pytest.approx(1.0)

    def test_casimir_scalar_spin_one_q_two(self):
        q = 2.0
        triple = build_suq2(build_su2(1), q)
        g_up = diag_function(lambda m: q_number(m, q) * q_number(m + 1.0, q), triple.J0)
        c = triple.Jm @ triple.Jp + g_up
        assert np.allclose(c.mat, 2.5 * np.eye(3), atol=1e-13)

    @pytest.mark.parametrize("q", [0.5, 1.1, 1.3, 2.0])
    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_structure_relation(self, q, j):
        triple = build_suq2(build_su2(j), q)
        f_diag = diag_function(lambda m: q_number(2.0 * m, q), triple.J0)
        assert residual(commutator(triple.Jp, triple.Jm), f_diag) < TOL.for_dim(triple.dim)

    def test_classical_limit(self):
        close = build_suq2(build_su2(2), 1.0 + 1e-6)
        classical = build_su2(2)
        assert residual(close.Jp, classical.Jp) < 1e-4

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ParameterError):
            build_suq2(build_su2(1), -0.5)
        with pytest.raises(ParameterError):
            build_suq2(build_su2(1), 0.0)


class TestHermitianDeformation:
    def test_linear_structure_recovers_classical(self):
        rep = build_su2("5/2")
        triple = build_hermitian_deformation(build_su2("5/2"), linear_structure())
        assert residual(triple.Jp, rep.Jp) < 1e-13

    def test_spin_one_q_two_elements(self):
        triple = build_hermitian_deformation(build_su2(1), qbracket_structure(2.0))
        expected = np.sqrt(2.5)
        assert triple.Jp.mat[1, 0] == pytest.approx(expected)
        assert triple.Jp.mat[2, 1] == pytest.approx(expected)

    @pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    def test_matches_suq2(self, q, j):
        herm = build_hermitian_deformation(build_su2(j), qbracket_structure(q))
        ref = build_suq2(build_su2(j), q)
        t = TOL.for_dim(herm.dim)
        assert residual(herm.Jp, ref.Jp) < t
        assert residual(herm.Jm, ref.Jm) < t

    def test_adjoint_pair_by_construction(self):
        triple = build_hermitian_deformation(build_su2(2), qbracket_structure(1.3))
        assert triple.hermitian_pair
        assert np.array_equal(triple.Jm.mat, triple.Jp.mat.conj().T)

    def test_phase_q_negative_norm(self):
        # q = exp(i*2*pi/5): [x]_q flips sign at x = 2.5, inside the j = 3/2 support
        q5 = cmath.rect(1.0, 2.0 * np.pi / 5.0)
        with pytest.raises(NegativeNormError):
            build_hermitian_deformation(build_su2("3/2"), qbracket_structure(q5))
        q3 = cmath.rect(1.0, 2.0 * np.pi / 3.0)
        with pytest.raises(NegativeNormError):
            build_hermitian_deformation(build_su2(1), qbracket_structure(q3))

    def test_phase_q_positive_cases_build(self):
        # below the sign change the deformed rep exists and keeps its algebra
        q5 = cmath.rect(1.0, 2.0 * np.pi / 5.0)
        triple = build_hermitian_deformation(build_su2(1), qbracket_structure(q5))
        f_diag = diag_function(
            lambda m: q_number(2.0 * m, q5), triple.J0
        )
        assert residual(commutator(triple.Jp, triple.Jm), f_diag) < TOL.for_dim(3)

    def test_zero_radicand_is_clamped(self):
        # q = exp(i*2*pi/3) at j = 3/2 puts [3]_q = 0 into the edge elements
        q3 = cmath.rect(1.0, 2.0 * np.pi / 3.0)
        triple = build_hermitian_deformation(build_su2("3/2"), qbracket_structure(q3))
        assert abs(triple.Jp.mat[1, 0]) < 1e-7
        assert abs(triple.Jp.mat[3, 2]) < 1e-7
        assert abs(triple.Jp.mat[2, 1]) == pytest.approx(1.0)


class TestWitten:
    def test_w0_diagonal_value(self):
        gens = build_witten(build_su2(1), 1.2)
        assert gens.J0.mat[2, 2].real == pytest.approx(125.0 / 216.0, abs=1e-14)

    @pytest.mark.parametrize("r", [0.8, 1.2])
    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)])
    def test_defining_relations(self, r, j):
        gens = build_witten(build_su2(j), r)
        t = TOL.for_dim(gens.dim)
        assert residual(r_commutator(gens.J0, gens.Jp, r), gens.Jp) < t
        assert residual(r_commutator(gens.Jp, gens.Jm, 1.0 / r**2), gens.J0) < t
        assert residual(r_commutator(gens.Jm, gens.J0, r), gens.Jm) < t

    def test_adjoint_pair(self):
        gens = build_witten(build_su2("3/2"), 0.8)
        assert np.array_equal(gens.Jm.mat, gens.Jp.mat.conj().T)

    def test_classical_limit(self):
        gens = build_witten(build_su2(2), 1.0 + 1e-6)
        rep = build_su2(2)
        assert residual(gens.J0, rep.J0) < 1e-4
        assert (
            residual(
                r_commutator(gens.Jp, gens.Jm, 1.0 / (1.0 + 1e-6) ** 2),
                commutator(gens.Jp, gens.Jm),
            )
            < 1e-4
        )

    @pytest.mark.parametrize("r", [0.0, -1.2, 1.0])
    def test_invalid_r_rejected(self, r):
        with pytest.raises(ParameterError):
            build_witten(build_su2(1), r)


class TestScaledDeformation:
    def test_unit_weight_is_identity(self):
        rep = build_su2("3/2")
        triple = build_scaled_deformation(rep, lambda c, m: 1.0)
        assert residual(triple.Jp, rep.Jp) < 1e-14
        assert residual(triple.J0, rep.J0) < 1e-14

    @pytest.mark.parametrize("j", [Fraction(1), Fraction(3, 2), Fraction(5, 2)])
    def test_identities_hold(self, j):
        rep = build_su2(j)
        # identities are asserted inside the builder; reaching here means they hold
        triple = build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m)
        assert residual(commutator(rep.J0, triple.Jp), triple.Jp) < TOL.for_dim(rep.dim)

    def test_vanishing_weight_rejected(self):
        rep = build_su2(1)
        with pytest.raises(ParameterError):
            build_scaled_deformation(rep, lambda c, m: 1.0 + m)

    def test_generic_weight_breaks_adjoint_pairing(self):
        rep = build_su2(1)
        triple = build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m)
        assert not triple.hermitian_pair


class TestDeformedCasimir:
    def test_undeformed_with_classical_g(self):
        rep = build_su2("3/2")
        g = discrete_antiderivative(
            linear_structure(), "3/2", anchor_value=0.75, anchor_point=0.5
        )  # g(1/2) = 3/4 puts g(x) = x(x+1) on the half-integer grid
        triple = build_suq2(build_su2("3/2"), 1.0)
        c = deformed_casimir(triple, g)
        assert np.allclose(c.mat, (1.5 * 2.5) * np.eye(4), atol=1e-13)  # j(j+1)*I

    def test_suq2_casimir_scalar_and_central(self):
        q = 1.3
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, 1, anchor_value=0.0, anchor_point=0.0)
        triple = build_suq2(build_su2(1), q)
        c = deformed_casimir(triple, g)
        scalar = q_number(1.0, q) * q_number(2.0, q)
        assert np.allclose(c.mat, scalar * np.eye(3), atol=1e-13)

    def test_left_split_orderings_agree(self):
        rep = build_su2(1)
        f = qbracket_structure(1.3)
        g = discrete_antiderivative(f, 1)
        triple = build_split_deformation(rep, g, "left")
        assert not triple.hermitian_pair
        c = deformed_casimir(triple, g)  # raises if the orderings disagree
        off_diag = c.mat - np.diag(np.diagonal(c.mat))
        assert np.linalg.norm(off_diag) < 1e-13


# --- bitwise placement against the entry-by-entry reference ---------------
#
# The reference below is the construction the builders used before they
# placed weight vectors: _ref_scale walks the nonzero entries of an su2
# ladder and multiplies each by its weight, and the su2, SU_q(2) and phase
# matrices are written one row at a time.  The builders must reproduce it
# bit for bit, signed zeros included, and in the same memory order.


def _ref_scale(base, weight, ms, axis):
    """diag(weight(m)) @ base (axis 0) or base @ diag(weight(m)) (axis 1),
    evaluated only where base has support."""
    out = np.array(base.mat)
    for entry in zip(*np.nonzero(out)):
        out[entry] *= weight(float(ms[entry[axis]]))
    return Operator(out)


def _ref_su2(j):
    jv = float(Fraction(j))
    dim = int(2 * jv) + 1
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        m = -jv + i
        mat[i + 1, i] = np.sqrt((jv - m) * (jv + m + 1.0))
    jp = Operator(mat, "J+")
    j0 = from_diagonal([-jv + i for i in range(dim)], "J0")
    return jp, jp.adjoint(), j0, np.array([-jv + i for i in range(dim)])


def _ref_phase(dim, theta0, raising):
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        if raising:
            mat[i + 1, i] = 1.0
        else:
            mat[i, i + 1] = 1.0
    if raising:
        mat[0, dim - 1] = np.exp(1j * dim * theta0)
    else:
        mat[dim - 1, 0] = np.exp(1j * dim * theta0)
    return Operator(mat)


def _ref_suq2(j, q):
    jp0, _, j0, ms = _ref_su2(j)
    jv = float(Fraction(j))
    dim = len(ms)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        m = -jv + i
        mat[i + 1, i] = np.sqrt(q_number(jv - m, q) * q_number(jv + m + 1.0, q))
    jp = Operator(mat)
    return jp, jp.adjoint(), j0


def _ref_hermitian(j, f):
    jp, _, j0, ms = _ref_su2(j)
    weight = deform._hermitian_ladder_weight(float(Fraction(j)), f, TOL.for_dim(len(ms)))
    jp_t = _ref_scale(jp, weight, ms, 0)
    return jp_t, jp_t.adjoint(), j0


def _ref_witten(j, r):
    jp, _, _, ms = _ref_su2(j)
    jv = float(Fraction(j))
    kappa = (r ** (2 * jv + 1) + r ** (-2 * jv - 1)) / (r + 1.0 / r)
    scale = 1.0 / (r - 1.0 / r)
    w0 = from_diagonal([scale * (1.0 - kappa * r ** (-2.0 * float(m))) for m in ms])
    norm = np.sqrt(r / (r + 1.0 / r))
    base = deform._hermitian_ladder_weight(jv, qbracket_structure(r), 0.0)
    wp = _ref_scale(jp, lambda x: float(r ** (-x) * norm * base(x)), ms, 0)
    return wp, wp.adjoint(), w0


def _ref_split(j, g, split):
    jp, jm, j0, ms = _ref_su2(j)
    c_val = float(Fraction(j)) * (float(Fraction(j)) + 1.0)
    ab = {}
    for m in [float(m) for m in ms[:-1]]:
        ab[round(2 * m)] = (g.p_value - g.value(m)) / (c_val - m * (m + 1.0))
    if split == "left":
        a_weight, b_weight = ab, {k: 1.0 for k in ab}
    else:
        a_weight = b_weight = {k: np.sqrt(max(v, 0.0)) for k, v in ab.items()}
    jp_t = _ref_scale(jp, lambda m: a_weight[round(2 * m)], ms, 1)
    jm_t = _ref_scale(jm, lambda m: b_weight[round(2 * m)], ms, 0)
    return jp_t, jm_t, j0


def _ref_scaled(j, weight):
    jp, jm, _, ms = _ref_su2(j)
    jv = float(Fraction(j))
    w = {}
    for k in range(-1, len(ms) + 1):
        m = -jv + k
        w[round(2 * m)] = float(weight(jv * (jv + 1.0), m))
    jp_t = _ref_scale(jp, lambda m: w[round(2 * m)], ms, 1)
    jm_t = _ref_scale(jm, lambda m: w[round(2 * m)], ms, 1)
    j0_t = from_diagonal([float(m) * w[round(2 * float(m))] for m in ms])
    return jp_t, jm_t, j0_t


def _assert_same_bits(got: Operator, want: Operator) -> None:
    assert got.mat.flags.c_contiguous == want.mat.flags.c_contiguous
    a, b = np.ascontiguousarray(got.mat), np.ascontiguousarray(want.mat)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


_PLACEMENT_POINTS = [("1/2", 1.3), ("5/2", 1.3), ("25/2", 1.3), ("50", 1.05)]


class TestBitwisePlacement:
    @pytest.mark.parametrize("j, q", _PLACEMENT_POINTS)
    def test_spin_builders(self, j, q):
        rep = build_su2(j)
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, j)
        weight = lambda c, m: 1.0 + 0.01 * m  # noqa: E731
        pairs = [
            ((rep.Jp, rep.Jm, rep.J0), _ref_su2(j)[:3]),
            (build_suq2(rep, q), _ref_suq2(j, q)),
            (build_hermitian_deformation(rep, f), _ref_hermitian(j, f)),
            (build_witten(rep, 1.2), _ref_witten(j, 1.2)),
            (build_split_deformation(rep, g, "symmetric"), _ref_split(j, g, "symmetric")),
            (build_split_deformation(rep, g, "left"), _ref_split(j, g, "left")),
            (build_scaled_deformation(rep, weight), _ref_scaled(j, weight)),
        ]
        for got, want in pairs:
            if isinstance(got, DeformedTriple):
                got = (got.Jp, got.Jm, got.J0)
            for g_op, w_op in zip(got, want):
                _assert_same_bits(g_op, w_op)
        assert np.array_equal(rep.m_values(), _ref_su2(j)[3])

    @pytest.mark.parametrize("j, _", _PLACEMENT_POINTS)
    @pytest.mark.parametrize("theta0", [0.0, 0.7])
    def test_phase_operators(self, j, _, theta0):
        dim = int(2 * Fraction(j)) + 1
        _assert_same_bits(build_phase_operator(j, theta0).U, _ref_phase(dim, theta0, True))
        _assert_same_bits(build_finite_oscillator(dim - 1, theta0).U.U,
                          _ref_phase(dim, theta0, False))
