"""Deformation maps: q-numbers, the g-solution, and every builder's algebra."""

import cmath
import itertools
import re
import warnings
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
    ShapeError,
    SplitError,
    StructureFunction,
    Tolerance,
    build_deformation,
    build_hermitian_deformation,
    build_phase_operator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    commutator,
    discrete_antiderivative,
    from_diagonal,
    linear_structure,
    q_number,
    qbracket_structure,
    r_commutator,
    residual,
)
from spinphase.operators import Diverged

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

    @pytest.mark.parametrize("turns", [1e12, 1e13, 1e300])
    def test_phase_near_one_tends_to_x(self, turns):
        # arg q = 2*pi/turns: the sine form is regular as arg q -> 0, as [x]_1 = x
        assert q_number(2.5, cmath.rect(1.0, 2.0 * np.pi / turns)) == pytest.approx(2.5)

    @pytest.mark.parametrize("turns", [2.0000000000001, -2.0000000000001])
    def test_phase_near_minus_one_singular(self, turns):
        with pytest.raises(ParameterError, match="^singular q-bracket at q = -1$"):
            q_number(2.5, cmath.rect(1.0, 2.0 * np.pi / turns))

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
        g = discrete_antiderivative(linear_structure(), 1)
        g = g - g[2]  # g(0) = 0
        for x, gx in zip((-2.0, -1.0, 0.0, 1.0), g):
            assert gx == pytest.approx(x * (x + 1.0), abs=1e-14)

    def test_default_anchor_is_lowest_point(self):
        g = discrete_antiderivative(linear_structure(), Fraction(3, 2))
        assert g[0] == 0.0  # g(-5/2)

    def test_qbracket_matches_product_form(self):
        q = 1.3
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, 2)

        def oracle(x):
            return q_number(x, q) * q_number(x + 1.0, q)

        # equal up to the anchor constant; g runs over x = -3, ..., 2
        offset = g[3] - oracle(0.0)
        for x, gx in zip((-3.0, -2.0, -1.0, 0.0, 1.0, 2.0), g):
            assert gx - oracle(x) == pytest.approx(offset, abs=1e-11)

    def test_zero_function_constant(self):
        g = discrete_antiderivative(StructureFunction(lambda x: 0.0), 1) + 4.0
        assert all(v == 4.0 for v in g)

    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_shift_relation_exact(self, j):
        f = qbracket_structure(1.7)
        g = discrete_antiderivative(f, j)
        xs = [-float(j) + k for k in range(len(g) - 1)]  # x = -j, ..., j
        assert max(abs(b - a - f(x)) for x, a, b in zip(xs, g, g[1:])) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        j=st.sampled_from([Fraction(1, 2), Fraction(5, 2), Fraction(25, 2), Fraction(50)]),
        q=st.one_of(
            st.floats(min_value=1e-3, max_value=1e3, exclude_min=True, exclude_max=True),
            st.floats(min_value=1e-3, max_value=3.0).map(lambda a: cmath.rect(1.0, a)),
        ),
    )
    def test_running_sum_of_the_steps(self, j, q):
        # bit for bit the left-to-right sum g(x) = g(x-1) + f(x) from g(-j-1) = 0
        f = qbracket_structure(q)
        g = discrete_antiderivative(f, j)
        steps = [f(-float(j) + k) for k in range(int(2 * j) + 1)]  # x = -j, ..., j
        want = np.array(list(itertools.accumulate(steps, initial=0.0)))
        assert g.dtype == np.float64 and not g.flags.writeable
        assert np.array_equal(g.view(np.uint64), want.view(np.uint64))

    def test_non_finite_structure_function_rejected(self):
        blows_up = StructureFunction(lambda x: 1.0 / x if x != 0 else float("inf"))
        with pytest.raises(ParameterError):
            discrete_antiderivative(blows_up, 1)

    def test_declared_classical_limit(self):
        # the q-bracket structure function returns to 2x as q -> 1
        f = qbracket_structure(1.0 + 1e-8)
        assert all(abs(f(x) - 2.0 * x) < 1e-9 for x in (-2.5, -1.0, 0.5, 3.0))


class TestGeneralDeformation:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("side", ["raising", "lowering"])
    def test_non_finite_entry_rejected(self, bad, side):
        rep = build_su2(1)
        entries = {"raising": list(rep.ladder_entries()), "lowering": list(rep.ladder_entries())}
        entries[side][1] = bad
        with pytest.raises(ParameterError, match=r"general ladder is not finite at m=0 -> m\+1"):
            build_deformation(rep, **entries, provenance={"map": "general", "params": {}})


class TestSplitDeformation:
    def test_identity_deformation(self):
        # f(x) = 2x with g = x(x+1) and constant p = C gives A = B = 1
        rep = build_su2(1)
        g = discrete_antiderivative(linear_structure(), 1)
        g = g - g[2]  # g(0) = 0
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
        # the custom split's weights, as entries of the general deformation
        rep = build_su2(1)

        def weight(c, m):
            return 1.0 + 0.1 * m

        steps = rep.m_values()[:-1]
        su2 = rep.ladder_entries()
        general = build_deformation(
            rep,
            su2 * weight(rep.casimir_value, steps),
            su2 * weight(rep.casimir_value, steps + 1.0),
            provenance={"map": "general", "params": {}},
        )
        scaled = build_scaled_deformation(rep, weight)
        assert residual(general.Jp, scaled.Jp) < 1e-14
        assert residual(general.Jm, scaled.Jm) < 1e-14
        assert (
            residual(
                commutator(general.Jp, general.Jm), commutator(scaled.Jp, scaled.Jm)
            )
            < 1e-14
        )

    @pytest.mark.parametrize("split", ["left", "symmetric"])
    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_any_anchor_gives_the_same_split(self, split, c):
        # p = g(-j-1) moves with the constant added to g, so A*B does not change
        rep = build_su2(2)
        g = discrete_antiderivative(qbracket_structure(1.3), 2)
        default = build_split_deformation(rep, g, split)
        anchored = build_split_deformation(rep, g + c, split)
        t = TOL.for_dim(rep.dim)
        assert residual(anchored.Jp, default.Jp) < t
        assert residual(anchored.Jm, default.Jm) < t

    @pytest.mark.parametrize("j_g, n", [(2, 6), (Fraction(1, 2), 3)])
    def test_g_of_another_spin_rejected(self, j_g, n):
        # a spin-1 map reads g on x = -2, ..., 1: four values
        g = discrete_antiderivative(qbracket_structure(1.3), j_g)
        for wrong in (g, np.stack([g, g])):  # a lone g, and a batch of rows
            with pytest.raises(ShapeError, match=f"^g has {n} values, a spin-1 split map reads 4$"):
                build_split_deformation(build_su2(1), wrong)

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
        q, rep = 2.0, build_su2(1)
        triple = build_suq2(rep, q)
        g_up = from_diagonal([q_number(m, q) * q_number(m + 1.0, q) for m in rep.m_values()])
        c = triple.Jm @ triple.Jp + g_up
        assert np.allclose(c.mat, 2.5 * np.eye(3), atol=1e-13)

    @pytest.mark.parametrize("q", [0.5, 1.1, 1.3, 2.0])
    @pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_structure_relation(self, q, j):
        rep = build_su2(j)
        triple = build_suq2(rep, q)
        f_diag = from_diagonal([q_number(2.0 * m, q) for m in rep.m_values()])
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

    def test_overflowing_q_is_a_parameter_error(self):
        # [3]_q overflows at q = 1e300: the builder rejects the infinite entries
        with pytest.raises(ParameterError, match=r"suq2 ladder is not finite at m=-1.5 -> m\+1"):
            build_suq2(build_su2("3/2"), 1e300)

    @pytest.mark.parametrize("q", [1e300, 1e299])
    def test_overflowing_casimir_table_is_a_parameter_error(self, q):
        # at j = 1/2 the one entry is [1]_q = 1, but g(1/2) = [1/2]_q [3/2]_q is inf
        message = f"q={q} overflows SU_q(2)'s casimir at j=1/2"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build_suq2(build_su2("1/2"), q)

    def test_overflowing_casimir_point_of_a_batch_runs_apart(self):
        with pytest.raises(Diverged) as info:
            build_suq2(build_su2("1/2"), [1.3, 1e300, 0.8])
        assert info.value.args[0].tolist() == [False, True, False]


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
        q5, rep = cmath.rect(1.0, 2.0 * np.pi / 5.0), build_su2(1)
        triple = build_hermitian_deformation(rep, qbracket_structure(q5))
        f_diag = from_diagonal([q_number(2.0 * m, q5) for m in rep.m_values()])
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

    @pytest.mark.parametrize(
        "j, r",
        [("50", 1e10), ("3/2", 1e-300), ("50", 100.0)],  # r ** (2j+1) overflows; the weights do
    )
    def test_overflow_is_a_parameter_error(self, j, r):
        with pytest.raises(ParameterError, match=f"r={r} overflows Witten's map at j={j}$"):
            build_witten(build_su2(j), r)

    def test_overflowing_point_of_a_batch_runs_apart(self):
        with pytest.raises(Diverged) as info:
            build_witten(build_su2(50), [1.2, 100.0, 0.8])
        assert info.value.args[0].tolist() == [False, True, False]


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

    @pytest.mark.parametrize(
        "weight, m",
        [
            (lambda c, m: 1.0 + 1e308 * m, "-3.5"),  # -inf from m = -2 down, +inf from m = 2
            (lambda c, m: 1.0 + float("nan") * m, "-3.5"),
            (lambda c, m: float("inf") if m == 2.5 else 1.0, "2.5"),
        ],
    )
    def test_non_finite_weight_rejected(self, weight, m):
        # j = 5/2 reads w on m = -7/2, ..., 7/2
        message = f"^the scaled map's weight is not finite at m={m}$"
        with pytest.raises(ParameterError, match=message):
            build_scaled_deformation(build_su2("5/2"), weight)

    def test_non_finite_weight_of_a_batch_runs_apart(self):
        weights = [lambda c, m, k=k: 1.0 + k * m for k in (0.01, 1e308, 0.02)]
        with pytest.raises(Diverged) as info:
            build_scaled_deformation(build_su2("5/2"), weights)
        assert info.value.args[0].tolist() == [False, True, False]

    @pytest.mark.parametrize(
        "coeff, message",
        [
            (5e307, r"^the f_deform ladder is not finite at m=-2.5 -> m\+1$"),
            (3e307, r"^the f_deform J0~ is not finite at m=-2.5$"),
            # finite entries whose gate identities overflow to inf or NaN
            (1e150, r"^the f_deform identities are not finite: scaled_ladder has residual inf$"),
            (2.5e307, r"^the f_deform identities are not finite: scaled_ladder has residual nan$"),
        ],
    )
    def test_overflowing_entry_of_a_finite_weight_rejected(self, coeff, message):
        # w = 1 + coeff*m is finite on m = -7/2, ..., 7/2; an su2 entry or m times it is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is refused, not warned about
            with pytest.raises(ParameterError, match=message):
                build_scaled_deformation(build_su2("5/2"), lambda c, m: 1.0 + coeff * m)

    @pytest.mark.parametrize("coeff", [5e307, 3e307, 1e150, 2.5e307])
    def test_overflowing_entries_of_a_batch_run_apart(self, coeff):
        weights = [lambda c, m, k=k: 1.0 + k * m for k in (0.01, coeff, 0.02)]
        with pytest.raises(Diverged) as info:
            build_scaled_deformation(build_su2("5/2"), weights)
        assert info.value.args[0].tolist() == [False, True, False]

    def test_generic_weight_breaks_adjoint_pairing(self):
        rep = build_su2(1)
        triple = build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m)
        assert not triple.hermitian_pair


class TestDeformedCasimir:
    """C~ = J-~ J+~ + g(J0) = J+~ J-~ + g(J0 - 1), with g on {-j-1, ..., j}:
    scalar on an irreducible triple, central, its orderings equal."""

    @staticmethod
    def _orderings(triple, g):
        up = triple.Jm @ triple.Jp + from_diagonal(g[1:])
        return up, triple.Jp @ triple.Jm + from_diagonal(g[:-1])

    def test_undeformed_with_classical_g(self):
        g = discrete_antiderivative(linear_structure(), "3/2")
        g = g + (0.75 - g[3])  # g(1/2) = 3/4 puts g(x) = x(x+1) on the half-integer grid
        c, _ = self._orderings(build_suq2(build_su2("3/2"), 1.0), g)
        assert np.allclose(c.mat, (1.5 * 2.5) * np.eye(4), atol=1e-13)  # j(j+1)*I

    def test_suq2_casimir_scalar_and_central(self):
        q = 1.3
        g = discrete_antiderivative(qbracket_structure(q), 1)
        g = g - g[2]  # g(0) = 0
        triple = build_suq2(build_su2(1), q)
        c, _ = self._orderings(triple, g)
        assert np.allclose(c.mat, q_number(1.0, q) * q_number(2.0, q) * np.eye(3), atol=1e-13)
        for ladder in (triple.Jp, triple.Jm):
            assert commutator(c, ladder).norm() < 1e-13

    def test_left_split_orderings_agree(self):
        g = discrete_antiderivative(qbracket_structure(1.3), 1)
        triple = build_split_deformation(build_su2(1), g, "left")
        assert not triple.hermitian_pair
        up, down = self._orderings(triple, g)
        assert residual(up, down) < 1e-13
        assert np.linalg.norm(up.mat - np.diag(np.diagonal(up.mat))) < 1e-13


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


def _ref_phase(dim, theta0):
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        mat[i + 1, i] = 1.0
    mat[0, dim - 1] = np.exp(1j * dim * theta0)
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


def _ref_hermitian_weight(jv, f, tol_val):
    """The hermitian map's row weight h(x), one x at a time."""

    def weight(x):
        num = f((x + jv) / 2.0) * f((x - 1.0 - jv) / 2.0)
        rad = num / ((x + jv) * (x - 1.0 - jv))
        if rad < -tol_val:
            raise NegativeNormError(
                f"negative norm: radicand {rad:.6g} at J0-eigenvalue {x - 1.0}"
            )
        return float(np.sqrt(max(rad, 0.0)))

    return weight


def _ref_hermitian(j, f):
    jp, _, j0, ms = _ref_su2(j)
    weight = _ref_hermitian_weight(float(Fraction(j)), f, TOL.for_dim(len(ms)))
    jp_t = _ref_scale(jp, weight, ms, 0)
    return jp_t, jp_t.adjoint(), j0


def _ref_witten(j, r):
    jp, _, _, ms = _ref_su2(j)
    jv = float(Fraction(j))
    kappa = (r ** (2 * jv + 1) + r ** (-2 * jv - 1)) / (r + 1.0 / r)
    scale = 1.0 / (r - 1.0 / r)
    w0 = from_diagonal([scale * (1.0 - kappa * r ** (-2.0 * float(m))) for m in ms])
    norm = np.sqrt(r / (r + 1.0 / r))
    base = _ref_hermitian_weight(jv, qbracket_structure(r), 0.0)
    wp = _ref_scale(jp, lambda x: float(r ** (-x) * norm * base(x)), ms, 0)
    return wp, wp.adjoint(), w0


def _ref_split(j, g, split):
    jp, jm, j0, ms = _ref_su2(j)
    c_val = float(Fraction(j)) * (float(Fraction(j)) + 1.0)
    ab = {}
    for m in [float(m) for m in ms[:-1]]:
        g_m = g[round(m + float(Fraction(j))) + 1]  # g[k] is g(-j-1+k)
        ab[round(2 * m)] = (g[0] - g_m) / (c_val - m * (m + 1.0))
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
        _assert_same_bits(build_phase_operator(j, theta0).U, _ref_phase(dim, theta0))
