"""Heisenberg dynamics: eigen-operator relations, exact evolution, and the
phase-operator derivation with its negative control."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    NotDiagonalError,
    ParameterError,
    Hamiltonian,
    Operator,
    Tolerance,
    build_finite_oscillator,
    build_hermitian_deformation,
    build_phase_operator,
    build_q_oscillator,
    build_scaled_deformation,
    build_split_deformation,
    build_su2,
    build_suq2,
    build_witten,
    derive_ladder_dynamics_from_phase,
    dipole_hamiltonian,
    discrete_antiderivative,
    eigenoperator_residual,
    evolve,
    heisenberg_derivative,
    jordan_schwinger,
    number_hamiltonian,
    qbracket_structure,
    residual,
    trajectory,
    two_mode_hamiltonian,
)
from spinphase import checks
from spinphase.deform import DeformedTriple
from spinphase.scenarios import build_bundle, resolve_scenario

TOL = Tolerance()
SPINS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]


def spin_families(j):
    """(name, triple-or-None) for every deformation family at spin j."""
    rep = build_su2(j)
    families = [("su2", None)]
    for q in (0.5, 1.1, 2.0):
        families.append((f"suq2[q={q}]", build_suq2(build_su2(j), q)))
        families.append(
            (f"hermitian[q={q}]", build_hermitian_deformation(build_su2(j), qbracket_structure(q)))
        )
    for r in (0.8, 1.2):
        gens = build_witten(build_su2(j), r)
        families.append(
            (
                f"witten[r={r}]",
                DeformedTriple(gens.Jp, gens.Jm, gens.J0, {"map": "witten", "params": {}}, True),
            )
        )
    g = discrete_antiderivative(qbracket_structure(1.3), j)
    for split in ("left", "symmetric"):
        families.append((f"ab[{split}]", build_split_deformation(rep, g, split)))
    families.append(
        ("f_deform", build_scaled_deformation(rep, lambda c, m: 1.0 + 0.1 * m))
    )
    return rep, families


class TestHeisenbergDerivative:
    def test_raising_operator_dipole(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        assert residual(heisenberg_derivative(rep.Jp, h), -1j * rep.Jp) < TOL.for_dim(3)

    def test_j0_conserved(self):
        rep = build_su2("3/2")
        h = dipole_hamiltonian(rep.J0, 2.3)
        assert heisenberg_derivative(rep.J0, h).norm() == 0.0

    def test_annihilation_operator(self):
        osc = build_finite_oscillator(3)
        h = number_hamiltonian(osc.N, 2.0)
        assert residual(heisenberg_derivative(osc.a, h), -2j * osc.a) < TOL.for_dim(4)

    def test_hamiltonian_must_be_diagonal(self):
        rep = build_su2(1)
        with pytest.raises(NotDiagonalError):
            Hamiltonian(rep.Jp)

    def test_off_diagonal_entries_within_tolerance_count(self):
        # diagonal within tolerance but not exactly: the derivative must use
        # the dense products, off-diagonal entries included
        rep = build_su2("35/2")
        m = np.diag(rep.J0.diagonal()).astype(complex)
        m[1, 2] = m[2, 1] = 2e-13
        h = Hamiltonian(Operator(m))
        got = heisenberg_derivative(rep.Jp, h).mat
        want = (rep.Jp.mat @ h.op.mat - h.op.mat @ rep.Jp.mat) / 1j
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        exact = heisenberg_derivative(rep.Jp, Hamiltonian(Operator(np.diag(np.diagonal(m))))).mat
        assert not np.array_equal(got, exact)


class TestEigenoperatorResidual:
    def test_suq2_ladder(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        triple = build_suq2(build_su2(1), 1.3)
        assert eigenoperator_residual(triple.Jp, h, -1j) < TOL.for_dim(3)

    def test_witten_ladder(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        gens = build_witten(build_su2(1), 1.2)
        assert eigenoperator_residual(gens.Jp, h, -1j) < TOL.for_dim(3)

    def test_conserved_quantity(self):
        rep = build_su2(2)
        h = dipole_hamiltonian(rep.J0, 1.7)
        assert eigenoperator_residual(rep.J0, h, 0.0) == 0.0

    @pytest.mark.parametrize("j", SPINS)
    def test_all_families_share_the_dynamics(self, j):
        muB = 1.0
        rep, families = spin_families(j)
        h = dipole_hamiltonian(rep.J0, muB)
        t = TOL.for_dim(rep.dim)
        for name, triple in families:
            jp = rep.Jp if triple is None else triple.Jp
            jm = rep.Jm if triple is None else triple.Jm
            conserved = rep.J0 if triple is None else triple.J0
            assert eigenoperator_residual(jp, h, -1j * muB) < t, name
            assert eigenoperator_residual(jm, h, 1j * muB) < t, name
            assert eigenoperator_residual(conserved, h, 0.0) < t, name


class TestEvolve:
    def test_half_turn_flips_raising_operator(self):
        rep = build_su2("3/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        assert residual(evolve(rep.Jp, h, np.pi), -1.0 * rep.Jp) < TOL.for_dim(4)

    def test_j0_constant(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        assert residual(evolve(rep.J0, h, 17.3), rep.J0) < TOL.for_dim(3)

    def test_deformed_ladder_same_phase_law(self):
        triple = build_suq2(build_su2(1), 1.3)
        h = dipole_hamiltonian(build_su2(1).J0, 1.0)
        got = evolve(triple.Jp, h, np.pi / 2)
        assert residual(got, -1j * triple.Jp) < TOL.for_dim(3)

    def test_group_law_norm_and_adjoint(self):
        rep = build_su2("3/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        t_tol = TOL.for_dim(rep.dim)
        rng = np.random.default_rng(0)
        for t1, t2 in rng.uniform(-5.0, 5.0, size=(100, 2)):
            once = evolve(evolve(rep.Jp, h, t1), h, t2)
            direct = evolve(rep.Jp, h, t1 + t2)
            assert residual(once, direct) < t_tol
            assert abs(direct.norm() - rep.Jp.norm()) < t_tol
            assert residual(evolve(rep.Jp.adjoint(), h, t1), evolve(rep.Jp, h, t1).adjoint()) < t_tol


class TestTrajectory:
    def test_spin_half_phase_track(self):
        rep = build_su2("1/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        traj = trajectory(rep.Jp, h, [0.0, np.pi / 2, np.pi], [(1, 0)])
        vals = traj.element_tracks[0][1]
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(-1j, abs=1e-12)
        assert vals[2] == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_element_constant(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        traj = trajectory(rep.J0, h, np.linspace(0.0, 5.0, 7), [(2, 2)])
        first = traj.element_tracks[0][1][0]
        assert all(abs(v - first) < 1e-14 for v in traj.element_tracks[0][1])

    def test_modulus_constant_for_eigen_elements(self):
        triple = build_suq2(build_su2("3/2"), 2.0)
        h = dipole_hamiltonian(build_su2("3/2").J0, 1.3)
        traj = trajectory(triple.Jp, h, np.linspace(0.0, 4.0, 9))
        for (_, _), vals in traj.element_tracks:
            mags = [abs(v) for v in vals]
            assert max(mags) - min(mags) < 1e-12

    def test_two_mode_matches_spin_phase_law(self):
        s = 3
        triple = jordan_schwinger(build_q_oscillator(s), build_q_oscillator(s))
        h = two_mode_hamiltonian(s, 1.0, 2.0)  # omega2 - omega1 = 1 = muB
        traj = trajectory(triple.Jp, h, [0.0, np.pi / 2], [(4, 1)])
        v0, v1 = traj.element_tracks[0][1]
        assert v1 / v0 == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)

    def test_central_difference_matches_derivative(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        dt = 1e-3
        t0 = 0.8
        traj = trajectory(rep.Jp, h, [t0 - dt, t0, t0 + dt], [(1, 0)])
        vals = traj.element_tracks[0][1]
        fd = (vals[2] - vals[0]) / (2.0 * dt)
        exact = heisenberg_derivative(evolve(rep.Jp, h, t0), h).mat[1, 0]
        assert abs(fd - exact) < 1e-5

    def test_grid_validation(self):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        with pytest.raises(ParameterError):
            trajectory(rep.Jp, h, [])
        with pytest.raises(ParameterError):
            trajectory(rep.Jp, h, [1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_times_rejected(self, grid):
        rep = build_su2(1)
        h = dipole_hamiltonian(rep.J0, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            trajectory(rep.Jp, h, grid)

    def test_repeated_element_keeps_one_track(self):
        rep = build_su2("3/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        grid = np.linspace(0.0, 3.0, 4)
        once = trajectory(rep.Jp, h, grid, [(2, 1), (1, 0)])
        twice = trajectory(rep.Jp, h, grid, [(2, 1), (1, 0), (2, 1), (1, 0), (2, 1)])
        assert twice == once
        assert [rc for rc, _ in twice.element_tracks] == [(2, 1), (1, 0)]

    def test_trajectories_compare_by_their_samples(self):
        rep = build_su2("3/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        grid = np.linspace(0.0, 3.0, 4)
        traj = trajectory(rep.Jp, h, grid, [(2, 1)])
        assert traj == trajectory(rep.Jp, h, grid, [(2, 1)])
        assert traj != trajectory((2.0 * rep.Jp).relabel(rep.Jp.label), h, grid, [(2, 1)])
        assert traj != trajectory(rep.Jp, h, grid + 0.5, [(2, 1)])
        assert traj != trajectory(rep.Jp, h, grid, [(2, 1), (1, 0)])
        assert not traj.element_tracks[0][1].flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            {"family": "su2", "j": "5/2", "muB": 1.7},
            {"family": "suq2", "j": "7/2", "q": 1.3, "muB": -0.4},
            {"family": "witten", "j": "2", "r": 1.2},
            {"family": "ab_map", "j": "3", "q": 1.3, "split": "left"},
            {"family": "f_deform", "j": "25/2"},
            {"family": "hermitian_f", "j": "3/2", "q_phase": 7},
            {"family": "oscillator", "s": 6, "omega": 2.3},
            {"family": "q_oscillator", "s": 5},
            {"family": "jordan_schwinger", "s": 3, "omega1": 0.7, "omega2": 2.9},
        ],
    )
    def test_samples_equal_evolve_bit_for_bit(self, values):
        bundle = build_bundle(resolve_scenario(values))
        o, h = bundle.operands["Jp"], bundle.hamiltonian
        grid = [0.0, 1e-300, 0.1, 1.0, np.pi, 17.25, 1e6, 1e300]
        elements = list(zip(*np.nonzero(o.mat))) + [(0, 0), (o.dim - 1, 0)]
        traj = trajectory(o, h, grid, elements)
        assert traj.times == tuple(grid)
        for i, t in enumerate(grid):
            want = evolve(o, h, t).mat
            for (r, c), vals in traj.element_tracks:
                got = np.array([vals[i]])
                assert got.view(np.uint64).tolist() == want[r : r + 1, c].view(np.uint64).tolist()
                assert vals[i] == want[r, c] or np.isnan(want[r, c])

    def test_memory_scales_with_output_not_dimension(self):
        # dim 961: a steps x dim phase array would take about 300 MB
        bundle = build_bundle(resolve_scenario({"family": "jordan_schwinger", "s": 30}))
        o, h = bundle.operands["Jp"], bundle.hamiltonian
        element = tuple(int(i) for i in np.argwhere(o.mat)[0])
        grid = np.linspace(0.0, 10.0, 20000)
        tracemalloc.start()
        try:
            traj = trajectory(o, h, grid, [element])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.element_tracks[0][1]) == 20000
        assert peak < 16 * 2**20


class TestPhaseDerivation:
    def test_undeformed_spin_half(self):
        rep = build_su2("1/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        report = derive_ladder_dynamics_from_phase(rep, build_phase_operator(rep.j, 0.7), None, h)
        assert report.all_pass

    @pytest.mark.parametrize("theta0", [0.0, 0.3, np.pi / 2])
    @pytest.mark.parametrize("j", SPINS)
    def test_every_family_derives_from_the_phase_equation(self, j, theta0):
        rep, families = spin_families(j)
        h = dipole_hamiltonian(rep.J0, 1.0)
        for name, triple in families:
            phase = build_phase_operator(rep.j, theta0)
            report = derive_ladder_dynamics_from_phase(rep, phase, triple, h)
            assert report.all_pass, (name, [c.name for c in report.failures()])

    def test_negative_control_magnitude(self):
        rep = build_su2("1/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        report = derive_ladder_dynamics_from_phase(rep, build_phase_operator(rep.j, 0.0), None, h)
        control = next(c for c in report if c.name == "phase_equation_without_boundary")
        # dropping the boundary projector leaves a residual of muB*(2j+1)
        assert control.residual == pytest.approx(2.0, abs=1e-12)
        assert control.residual >= 0.5
        assert control.passed  # "ge" mode: failing the identity is the point

    def test_residuals_are_computed_in_report_order(self, monkeypatch):
        # U's own residuals are computed where they are reported, between
        # the ladder's, so the dense temporaries of the residuals are made
        # and freed in one fixed order
        computed = []

        def spy(a, b):
            computed.append(residual(a, b))
            return computed[-1]

        monkeypatch.setattr(checks, "residual", spy)  # the one evaluator's
        rep = build_su2("5/2")
        h = dipole_hamiltonian(rep.J0, 1.0)
        report = derive_ladder_dynamics_from_phase(rep, build_phase_operator(rep.j, 0.3), None, h)
        skipped = ("weight_commutes_with_h", "boundary_term_annihilated")
        assert report.checks[-1].residual > 0  # the control tells the orders apart
        # weight_commutes_with_h reports the larger of the first two
        assert computed[2:] == [c.residual for c in report if c.name not in skipped]

    def test_requires_dipole_hamiltonian(self):
        rep = build_su2(1)
        h = number_hamiltonian(build_finite_oscillator(2).N, 1.0)
        with pytest.raises(ParameterError):
            derive_ladder_dynamics_from_phase(rep, build_phase_operator(rep.j, 0.0), None, h)

    def test_oscillator_families_share_the_dynamics(self):
        for s in (1, 2, 3, 7):
            osc = build_finite_oscillator(s)
            h = number_hamiltonian(osc.N, 1.0)
            t = TOL.for_dim(s + 1)
            assert eigenoperator_residual(osc.a, h, -1j) < t
            assert eigenoperator_residual(osc.adag, h, 1j) < t
        qosc = build_q_oscillator(3)
        h = number_hamiltonian(qosc.N, 1.0)
        assert eigenoperator_residual(qosc.a, h, -1j) < TOL.for_dim(4)
        assert eigenoperator_residual(qosc.adag, h, 1j) < TOL.for_dim(4)
