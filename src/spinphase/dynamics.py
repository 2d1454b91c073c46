"""Exact Heisenberg-picture evolution and the phase-operator derivation.

Every Hamiltonian in scope is diagonal in the working basis, so evolution is
implemented by diagonal phase conjugation, O(t)[k,l] = O[k,l] *
exp(i (E_k - E_l) t) — exact up to rounding, no matrix exponential needed.
A trajectory samples that formula on a whole time grid in one numpy
broadcast, with the phases computed only for the tracked rows and columns:
memory O(steps x elements), the size of the output, and every sample bit
for bit the entry of evolve() at its time (one private helper holds the
phase formula, and numpy's elementwise complex multiply rounds the same way
whatever the array layout).

The central verification implemented here: the linear ladder dynamics
dJ+~/dt = -i muB J+~ follows for *every* deformation from one equation of
motion for the unitary phase operator, because the deformed ladder factors as
J+~ = U G with a diagonal weight G that commutes with H and annihilates the
top state (killing the phase equation's boundary term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NotDiagonalError,
    Operator,
    ParameterError,
    ShapeError,
    Tolerance,
    from_diagonal,
    identity,
    residual,
    _held,
    _kron,
    _larger,
)
from .deform import DeformedTriple
from .phase import PhaseOperator
from .report import CheckReport, CheckResult
from .su2 import Su2Rep

__all__ = [
    "Hamiltonian",
    "Trajectory",
    "dipole_hamiltonian",
    "number_hamiltonian",
    "two_mode_hamiltonian",
    "heisenberg_derivative",
    "eigenoperator_residual",
    "evolve",
    "derive_ladder_dynamics_from_phase",
    "trajectory",
]

NEGATIVE_CONTROL_FLOOR = 0.5


@dataclass(frozen=True)
class Hamiltonian:
    """A hermitian operator, diagonal in the working basis, plus parameters."""

    op: Operator
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = DEFAULT_TOL.for_dim(self.op.dim)
        if not self.op.is_diagonal(t):
            raise NotDiagonalError("hamiltonian must be diagonal in the working basis")
        if not self.op.is_hermitian(t):
            raise ParameterError("hamiltonian must be hermitian")

    @property
    def dim(self) -> int:
        return self.op.dim

    def energies(self) -> np.ndarray:
        return self.op.diagonal().real


def dipole_hamiltonian(j0: Operator, muB: float) -> Hamiltonian:
    """H = -muB * J0 for the dipole precessing in a z-axis field."""
    return Hamiltonian((-float(muB)) * j0, {"muB": float(muB)})


def number_hamiltonian(n_op: Operator, omega: float) -> Hamiltonian:
    """H = omega * N for one oscillator mode."""
    return Hamiltonian(float(omega) * n_op, {"omega": float(omega)})


def two_mode_hamiltonian(s: int, omega1: float, omega2: float) -> Hamiltonian:
    """H = omega1 N1 + omega2 N2 on the (s+1)^2 product space."""
    n, eye = from_diagonal(range(s + 1)), identity(s + 1)
    h = omega1 * _kron(n, eye) + omega2 * _kron(eye, n)
    return Hamiltonian(h.relabel("H"), {"omega1": float(omega1), "omega2": float(omega2)})


def heisenberg_derivative(o: Operator, h: Hamiltonian) -> Operator:
    """dO/dt = (1/i) [O, H] with hbar = 1.

    Every Hamiltonian built here is one real diagonal, so O H and H O are
    formed on O's diagonals, bit for bit the dense products (see
    :mod:`spinphase.operators`); an H with off-diagonal entries inside the
    tolerance, or a non-finite O, takes the dense products.
    """
    return (o @ h.op - h.op @ o) / 1j


def eigenoperator_residual(o: Operator, h: Hamiltonian, lam: complex) -> float:
    """|| (1/i)[O, H] - lam*O ||_F; zero when O has purely exponential dynamics."""
    return residual(heisenberg_derivative(o, h), complex(lam) * o)


def evolve(o: Operator, h: Hamiltonian, t: float) -> Operator:
    """O(t) = exp(iHt) O exp(-iHt) by diagonal phase conjugation."""
    if o.dim != h.dim:
        raise ShapeError(f"shape mismatch: {o.dim} vs {h.dim}")
    phases = _phases(h.energies(), float(t))
    return _held(phases[:, None] * o.mat * phases.conj()[None, :], o.label)


def _phases(energies: np.ndarray, t) -> np.ndarray:
    """exp(i E t) for a scalar t, or one row per time for a column of times."""
    arg = 1j * energies * t
    return np.exp(arg, out=arg)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled matrix elements of an evolving operator: each element's
    samples, one per time (``trajectory`` gives read-only complex arrays)."""

    times: tuple[float, ...]
    element_tracks: tuple[tuple[tuple[int, int], Sequence[complex]], ...]
    operator_label: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        pairs = list(zip(self.element_tracks, other.element_tracks))
        same_shape = len(pairs) == len(self.element_tracks) == len(other.element_tracks)
        return (self.times, self.operator_label) == (other.times, other.operator_label) and (
            same_shape and all(a == b and np.array_equal(x, y) for (a, x), (b, y) in pairs)
        )


def trajectory(
    o: Operator,
    h: Hamiltonian,
    t_grid: Sequence[float],
    elements: Iterable[tuple[int, int]] | None = None,
) -> Trajectory:
    """Sample evolve() on a time grid for selected (row, col) elements.

    Defaults to every nonzero element of O; a repeated element keeps one
    track, in first-seen order.  All samples come from one broadcast over the
    grid, phases being computed only for the tracked rows and columns, so
    memory is O(steps x elements); each sample equals evolve(o, h, t).mat[r, c]
    bit for bit.  Each track is a read-only column of that one samples array.
    Eigen-operator elements trace pure phases, so their moduli stay constant
    along the track.
    """
    times = [float(t) for t in t_grid]
    if not times:
        raise ParameterError("time grid must be nonempty")
    if not all(map(math.isfinite, times)):
        raise ParameterError("time grid must be finite")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ParameterError("time grid must be strictly ascending")
    if elements is None:
        rows, cols = np.nonzero(o.mat)
        elements = list(zip(rows.tolist(), cols.tolist()))
    else:
        elements = list(dict.fromkeys((int(r), int(c)) for r, c in elements))
        for r, c in elements:
            if not (0 <= r < o.dim and 0 <= c < o.dim):
                raise ParameterError(f"element ({r}, {c}) outside a dim-{o.dim} operator")
    if o.dim != h.dim:
        raise ShapeError(f"shape mismatch: {o.dim} vs {h.dim}")
    rows = np.array([r for r, _ in elements], dtype=np.intp)
    cols = np.array([c for _, c in elements], dtype=np.intp)
    levels, where = np.unique(np.concatenate([rows, cols]), return_inverse=True)
    phases = _phases(h.energies()[levels], np.array(times)[:, None])
    # (phase_r * O[r, c]) * conj(phase_c), evolve's order, in place and
    # freeing each array once used: the peak memory stays that of the samples
    samples = phases[:, where[: len(rows)]]
    samples *= o.mat[rows, cols]
    col_phases = phases[:, where[len(rows) :]]
    del phases
    samples *= np.conjugate(col_phases, out=col_phases)
    del col_phases
    samples.setflags(write=False)
    return Trajectory(tuple(times), tuple(zip(elements, samples.T)), o.label)


@dataclass(frozen=True, eq=False)
class PhaseMotion:
    """A phase unitary's equation of motion dU/dt = (1/i)[U, H] = -i*rate*(U - corner):
    the part of the phase derivation that no ladder enters.

    Each part is computed on first use and then kept: ``du`` is (1/i)[U, H],
    ``du_dag`` is (1/i)[U^dag, H], and ``with_boundary``,
    ``conjugate_with_boundary`` (both need the corner) and
    ``without_boundary`` are the checks of the phase equation with the
    corner, its conjugate and the negative control.  So the first
    derivation from a motion computes each part just before it reports it,
    and the large temporaries of its dense residuals are freed and allocated
    in one fixed order.  ``t`` and ``details`` are what the ladder's checks
    are reported with.
    """

    u: Operator
    corner: Operator | None
    h: Hamiltonian
    rate: float
    t: float
    details: dict[str, str]

    @cached_property
    def du(self) -> Operator:
        return heisenberg_derivative(self.u, self.h)

    @cached_property
    def du_dag(self) -> Operator:
        return heisenberg_derivative(self.u.adjoint(), self.h)

    def _check(self, name: str, res: float) -> CheckResult:
        detail = self.details[name]
        return CheckReport().add(name, res, self.t, detail=detail, category="derivation")

    @cached_property
    def with_boundary(self) -> CheckResult:
        analytic = (-1j * self.rate) * (self.u - self.corner)
        return self._check("phase_equation_with_boundary", residual(self.du, analytic))

    @cached_property
    def conjugate_with_boundary(self) -> CheckResult:
        analytic = (1j * self.rate) * (self.u.adjoint() - self.corner.adjoint())
        res = residual(self.du_dag, analytic)
        return self._check("conjugate_phase_equation_with_boundary", res)

    @cached_property
    def without_boundary(self) -> CheckResult:
        return CheckReport().add(
            "phase_equation_without_boundary",
            residual(self.du, (-1j * self.rate) * self.u),
            NEGATIVE_CONTROL_FLOOR * max(abs(self.rate), 1e-300),
            detail=self.details["phase_equation_without_boundary"],
            category="control",
            mode="ge",
        )


def ladder_from_phase(
    motion: PhaseMotion,
    moduli: tuple[Operator | None, Operator],
    ladder: Operator,
    lowering: tuple[Operator, Operator] | None = None,
) -> CheckReport:
    """Recover a ladder operator's dynamics from its phase unitary's equation.

    The ladder is L U R with diagonal moduli (L, R) = ``moduli`` (L None for
    the identity), and U = ``motion.u`` obeys dU/dt = (1/i)[U, H] =
    -i*rate*(U - corner), the corner being the boundary term closing U's
    cyclic shift.  Checks, in order: the phase equation and corner R = 0
    (with a corner only); L dU/dt R = -i*rate*ladder; with ``lowering`` =
    (K, J-~), J-~ = K U^dag (needs the corner), the adjoint equation and
    K dU^dag/dt = +i*rate*J-~; and the negative control, (1/i)[U, H] missing
    -i*rate*U by at least NEGATIVE_CONTROL_FLOOR*max(|rate|, 1e-300), one
    rule for every family.  The floor keeps the control able to fail: at
    rate 0 nothing is missed, and the control fails instead of passing with
    residual 0 >= tol 0.  The motion's ``details`` map each check's name to
    its report text; all but the control are held to ``motion.t``.  The
    checks U's equation alone decides are taken from ``motion``, computed
    there once, and only those the ladder enters are computed here.
    """
    left, right = moduli
    rate = motion.rate
    report = CheckReport()

    def add(name: str, res: float) -> None:
        report.add(name, res, motion.t, detail=motion.details[name], category="derivation")

    if motion.corner is not None:
        report.checks.append(motion.with_boundary)
        add("boundary_term_annihilated", (motion.corner @ right).norm())
    moved = motion.du @ right if left is None else left @ motion.du @ right
    name = "ladder_dynamics_from_phase" if lowering is None else "raising_dynamics_from_phase"
    add(name, residual(moved, (-1j * rate) * ladder))
    if lowering is not None:
        k, jm = lowering
        report.checks.append(motion.conjugate_with_boundary)
        add("lowering_dynamics_from_phase", residual(k @ motion.du_dag, (1j * rate) * jm))
    report.checks.append(motion.without_boundary)
    return report


_SPIN_DETAILS = {
    "phase_equation_with_boundary": "(1/i)[U,H] = -i*muB*(U - (2j+1)e^{i(2j+1)theta0}|-j><j|)",
    "boundary_term_annihilated": "the boundary projector times G vanishes (top state is killed)",
    "raising_dynamics_from_phase": "dU/dt * G reproduces dJ+~/dt = -i*muB*J+~",
    "conjugate_phase_equation_with_boundary": (
        "(1/i)[U^dag,H] matches its closed form with boundary term"
    ),
    "lowering_dynamics_from_phase": "K * dU^dag/dt reproduces dJ-~/dt = +i*muB*J-~",
    "phase_equation_without_boundary": (
        "negative control: dropping the boundary projector breaks the "
        "phase equation by muB*(2j+1); ladder dynamics alone cannot "
        "reconstruct the phase dynamics"
    ),
}


def spin_phase_motion(phase: PhaseOperator, h: Hamiltonian, t: float) -> PhaseMotion:
    """The spin phase unitary's equation of motion under the dipole H, with
    the corner (2j+1) e^{i(2j+1)theta0} |-j><j|."""
    return PhaseMotion(phase.U, phase.boundary, h, float(h.params["muB"]), t, _SPIN_DETAILS)


def spin_ladder_from_phase(motion: PhaseMotion, jp: Operator, jm: Operator) -> CheckReport:
    """The checks of derive_ladder_dynamics_from_phase for the ladder (jp,
    jm), taking the ladder-free ones from the spin ``motion``."""
    u, h = motion.u, motion.h.op
    g = u.adjoint() @ jp
    k = jm @ u
    report = CheckReport()
    report.add(
        "weight_commutes_with_h",
        _larger(residual(g @ h, h @ g), residual(k @ h, h @ k)),
        motion.t,
        detail="diagonal weights G = U^dag J+~ and K = J-~ U commute with H",
        category="derivation",
    )
    report.extend(ladder_from_phase(motion, (None, g), jp, lowering=(k, jm)))
    return report


def derive_ladder_dynamics_from_phase(
    rep: Su2Rep,
    phase: PhaseOperator,
    triple: DeformedTriple | None,
    h: Hamiltonian,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Recover the deformed ladder dynamics from the phase equation of motion.

    With U the unitary of ``phase``, J+~ = U G and J-~ = K U^dag (G = U^dag
    J+~ and K = J-~ U are the diagonal weight factors), the checks are:

    (i)   G and K commute with H;
    (ii)  right-multiplying dU/dt = (1/i)[U, H] by G gives -i muB J+~, the
          boundary projector of the phase equation being annihilated by G's
          zero at the top state;
    (iii) left-multiplying the U^dag equation by K gives +i muB J-~;

    plus the negative control: with the boundary projector removed the phase
    equation itself fails by a residual of muB*(2j+1), so the phase dynamics
    is *not* recoverable from the eigen-operator relation alone.  (ii), (iii)
    and the control are ladder_from_phase with the corner
    (2j+1) e^{i(2j+1)theta0} |-j><j|.  Only G and K depend on the ladder:
    U's part (spin_phase_motion) is the same for every deformation.
    """
    if "muB" not in h.params:
        raise ParameterError("phase derivation needs a dipole hamiltonian (muB)")
    dim = rep.dim
    if h.dim != dim:
        raise ShapeError(f"shape mismatch: {h.dim} vs {dim}")
    jp_t, jm_t = (rep.Jp, rep.Jm) if triple is None else (triple.Jp, triple.Jm)
    if jp_t.dim != dim or phase.dim != dim:
        raise ShapeError("triple or phase dimension does not match the representation")
    return spin_ladder_from_phase(spin_phase_motion(phase, h, tol.for_dim(dim)), jp_t, jm_t)
