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
from typing import Iterable, Sequence

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NotDiagonalError,
    Operator,
    ParameterError,
    ShapeError,
    Tolerance,
    matrix_unit,
    residual,
    _product,
)
from .deform import DeformedTriple
from .phase import PhaseOperator
from .report import CheckReport
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
    dim = s + 1
    n = np.diag(np.arange(dim, dtype=float))
    eye = np.eye(dim)
    h = omega1 * np.kron(n, eye) + omega2 * np.kron(eye, n)
    return Hamiltonian(
        Operator(h, "H"), {"omega1": float(omega1), "omega2": float(omega2)}
    )


def heisenberg_derivative(o: Operator, h: Hamiltonian) -> Operator:
    """dO/dt = (1/i) [O, H] with hbar = 1.

    H is diagonal within tolerance.  When it is exactly diagonal and real, as
    every Hamiltonian built here is, O is finite and the dimension is at
    least 32, O H and H O are formed as a column and a row scaling of O:
    O(n^2) instead of O(n^3), and bit for bit the dense products, each entry
    having one nonzero term (see :mod:`spinphase.operators`).  An H with
    off-diagonal entries inside the tolerance keeps the dense products, so
    those entries still count.
    """
    if o.dim != h.dim:
        raise ShapeError(f"shape mismatch: {o.dim} vs {h.dim}")
    return Operator((_product(o, h.op) - _product(h.op, o)) / 1j)


def eigenoperator_residual(o: Operator, h: Hamiltonian, lam: complex) -> float:
    """|| (1/i)[O, H] - lam*O ||_F; zero when O has purely exponential dynamics."""
    return residual(heisenberg_derivative(o, h), complex(lam) * o)


def evolve(o: Operator, h: Hamiltonian, t: float) -> Operator:
    """O(t) = exp(iHt) O exp(-iHt) by diagonal phase conjugation."""
    if o.dim != h.dim:
        raise ShapeError(f"shape mismatch: {o.dim} vs {h.dim}")
    phases = _phases(h.energies(), float(t))
    return Operator(phases[:, None] * o.mat * phases.conj()[None, :], o.label)


def _phases(energies: np.ndarray, t) -> np.ndarray:
    """exp(i E t) for a scalar t, or one row per time for a column of times."""
    arg = 1j * energies * t
    return np.exp(arg, out=arg)


@dataclass(frozen=True)
class Trajectory:
    """Sampled matrix elements of an evolving operator."""

    times: tuple[float, ...]
    element_tracks: tuple[tuple[tuple[int, int], tuple[complex, ...]], ...]
    operator_label: str = ""


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
    bit for bit.  Eigen-operator elements trace pure phases, so their moduli
    stay constant along the track.
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
    # freeing each array once used: the process's peak memory stays that of
    # the Python objects returned
    samples = phases[:, where[: len(rows)]]
    samples *= o.mat[rows, cols]
    col_phases = phases[:, where[len(rows) :]]
    del phases
    samples *= np.conjugate(col_phases, out=col_phases)
    del col_phases
    tracks = tuple(zip(elements, map(tuple, samples.T.tolist())))
    return Trajectory(tuple(times), tracks, o.label)


def phase_derivation_checks(
    u: Operator,
    moduli: tuple[Operator | None, Operator],
    corner: Operator | None,
    h: Hamiltonian,
    rate: float,
    ladder: Operator,
    t: float,
    details: dict[str, str],
    lowering: tuple[Operator, Operator] | None = None,
) -> CheckReport:
    """Recover a ladder operator's dynamics from its phase unitary's equation.

    The ladder is L U R with diagonal moduli (L, R) = ``moduli`` (L None for
    the identity), and U obeys dU/dt = (1/i)[U, H] = -i*rate*(U - corner),
    the corner being the boundary term closing U's cyclic shift.  Checks, in
    order: the phase equation and corner R = 0 (with a corner only);
    L dU/dt R = -i*rate*ladder; with ``lowering`` = (K, J-~), J-~ = K U^dag
    (needs the corner), the adjoint equation and K dU^dag/dt = +i*rate*J-~;
    and the negative control, (1/i)[U, H] missing -i*rate*U by at least
    NEGATIVE_CONTROL_FLOOR*max(|rate|, 1e-300), one rule for every family.
    The floor keeps the control able to fail: at rate 0 nothing is missed,
    and the control fails instead of passing with residual 0 >= tol 0.
    ``details`` maps each check's name to its report text; all but the
    control are held to t.
    """
    left, right = moduli
    report = CheckReport()

    def add(name: str, res: float) -> None:
        report.add(name, res, t, detail=details[name], category="derivation")

    numeric = heisenberg_derivative(u, h)
    if corner is not None:
        add("phase_equation_with_boundary", residual(numeric, (-1j * rate) * (u - corner)))
        add("boundary_term_annihilated", (corner @ right).norm())
    moved = numeric @ right if left is None else left @ numeric @ right
    name = "ladder_dynamics_from_phase" if lowering is None else "raising_dynamics_from_phase"
    add(name, residual(moved, (-1j * rate) * ladder))
    if lowering is not None:
        k, jm = lowering
        udag = u.adjoint()
        numeric_m = heisenberg_derivative(udag, h)
        analytic_m = (1j * rate) * (udag - corner.adjoint())
        add("conjugate_phase_equation_with_boundary", residual(numeric_m, analytic_m))
        add("lowering_dynamics_from_phase", residual(k @ numeric_m, (1j * rate) * jm))
    report.add(
        "phase_equation_without_boundary",
        residual(numeric, (-1j * rate) * u),
        NEGATIVE_CONTROL_FLOOR * max(abs(rate), 1e-300),
        detail=details["phase_equation_without_boundary"],
        category="control",
        mode="ge",
    )
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
    and the control are phase_derivation_checks with the corner
    (2j+1) e^{i(2j+1)theta0} |-j><j|.
    """
    if "muB" not in h.params:
        raise ParameterError("phase derivation needs a dipole hamiltonian (muB)")
    muB = float(h.params["muB"])
    dim = rep.dim
    if h.dim != dim:
        raise ShapeError(f"shape mismatch: {h.dim} vs {dim}")
    jp_t, jm_t = (rep.Jp, rep.Jm) if triple is None else (triple.Jp, triple.Jm)
    if jp_t.dim != dim or phase.dim != dim:
        raise ShapeError("triple or phase dimension does not match the representation")
    t = tol.for_dim(dim)

    u = phase.U
    g = phase.adjoint() @ jp_t
    k = jm_t @ u
    report = CheckReport()
    report.add(
        "weight_commutes_with_h",
        max(residual(g @ h.op, h.op @ g), residual(k @ h.op, h.op @ k)),
        t,
        detail="diagonal weights G = U^dag J+~ and K = J-~ U commute with H",
        category="derivation",
    )
    corner = matrix_unit(dim, 0, dim - 1, dim * phase.corner_phase)
    report.extend(
        phase_derivation_checks(
            u, (None, g), corner, h, muB, jp_t, t, _SPIN_DETAILS, lowering=(k, jm_t)
        )
    )
    return report
