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

The central verification (its checks are declared in ``checks.CHECKS``):
the ladder dynamics dJ+~/dt = -i muB J+~ follows for *every* deformation
from one equation of motion for the unitary phase operator, because J+~ =
U G with a diagonal weight G that commutes with H and annihilates the top
state, killing the phase equation's boundary term.  ``spin_motion`` holds
the operands no ladder enters, which a phase frame shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .checks import MODULI, MOTION, UD, UNSHIFTED, Jm, Jp, Scope, U, evaluate
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
            if not np.isfinite(self.op.diagonal()).all():  # the energies overflow
                flags = ", ".join(f"--{name}={value!r}" for name, value in self.params.items())
                raise ParameterError(f"the hamiltonian's energies are not finite at {flags}")
            raise ParameterError("hamiltonian must be hermitian")

    @property
    def dim(self) -> int:
        return self.op.dim

    def energies(self) -> np.ndarray:
        return self.op.diagonal().real


@np.errstate(over="ignore", invalid="ignore")  # Hamiltonian reports an overflow
def dipole_hamiltonian(j0: Operator, muB: float) -> Hamiltonian:
    """H = -muB * J0 for the dipole precessing in a z-axis field."""
    return Hamiltonian((-float(muB)) * j0, {"muB": float(muB)})


@np.errstate(over="ignore", invalid="ignore")
def number_hamiltonian(n_op: Operator, omega: float) -> Hamiltonian:
    """H = omega * N for one oscillator mode."""
    return Hamiltonian(float(omega) * n_op, {"omega": float(omega)})


@np.errstate(over="ignore", invalid="ignore")
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


SPIN_DERIVATION = (
    "weight_commutes_with_h", "phase_equation_with_boundary", "boundary_term_annihilated",
    "raising_dynamics_from_phase", "conjugate_phase_equation_with_boundary",
    "lowering_dynamics_from_phase", "phase_equation_without_boundary",
)
# the weights a spin ladder reads: J+~ = U G and J-~ = K U^dag
SPIN_WEIGHTS = {"G": UD @ Jp, "K": Jm @ U}


def spin_motion(rep: Su2Rep, phase: PhaseOperator, h: Hamiltonian, tol: Tolerance) -> Scope:
    """The operands of a spin scenario's checks that no ladder enters: the su2
    ladder (J+, J-, Jz), U and the moduli of its polar decomposition, and U's
    equation of motion under the dipole H with the corner
    (2j+1) e^{i(2j+1)theta0} |-j><j|, derived operands computed on first use."""
    rate = float(h.params["muB"])
    values = {
        "U": phase.U, "corner": phase.boundary, "H": h.op, "rate": rate, "I": identity(rep.dim),
        "J+": rep.Jp, "J-": rep.Jm, "Jz": rep.J0, "tol": tol, "t": tol.for_dim(rep.dim),
    }
    return Scope(values, {**MOTION, "R": UNSHIFTED, **MODULI})


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
    is *not* recoverable from the eigen-operator relation alone.  The checks
    are ``SPIN_DERIVATION`` of ``checks.CHECKS``.  Only G and K depend on the
    ladder: U's part (``spin_motion``) is the same for every deformation.
    """
    if "muB" not in h.params:
        raise ParameterError("phase derivation needs a dipole hamiltonian (muB)")
    dim = rep.dim
    if h.dim != dim:
        raise ShapeError(f"shape mismatch: {h.dim} vs {dim}")
    jp_t, jm_t = (rep.Jp, rep.Jm) if triple is None else (triple.Jp, triple.Jm)
    if jp_t.dim != dim or phase.dim != dim:
        raise ShapeError("triple or phase dimension does not match the representation")
    motion = spin_motion(rep, phase, h, tol)
    return evaluate(SPIN_DERIVATION, {"Jp": jp_t, "Jm": jm_t}, derived=SPIN_WEIGHTS, parent=motion)
