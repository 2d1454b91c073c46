"""Exact Heisenberg-picture evolution and the phase-operator derivation.

Every Hamiltonian in scope is diagonal in the working basis, so evolution is
implemented by diagonal phase conjugation, O(t)[k,l] = O[k,l] *
exp(i (E_k - E_l) t) — exact up to rounding, no matrix exponential needed.

The central verification implemented here: the linear ladder dynamics
dJ+~/dt = -i muB J+~ follows for *every* deformation from one equation of
motion for the unitary phase operator, because the deformed ladder factors as
J+~ = U G with a diagonal weight G that commutes with H and annihilates the
top state (killing the phase equation's boundary term).
"""

from __future__ import annotations

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
from .phase import build_phase_operator
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
    phases = np.exp(1j * h.energies() * float(t))
    return Operator(phases[:, None] * o.mat * phases.conj()[None, :], o.label)


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

    Defaults to every nonzero element of O.  Eigen-operator elements trace
    pure phases, so their moduli stay constant along the track.
    """
    times = [float(t) for t in t_grid]
    if not times:
        raise ParameterError("time grid must be nonempty")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ParameterError("time grid must be strictly ascending")
    if elements is None:
        rows, cols = np.nonzero(o.mat)
        elements = list(zip(rows.tolist(), cols.tolist()))
    else:
        elements = [(int(r), int(c)) for r, c in elements]
        for r, c in elements:
            if not (0 <= r < o.dim and 0 <= c < o.dim):
                raise ParameterError(f"element ({r}, {c}) outside a dim-{o.dim} operator")
    samples = {rc: [] for rc in elements}
    for t in times:
        ot = evolve(o, h, t)
        for r, c in elements:
            samples[(r, c)].append(complex(ot.mat[r, c]))
    tracks = tuple((rc, tuple(vals)) for rc, vals in samples.items())
    return Trajectory(tuple(times), tracks, o.label)


def _phase_equation_sides(
    u: Operator, corner: Operator, h: Hamiltonian, muB: float
) -> tuple[Operator, Operator, Operator]:
    """(numeric dU/dt, analytic dU/dt with boundary term, truncated form)."""
    numeric = heisenberg_derivative(u, h)
    analytic = (-1j * muB) * (u - corner)
    truncated = (-1j * muB) * u
    return numeric, analytic, truncated


def derive_ladder_dynamics_from_phase(
    rep: Su2Rep,
    triple: DeformedTriple | None,
    theta0: float,
    h: Hamiltonian,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Recover the deformed ladder dynamics from the phase equation of motion.

    With J+~ = U G and J-~ = K U^dag (G = U^dag J+~ and K = J-~ U are the
    diagonal weight factors), the checks are:

    (i)   G and K commute with H;
    (ii)  right-multiplying dU/dt = (1/i)[U, H] by G gives -i muB J+~, the
          boundary projector of the phase equation being annihilated by G's
          zero at the top state;
    (iii) left-multiplying the U^dag equation by K gives +i muB J-~;

    plus the negative control: with the boundary projector removed the phase
    equation itself fails by a residual of muB*(2j+1), so the phase dynamics
    is *not* recoverable from the eigen-operator relation alone.
    """
    if "muB" not in h.params:
        raise ParameterError("phase derivation needs a dipole hamiltonian (muB)")
    muB = float(h.params["muB"])
    dim = rep.dim
    if h.dim != dim:
        raise ShapeError(f"shape mismatch: {h.dim} vs {dim}")
    jp_t = rep.Jp if triple is None else triple.Jp
    jm_t = rep.Jm if triple is None else triple.Jm
    if jp_t.dim != dim:
        raise ShapeError("triple dimension does not match the representation")
    t = tol.for_dim(dim)

    phase = build_phase_operator(rep.j, theta0)
    u, udag = phase.U, phase.adjoint()
    g = udag @ jp_t
    k = jm_t @ u
    corner_p = matrix_unit(dim, 0, dim - 1, dim * phase.corner_phase)
    corner_m = matrix_unit(dim, dim - 1, 0, dim * np.conj(phase.corner_phase))

    report = CheckReport()
    report.add(
        "weight_commutes_with_h",
        max(residual(g @ h.op, h.op @ g), residual(k @ h.op, h.op @ k)),
        t,
        detail="diagonal weights G = U^dag J+~ and K = J-~ U commute with H",
        category="derivation",
    )

    numeric, analytic, truncated = _phase_equation_sides(u, corner_p, h, muB)
    report.add(
        "phase_equation_with_boundary",
        residual(numeric, analytic),
        t,
        detail="(1/i)[U,H] = -i*muB*(U - (2j+1)e^{i(2j+1)theta0}|-j><j|)",
        category="derivation",
    )
    report.add(
        "boundary_term_annihilated",
        (corner_p @ g).norm(),
        t,
        detail="the boundary projector times G vanishes (top state is killed)",
        category="derivation",
    )
    report.add(
        "raising_dynamics_from_phase",
        residual(numeric @ g, (-1j * muB) * jp_t),
        t,
        detail="dU/dt * G reproduces dJ+~/dt = -i*muB*J+~",
        category="derivation",
    )

    numeric_m = heisenberg_derivative(udag, h)
    analytic_m = (1j * muB) * (udag - corner_m)
    report.add(
        "conjugate_phase_equation_with_boundary",
        residual(numeric_m, analytic_m),
        t,
        detail="(1/i)[U^dag,H] matches its closed form with boundary term",
        category="derivation",
    )
    report.add(
        "lowering_dynamics_from_phase",
        residual(k @ numeric_m, (1j * muB) * jm_t),
        t,
        detail="K * dU^dag/dt reproduces dJ-~/dt = +i*muB*J-~",
        category="derivation",
    )

    report.add(
        "phase_equation_without_boundary",
        residual(numeric, truncated),
        NEGATIVE_CONTROL_FLOOR * abs(muB),
        detail=(
            "negative control: dropping the boundary projector breaks the "
            "phase equation by muB*(2j+1); ladder dynamics alone cannot "
            "reconstruct the phase dynamics"
        ),
        category="control",
        mode="ge",
    )
    return report
