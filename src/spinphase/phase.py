"""Unitary phase operator of the ladder polar decomposition.

In the ascending-m basis the exponential phase operator is the cyclic shift
raising m by one step, with a single corner element exp(i*(2j+1)*theta0)
closing the cycle from the top state back to the bottom.  theta0 is the
reference angle fixing the phase window [theta0, theta0 + 2*pi).  The
oscillator's runs the same cycle the other way; ``_cyclic_phase`` builds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .checks import MODULI, UD, UNSHIFTED, Scope, evaluate, require
from .operators import DEFAULT_TOL, Operator, ParameterError, Tolerance, matrix_unit
from .su2 import Su2Rep, parse_spin

__all__ = [
    "PhaseOperator",
    "build_phase_operator",
    "polar_decompose",
    "phase_number_commutator_residual",
]


@dataclass(frozen=True)
class PhaseOperator:
    """The unitary exp(i*phi) together with its reference angle: a cyclic
    shift closed by exp(i*dim*theta0) at its wrap-around entry, (0, dim-1)
    for the spin's raising shift or, with ``lowering``, (dim-1, 0)."""

    dim: int
    theta0: float
    U: Operator
    lowering: bool = False

    @property
    def corner_phase(self) -> complex:
        return complex(np.exp(1j * self.dim * self.theta0))

    @cached_property
    def boundary(self) -> Operator:
        """dim*exp(i*dim*theta0) at U's wrap-around entry: the boundary term
        of U's equation of motion dU/dt = -i*rate*(U - boundary)."""
        row, col = (self.dim - 1, 0) if self.lowering else (0, self.dim - 1)
        return matrix_unit(self.dim, row, col, self.dim * self.corner_phase)

    def adjoint(self) -> Operator:
        """exp(-i*phi); phi is hermitian, so this is just U-dagger."""
        return self.U.adjoint()


def _cyclic_phase(dim: int, theta0: float, lowering: bool, label: str) -> PhaseOperator:
    """The cyclic shift raising the index by one (lowering it, with
    ``lowering``), closed by exp(i*dim*theta0) at its wrap-around entry."""
    shift, name = (1, "phi0") if lowering else (-1, "theta0")
    if not math.isfinite(dim * theta0):  # exp(i*dim*theta0) is finite where this is
        raise ParameterError(
            f"--{name}={theta0!r} makes the corner phase exp(i*{dim}*{name}) not finite"
        )
    diagonals = {shift: np.ones(dim - 1), -shift * (dim - 1): [np.exp(1j * dim * theta0)]}
    u = Operator._from_diagonals(dim, diagonals, label)
    return PhaseOperator(dim, float(theta0), u, lowering)


def build_phase_operator(j: float | int | str | Fraction, theta0: float = 0.0) -> PhaseOperator:
    """Cyclic-shift unitary with corner phase exp(i*(2j+1)*theta0)."""
    return _cyclic_phase(int(parse_spin(j) * 2) + 1, theta0, False, "exp(i*phi)")


POLAR = ("polar_raising_left", "polar_raising_right", "polar_lowering_left", "polar_lowering_right")


def polar_decompose(
    rep: Su2Rep, phase: PhaseOperator, tol: Tolerance = DEFAULT_TOL
) -> tuple[Operator, Operator]:
    """Factor the ladder pair as J+ = sqrt(J+J-) U = U sqrt(J-J+).

    Returns (sqrt(J+J-), sqrt(J-J+)) for the phase operator U = ``phase``.
    All four reconstructions of J+ and J- (the checks polar_raising_left/right
    and polar_lowering_left/right) must hold, or ArithmeticError is raised;
    the corner element of U always multiplies a zero modulus entry, so the
    result does not depend on theta0.
    """
    values = {"U": phase.U, "J+": rep.Jp, "J-": rep.Jm, "tol": tol, "t": tol.for_dim(rep.dim)}
    scope = Scope(values, {"Ud": UD, **MODULI})
    moduli = scope["Mp"], scope["Mm"]  # the gate drops them after their last check
    require(POLAR, scope, "polar reconstruction failed: residual {:.3e}")
    return moduli


def phase_number_commutator_residual(rep: Su2Rep, phase: PhaseOperator) -> float:
    """Max residual of [exp(+-i*phi), J0] against its closed form.

    [U, J0] = -U + (2j+1) exp(i(2j+1)theta0) |-j><j| (hbar = 1), and
    [U^dag, J0] is minus its adjoint.
    """
    values = {"U": phase.U, "Jz": rep.J0, "corner": phase.boundary, "t": 0.0}  # no verdict
    scope = Scope(values, {"Ud": UD, "R": UNSHIFTED})
    return evaluate(("phase_number_commutator",), scope).checks[0].residual
