"""Unitary phase operator of the ladder polar decomposition.

In the ascending-m basis the exponential phase operator is the cyclic shift
raising m by one step, with a single corner element exp(i*(2j+1)*theta0)
closing the cycle from the top state back to the bottom.  theta0 is the
reference angle fixing the phase window [theta0, theta0 + 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    commutator,
    matrix_unit,
    psd_sqrt,
    residual,
)
from .report import CheckReport
from .su2 import Su2Rep, parse_spin

__all__ = [
    "PhaseOperator",
    "build_phase_operator",
    "polar_decompose",
    "phase_number_commutator_residual",
    "phase_recovery_ambiguity",
]


@dataclass(frozen=True)
class PhaseOperator:
    """The unitary exp(i*phi) together with its reference angle."""

    dim: int
    theta0: float
    U: Operator

    @property
    def corner_phase(self) -> complex:
        return complex(np.exp(1j * self.dim * self.theta0))

    def adjoint(self) -> Operator:
        """exp(-i*phi); phi is hermitian, so this is just U-dagger."""
        return self.U.adjoint()


def build_phase_operator(j: float | int | str | Fraction, theta0: float = 0.0) -> PhaseOperator:
    """Cyclic-shift unitary with corner phase exp(i*(2j+1)*theta0)."""
    dim = int(parse_spin(j) * 2) + 1
    corner = [np.exp(1j * dim * theta0)]
    u = Operator._from_diagonals(dim, {-1: np.ones(dim - 1), dim - 1: corner}, "exp(i*phi)")
    return PhaseOperator(dim, float(theta0), u)


def polar_decompose(
    rep: Su2Rep,
    phase: PhaseOperator,
    tol: Tolerance = DEFAULT_TOL,
    report: CheckReport | None = None,
) -> tuple[Operator, Operator]:
    """Factor the ladder pair as J+ = sqrt(J+J-) U = U sqrt(J-J+).

    Returns (sqrt(J+J-), sqrt(J-J+)) for the phase operator U = ``phase``.
    All four reconstructions of J+ and J- are verified, and added to
    ``report``, when given, as the checks polar_raising_left/right and
    polar_lowering_left/right; the corner element of U always multiplies a
    zero modulus entry, so the result does not depend on theta0.
    """
    mod_p = psd_sqrt(rep.Jp @ rep.Jm, tol).relabel("sqrt(J+J-)")
    mod_m = psd_sqrt(rep.Jm @ rep.Jp, tol).relabel("sqrt(J-J+)")
    u = phase.U
    udag = phase.adjoint()
    t = tol.for_dim(rep.dim)
    checks = CheckReport() if report is None else report
    residuals = [
        checks.add(name, residual(product, target), t, category="phase").residual
        for name, product, target in (
            ("polar_raising_left", mod_p @ u, rep.Jp),
            ("polar_raising_right", u @ mod_m, rep.Jp),
            ("polar_lowering_left", mod_m @ udag, rep.Jm),
            ("polar_lowering_right", udag @ mod_p, rep.Jm),
        )
    ]
    worst = max(residuals)
    if worst > t:
        raise ArithmeticError(f"polar reconstruction failed: residual {worst:.3e}")
    return mod_p, mod_m


def phase_number_commutator_residual(rep: Su2Rep, phase: PhaseOperator) -> float:
    """Max residual of [exp(+-i*phi), J0] against its closed form.

    [U, J0] = -U + (2j+1) exp(i(2j+1)theta0) |-j><j| (hbar = 1), and
    [U^dag, J0] is minus its adjoint.
    """
    dim = phase.dim
    rhs = matrix_unit(dim, 0, dim - 1, dim * phase.corner_phase) - phase.U
    res_plus = residual(commutator(phase.U, rep.J0), rhs)
    res_minus = residual(commutator(phase.adjoint(), rep.J0), -1.0 * rhs.adjoint())
    return max(res_plus, res_minus)


def phase_recovery_ambiguity(
    rep: Su2Rep, phase: PhaseOperator, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Show that pinv(sqrt(J+J-)) J+ recovers exp(i*phi) except at the corner.

    The modulus sqrt(J+J-) has a zero eigenvalue at the bottom state, so the
    pseudo-inverse kills exactly the row holding the corner element: the
    reference-angle information is unrecoverable from the ladder operator.
    """
    dim = rep.dim
    t = tol.for_dim(dim)

    mod_p = psd_sqrt(rep.Jp @ rep.Jm, tol)
    evals, evecs = np.linalg.eigh(mod_p.mat)
    inv = np.where(evals > t, 1.0 / np.where(evals > t, evals, 1.0), 0.0)
    pinv = Operator((evecs * inv) @ evecs.conj().T)
    candidate = pinv @ rep.Jp

    diff = candidate.mat - phase.U.mat
    corner = diff[0, dim - 1]
    off_corner = diff.copy()
    off_corner[0, dim - 1] = 0.0

    report = CheckReport()
    report.add(
        "phase_recovery_off_corner",
        float(np.linalg.norm(off_corner)),
        t,
        detail="pinv(sqrt(J+J-))*J+ matches exp(i*phi) away from the corner",
        category="phase",
    )
    report.add(
        "phase_recovery_corner_lost",
        float(abs(corner)),
        0.5,
        detail=(
            f"undetermined element at (0, {dim - 1}): true value "
            f"exp(i*(2j+1)*theta0) = {phase.corner_phase!r} is not recovered"
        ),
        category="phase",
        mode="ge",
    )
    return report
