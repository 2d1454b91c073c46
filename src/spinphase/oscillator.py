"""Finite-dimensional oscillator, its phase operator, and two-mode maps.

The (s+1)-dimensional truncation admits a genuinely unitary phase operator:
the Fock-lowering shift sum_{n=1..s} |n-1><n| (not from n=0: |-1> does not
exist) with a corner element exp(i*(s+1)*phi0) from |s> back to |0>.  The
annihilation operator is exactly the polar product a = U sqrt(N); the corner
never survives because sqrt(N) vanishes on |0>.

The q-deformed oscillator at q = exp(i*2*pi/(s+1)) uses level weights
[n - n0]_q + [n0]_q with n0 = (s+1)/4, which keeps every radicand
nonnegative (no negative-norm states on this finite ladder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NegativeNormError,
    Operator,
    ParameterError,
    ShapeError,
    Tolerance,
    from_diagonal,
    identity,
    psd_sqrt,
    _kron,
)
from .checks import require
from .deform import LADDER, DeformedTriple, q_number
from .phase import PhaseOperator, _cyclic_phase

__all__ = [
    "FiniteOscillator",
    "QOscillator",
    "build_finite_oscillator",
    "build_q_oscillator",
    "jordan_schwinger",
]


@dataclass(frozen=True)
class FiniteOscillator:
    """Truncated harmonic oscillator of dimension s+1."""

    s: int
    phi0: float
    N: Operator
    a: Operator
    adag: Operator
    U: PhaseOperator


@dataclass(frozen=True)
class QOscillator:
    """Positive-norm q-oscillator at q = exp(i*2*pi/(s+1))."""

    s: int
    phi0: float
    n0: float
    q_arg: float
    N: Operator
    Nprime: Operator
    a_q: Operator
    a_qdag: Operator
    U: PhaseOperator
    radicands: tuple[float, ...]


def build_finite_oscillator(
    s: int, phi0: float = 0.0, tol: Tolerance = DEFAULT_TOL
) -> FiniteOscillator:
    """Number operator, unitary phase, and a = U sqrt(N) at dimension s+1."""
    if s < 1:
        raise ParameterError(f"s must be a positive integer, got {s}")
    phase = _cyclic_phase(s + 1, phi0, True, "exp(i*Phi)")
    n_op = from_diagonal(range(s + 1), "N")
    a = (phase.U @ psd_sqrt(n_op, tol)).relabel("a")
    return FiniteOscillator(int(s), float(phi0), n_op, a, a.adjoint().relabel("a+"), phase)


def build_q_oscillator(
    s: int, phi0: float = 0.0, tol: Tolerance = DEFAULT_TOL
) -> QOscillator:
    """q-oscillator ladder a_q = U sqrt([N-n0]_q + [n0]_q), n0 = (s+1)/4.

    All level radicands are checked nonnegative; s = 1 lands on the singular
    bracket q = -1 and is rejected by the q-number itself.
    """
    if s < 1:
        raise ParameterError(f"s must be a positive integer, got {s}")
    dim = s + 1
    n0 = dim / 4.0
    q_arg = 2.0 * np.pi / dim
    q = complex(np.cos(q_arg), np.sin(q_arg))
    t = tol.for_dim(dim)

    radicands = []
    for n in range(dim):
        val = q_number(n - n0, q) + q_number(n0, q)
        if val < -t:
            raise NegativeNormError(f"negative norm: radicand {val:.6g} at level n={n}")
        radicands.append(max(val, 0.0))

    phase = _cyclic_phase(s + 1, phi0, True, "exp(i*Phi)")
    n_op = from_diagonal(range(dim), "N")
    nprime = from_diagonal([n - n0 for n in range(dim)], "N'")
    a_q = (phase.U @ from_diagonal(np.sqrt(radicands))).relabel("a_q")
    return QOscillator(
        int(s), float(phi0), n0, q_arg, n_op, nprime,
        a_q, a_q.adjoint().relabel("a_q+"), phase, tuple(radicands),
    )


def jordan_schwinger(
    osc_a: QOscillator, osc_b: QOscillator, tol: Tolerance = DEFAULT_TOL
) -> DeformedTriple:
    """Two commuting q-oscillator modes realizing deformed SU(2) generators.

    On the (s+1)^2-dimensional product space (mode A first, row-major index
    n1*(s+1) + n2):  J+~ = a_q^dag b_q,  J-~ = b_q^dag a_q,
    J0 = (N1 - N2)/2.
    """
    if osc_a.s != osc_b.s:
        raise ShapeError(f"modes must share s, got {osc_a.s} and {osc_b.s}")
    dim = osc_a.s + 1
    eye = identity(dim)
    jp = _kron(osc_a.a_qdag, osc_b.a_q, "J+~")
    jm = _kron(osc_a.a_q, osc_b.a_qdag, "J-~")
    j0 = ((_kron(osc_a.N, eye) - _kron(eye, osc_b.N)) / 2.0).relabel("J0")
    values = {"J0": j0, "Jp": jp, "Jm": jm, "t": tol.for_dim(dim * dim), "hermitian": True}
    checks = require((*LADDER, "adjoint_pair"), values,
                     "Jordan-Schwinger ladder relations violated: {:.3e}")
    return DeformedTriple(
        jp, jm, j0, {"map": "jordan_schwinger", "params": {"s": osc_a.s}}, True, checks
    )
