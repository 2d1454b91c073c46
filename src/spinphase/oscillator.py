"""Finite-dimensional oscillator, its phase operator, and two-mode maps.

The (s+1)-dimensional truncation admits a genuinely unitary phase operator:
the Fock-lowering shift sum_{n=1..s} |n-1><n| (not from n=0: |-1> does not
exist) with a corner element exp(i*(s+1)*phi0) from |s> back to |0>.  It is
the spin phase operator's adjoint at j = s/2 and theta0 = -phi0, its corner
term the spin's corner term's adjoint: one phase operator serves both.  The
annihilation operator is exactly the polar product a = U sqrt(weights) of the
level weights; the corner never survives because the weight of |0> is zero.

The plain oscillator's level weights are n.  The q-deformed oscillator at
q = exp(i*2*pi/(s+1)) uses [n - n0]_q + [n0]_q with n0 = (s+1)/4, which keeps
every radicand nonnegative (no negative-norm states on this finite ladder).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
    zero,
    _kron,
)
from .checks import require
from .deform import LADDER, DeformedTriple, q_number
from .phase import _require_finite_corner, build_phase_operator

__all__ = [
    "Oscillator",
    "build_finite_oscillator",
    "build_q_oscillator",
    "jordan_schwinger",
]


@dataclass(frozen=True)
class Oscillator:
    """Truncated oscillator of dimension s+1 with ladder a = U sqrt(weights):
    U = exp(i*Phi) with its ``corner`` term (s+1)e^{i(s+1)phi0}|s><0|, the
    nonnegative level ``weights``, the number operator N, a and its adjoint
    ``adag``, and the ``params`` its weights were formed from."""

    s: int
    weights: tuple[float, ...]
    params: dict
    N: Operator
    U: Operator
    corner: Operator
    a: Operator
    adag: Operator


def _oscillator(
    s: int, phi0: float, tol: Tolerance, name: str,
    levels: Callable[[int], tuple[list[float], dict]],
) -> Oscillator:
    """The oscillator with the level weights (and their params) ``levels(s + 1)``,
    each checked nonnegative, and its ladder operators labelled ``name``."""
    if s < 1:
        raise ParameterError(f"s must be a positive integer, got {s}")
    dim = s + 1
    values, params = levels(dim)
    t = tol.for_dim(dim)
    for n, val in enumerate(values):
        if val < -t:
            raise NegativeNormError(f"negative norm: radicand {val:.6g} at level n={n}")
    weights = tuple([max(val, 0.0) for val in values])
    _require_finite_corner(dim, phi0, "phi0")  # as the phase at -phi0 would, in phi0's words
    # the spin phase at -phi0, adjoint; adding zero makes each -0.0 of the adjoint +0.0
    phase, nought = build_phase_operator(Fraction(s, 2), -phi0), zero(dim)
    u = (phase.adjoint() + nought).relabel("exp(i*Phi)")
    a = (u @ from_diagonal(np.sqrt(weights))).relabel(name)
    return Oscillator(
        int(s), weights, params, from_diagonal(np.arange(dim), "N"), u,
        phase.boundary.adjoint() + nought, a, a.adjoint().relabel(name + "+"),
    )


def build_finite_oscillator(
    s: int, phi0: float = 0.0, tol: Tolerance = DEFAULT_TOL
) -> Oscillator:
    """Number operator, unitary phase, and a = U sqrt(N) at dimension s+1."""
    return _oscillator(s, phi0, tol, "a", lambda dim: ([float(n) for n in range(dim)], {}))


def build_q_oscillator(
    s: int, phi0: float = 0.0, tol: Tolerance = DEFAULT_TOL
) -> Oscillator:
    """q-oscillator ladder a_q = U sqrt([N-n0]_q + [n0]_q), n0 = (s+1)/4, its
    ``params`` n0 and q_arg (q = exp(i*q_arg)).

    All level radicands are checked nonnegative; s = 1 lands on the singular
    bracket q = -1 and is rejected by the q-number itself.
    """

    def radicands(dim: int) -> tuple[list[float], dict]:
        n0, q_arg = dim / 4.0, 2.0 * np.pi / dim
        q = complex(np.cos(q_arg), np.sin(q_arg))
        bracket_n0 = q_number(n0, q)  # the same for every level
        return [q_number(n - n0, q) + bracket_n0 for n in range(dim)], {"n0": n0, "q_arg": q_arg}

    return _oscillator(s, phi0, tol, "a_q", radicands)


def jordan_schwinger(
    osc_a: Oscillator, osc_b: Oscillator, tol: Tolerance = DEFAULT_TOL
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
    jp = _kron(osc_a.adag, osc_b.a, "J+~")
    jm = _kron(osc_a.a, osc_b.adag, "J-~")
    j0 = ((_kron(osc_a.N, eye) - _kron(eye, osc_b.N)) / 2.0).relabel("J0")
    values = {"J0": j0, "Jp": jp, "Jm": jm, "t": tol.for_dim(dim * dim), "hermitian": True}
    checks = require((*LADDER, "adjoint_pair"), values,
                     "Jordan-Schwinger ladder relations violated: {:.3e}")
    return DeformedTriple(
        jp, jm, j0, {"map": "jordan_schwinger", "params": {"s": osc_a.s}}, True, checks
    )
