"""Dense complex operators and the residual/tolerance policy.

Everything downstream (representations, phase operators, deformations,
dynamics) is built from the small immutable :class:`Operator` wrapper around
a square ``complex128`` matrix and a handful of pure functions on it.

Products are dense numpy matmuls, except where an operand is exactly
diagonal (every off-diagonal entry zero; no tolerance) and the dimension is
at least 32 (below that BLAS costs no more than the checks).  Number
operators, J0, Hamiltonians and ladder moduli are diagonal, so ``@``,
:func:`commutator`, :func:`r_commutator` and the Heisenberg derivative form
diag(d) @ B as the row scaling d_i * B_ij and B @ diag(d) as the column
scaling B_ij * d_j: O(n^2) instead of O(n^3), which matters at the two-mode
dimension (s+1)^2.  The scaling is exact, not an approximation: every entry
of the dense product has one nonzero term, so both round the same single
product.  ``+ 0.0`` turns the -0.0 a scaling leaves in some zero entries
into +0.0, the sign the dense sum gives whenever one of its terms is +0.0
(BLAS kernels differ only where every term is -0.0; the sign of a zero
changes no residual or norm).  numpy's elementwise multiply and BLAS round
complex times complex differently, and 0 * inf is NaN in the dense sum
only, so a scaling is taken only when one operand is real and both are
finite; every other product stays dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "AlgebraError",
    "ShapeError",
    "ParameterError",
    "BadSpinError",
    "NotDiagonalError",
    "NotPSDError",
    "NegativeNormError",
    "SplitError",
    "Operator",
    "Tolerance",
    "DEFAULT_TOL",
    "identity",
    "zero",
    "from_diagonal",
    "matrix_unit",
    "commutator",
    "r_commutator",
    "diag_function",
    "psd_sqrt",
    "residual",
]


class AlgebraError(ValueError):
    """Base class for all validation failures raised by this package."""


class ShapeError(AlgebraError):
    """Operands have incompatible dimensions."""


class ParameterError(AlgebraError):
    """A numeric parameter is out of its valid range (r=0, q=-1, ...)."""


class BadSpinError(ParameterError):
    """j is not a positive half-integer."""


class NotDiagonalError(AlgebraError):
    """A diagonal operator was required."""


class NotPSDError(AlgebraError):
    """A positive-semidefinite hermitian operator was required."""


class NegativeNormError(AlgebraError):
    """A deformed ladder radicand went negative (negative-norm state)."""


class SplitError(AlgebraError):
    """The requested weight split is impossible (needs non-hermitian split)."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance, scaled by operator dimension."""

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.abs_tol < 0:
            raise ParameterError("abs_tol must be nonnegative")
        if not math.isfinite(self.abs_tol):
            raise ParameterError(f"abs_tol must be finite, got {self.abs_tol}")

    def for_dim(self, dim: int) -> float:
        return self.abs_tol * dim


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Operator:
    """A dim x dim complex matrix with an optional label.

    The entries array is copied on construction and marked read-only, so
    operators can be shared freely between threads.
    """

    mat: np.ndarray
    label: str = ""
    _dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"operator matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("operator dimension must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "_dim", arr.shape[0])

    @property
    def dim(self) -> int:
        return self._dim

    # Facts about the immutable entries that decide whether a product can be
    # a row/column scaling (see _product); each is computed on first use.
    @cached_property
    def _diagonal(self) -> np.ndarray | None:
        return _exact_diagonal(self.mat)

    @cached_property
    def _finite(self) -> bool:
        return bool(np.isfinite(self.mat).all())

    @cached_property
    def _real(self) -> bool:
        return not self.mat.imag.any()

    def relabel(self, label: str) -> "Operator":
        return Operator(self.mat, label)

    def adjoint(self) -> "Operator":
        return Operator(self.mat.conj().T, self.label)

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.mat).copy()

    def is_hermitian(self, tol: float) -> bool:
        return float(np.linalg.norm(self.mat - self.mat.conj().T)) <= tol

    def is_diagonal(self, tol: float) -> bool:
        off = self.mat - np.diag(np.diagonal(self.mat))
        return float(np.linalg.norm(off)) <= tol

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def _check_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"shape mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(_product(self, other))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.mat - other.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator products; * is scalar-only")
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.mat)

    def apply(self, vec: Iterable[complex]) -> np.ndarray:
        return self.mat @ np.asarray(vec, dtype=np.complex128)


def identity(dim: int, label: str = "I") -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128), label)


def zero(dim: int, label: str = "0") -> Operator:
    return Operator(np.zeros((dim, dim), dtype=np.complex128), label)


def from_diagonal(values: Iterable[complex], label: str = "") -> Operator:
    return Operator(np.diag(np.asarray(list(values), dtype=np.complex128)), label)


def matrix_unit(dim: int, row: int, col: int, value: complex = 1.0) -> Operator:
    """|row><col| scaled by value."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[row, col] = value
    return Operator(m)


def _exact_diagonal(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of m if every off-diagonal entry of m is zero, else None."""
    n = m.shape[0]
    # Flattened in memory order (row- or column-major; either way the same
    # entries are off the diagonal), the diagonal entries sit n + 1 apart, so
    # past the first one the array splits into rows of n off-diagonal entries
    # followed by the next diagonal entry.
    off_diagonal = m.ravel(order="K")[1:].reshape(n - 1, n + 1)[:, :n]
    return None if off_diagonal.any() else np.diagonal(m)


def _scales(diag: Operator, other: Operator) -> bool:
    """Whether diag is exactly diagonal and scaling other by it rounds like BLAS."""
    return (
        diag._diagonal is not None
        and diag._finite
        and other._finite
        and (diag._real or other._real)
    )


# Below this dimension a BLAS product costs no more than the numpy calls that
# decide whether a scaling is exact, so small products stay dense.
_MIN_SCALING_DIM = 32


def _product(a: Operator, b: Operator) -> np.ndarray:
    """a.mat @ b.mat, as a row/column scaling when an operand is exactly diagonal."""
    if a.dim >= _MIN_SCALING_DIM:
        if _scales(a, b):
            return a._diagonal[:, None] * b.mat + 0.0
        if _scales(b, a):
            return a.mat * b._diagonal[None, :] + 0.0
    return a.mat @ b.mat


def commutator(a: Operator, b: Operator) -> Operator:
    """AB - BA."""
    a._check_dim(b)
    return Operator(_product(a, b) - _product(b, a))


def r_commutator(a: Operator, b: Operator, r: float) -> Operator:
    """The deformed bracket r*AB - (1/r)*BA; reduces to [A,B] at r=1."""
    a._check_dim(b)
    if r == 0:
        raise ParameterError("parameter r must be nonzero")
    return Operator(r * _product(a, b) - (1.0 / r) * _product(b, a))


def diag_function(
    fn: Callable[[float], complex], d: Operator, tol: Tolerance = DEFAULT_TOL
) -> Operator:
    """Apply fn elementwise to the (real) diagonal of a diagonal operator."""
    t = tol.for_dim(d.dim)
    if not d.is_diagonal(t):
        raise NotDiagonalError("not diagonal within tolerance")
    diag = d.diagonal()
    if float(np.max(np.abs(diag.imag))) > t:
        raise NotDiagonalError("diagonal entries are not real within tolerance")
    return from_diagonal([fn(float(x)) for x in diag.real])


def psd_sqrt(a: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Unique positive-semidefinite square root of a hermitian PSD operator.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine violation and raises.
    """
    t = tol.for_dim(a.dim)
    if not a.is_hermitian(t):
        raise NotPSDError("not PSD: operator is not hermitian within tolerance")
    evals, evecs = np.linalg.eigh(a.mat)
    if float(evals[0]) < -t:
        raise NotPSDError(f"not PSD: eigenvalue {evals[0]:.3e} < -{t:.3e}")
    clamped = np.clip(evals, 0.0, None)
    root = (evecs * np.sqrt(clamped)) @ evecs.conj().T
    return Operator(root)


def residual(a: Operator, b: Operator) -> float:
    """Frobenius norm of A - B."""
    a._check_dim(b)
    return float(np.linalg.norm(a.mat - b.mat))
