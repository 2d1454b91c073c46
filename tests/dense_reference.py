"""The dense operator core the weighted-shift core replaced, kept as an oracle.

Every operator is a dim x dim ``complex128`` matrix, copied on construction;
a product is a BLAS matmul, or a row/column scaling when an operand is
exactly diagonal, finite and real-paired at dimension >= 32 (bit for bit the
matmul).  ``dense_core()`` swaps these names into every ``spinphase`` module,
so the package's own builders and check suites run on this core, and a test
can compare each built operator and each residual with the structured core's.
The constructors the structured core added (``Operator._from_diagonals``,
``_held``, ``_kron``) are written here the way the dense builders formed those
matrices: entries placed into a filled array, and ``np.kron``.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

import spinphase.operators as structured
from spinphase.operators import (
    DEFAULT_TOL,
    NotPSDError,
    ParameterError,
    ShapeError,
    Tolerance,
)


@dataclass(frozen=True, eq=False)
class Operator:
    """A dim x dim complex matrix with an optional label."""

    mat: np.ndarray
    label: str = ""
    _dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"operator matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "_dim", arr.shape[0])

    @classmethod
    def _from_diagonals(cls, dim, diagonals: dict, label="", fill=0j, order="C"):
        m = np.full((dim, dim), fill, dtype=np.complex128, order=order)
        for k, values in diagonals.items():
            rows = np.arange(max(0, -k), dim - max(0, k))
            m[rows, rows + k] = values
        return cls(m, label)

    @property
    def dim(self) -> int:
        return self._dim

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

    def diagonal(self, offset: int = 0) -> np.ndarray:
        return np.diagonal(self.mat, offset).copy()

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

    def __truediv__(self, scalar: complex) -> "Operator":
        return Operator(self.mat / scalar)

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
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[row, col] = value
    return Operator(m)


def _held(mat: np.ndarray, label: str = "") -> Operator:
    return Operator(mat, label)


def _kron(a: Operator, b: Operator, label: str = "") -> Operator:
    return Operator(np.kron(a.mat, b.mat), label)


def _exact_diagonal(m: np.ndarray) -> np.ndarray | None:
    n = m.shape[0]
    off_diagonal = m.ravel(order="K")[1:].reshape(n - 1, n + 1)[:, :n]
    return None if off_diagonal.any() else np.diagonal(m)


def _scales(diag: Operator, other: Operator) -> bool:
    return (
        diag._diagonal is not None
        and diag._finite
        and other._finite
        and (diag._real or other._real)
    )


_MIN_SCALING_DIM = 32


def _product(a: Operator, b: Operator) -> np.ndarray:
    if a.dim >= _MIN_SCALING_DIM:
        if _scales(a, b):
            return a._diagonal[:, None] * b.mat + 0.0
        if _scales(b, a):
            return a.mat * b._diagonal[None, :] + 0.0
    return a.mat @ b.mat


def commutator(a: Operator, b: Operator) -> Operator:
    a._check_dim(b)
    return Operator(_product(a, b) - _product(b, a))


def r_commutator(a: Operator, b: Operator, r: float) -> Operator:
    a._check_dim(b)
    if r == 0:
        raise ParameterError("parameter r must be nonzero")
    return Operator(r * _product(a, b) - (1.0 / r) * _product(b, a))


def _operator_product(a: Operator, b: Operator) -> Operator:
    """The dense ``_product`` as an Operator, as the structured core's returns one."""
    return Operator(_product(a, b))


def psd_sqrt(a: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    t = tol.for_dim(a.dim)
    if not a.is_hermitian(t):
        raise NotPSDError("not PSD: operator is not hermitian within tolerance")
    evals, evecs = np.linalg.eigh(a.mat)
    if float(evals[0]) < -t:
        raise NotPSDError(f"not PSD: eigenvalue {evals[0]:.3e} < -{t:.3e}")
    clamped = np.clip(evals, 0.0, None)
    return Operator((evecs * np.sqrt(clamped)) @ evecs.conj().T)


def residual(a: Operator, b: Operator) -> float:
    a._check_dim(b)
    return float(np.linalg.norm(a.mat - b.mat))


REPLACEMENTS = {
    "Operator": Operator,
    "identity": identity,
    "zero": zero,
    "from_diagonal": from_diagonal,
    "matrix_unit": matrix_unit,
    "commutator": commutator,
    "r_commutator": r_commutator,
    "psd_sqrt": psd_sqrt,
    "residual": residual,
    "_product": _operator_product,
    "_kron": _kron,
    "_held": _held,
}


@contextlib.contextmanager
def dense_core():
    """Run the package on this dense core: every ``spinphase`` module name bound
    to one of the structured core's objects is rebound to its dense twin."""
    originals = {name: getattr(structured, name) for name in REPLACEMENTS}
    swapped = []
    for module in [m for key, m in sys.modules.items() if key.startswith("spinphase")]:
        for name, replacement in REPLACEMENTS.items():
            if getattr(module, name, None) is originals[name]:
                swapped.append((module, name, originals[name]))
                setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name, original in swapped:
            setattr(module, name, original)
