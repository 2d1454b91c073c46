"""Weighted-shift operators and the residual/tolerance policy.

Every ladder here is a cyclic shift times a diagonal weight (J+~ = U G), so
an :class:`Operator` stores a short map from index offset k to its entries
M[i, i+k], plus the one signed zero of every other entry (-0j after an
adjoint, as in the dense conjugate).  J0, N and H are one diagonal, a ladder
one, a phase unitary two and the two-mode U_A^dag (x) U_B four; an operator
made from a matrix keeps the matrix.  Sums, scalar multiples, adjoints,
tensor products, the diagonal and hermitian tests and the root of a
diagonal operator are O(n) numpy work on the diagonals, entry for entry the
dense operations.  ``mat`` is built only when read, in the dense
arithmetic's memory order (Fortran for an adjoint or a sum of two such).

A product is formed on the diagonals only when every entry of the result
has at most one nonzero term, one operand is real and both are finite
(``_structured`` decides, for ``@``, commutators, the Heisenberg derivative
and ``apply``): each entry is then the one rounded product BLAS gives, with
zeros made +0.0.  numpy's complex multiply may fuse where BLAS does not, and
0 * inf is NaN only in the dense sum, so any other product materializes both
operands and calls BLAS.  Residual norms stay dense: ``residual``
materializes the difference for ``np.linalg.norm``, whose summation order
sets the last bits of every printed residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
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


@lru_cache(maxsize=4096)
def _starts(dim: int, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """Where each diagonal starts in an operator's data; the last is the fill's index."""
    return (0, *accumulate(dim - abs(k) for k in offsets))


class Operator:
    """A dim x dim complex operator with an optional label; ``Operator(mat)``
    copies a square matrix.  Operators and their read-only ``mat`` are
    immutable, so they can be shared freely between threads."""

    __slots__ = ("dim", "label", "_offsets", "_data", "_order", "_dense", "_facts")

    def __init__(self, mat, label: str = "") -> None:
        arr = np.array(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"operator matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("operator dimension must be positive")
        self._set(arr.shape[0], label, None, None, "C", arr)

    def _set(self, dim, label, offsets, data, order="C", dense=None) -> "Operator":
        """Stored as (offsets, data), or holding the read-only array ``dense``."""
        self.dim, self.label, self._offsets, self._data = dim, label, offsets, data
        self._order, self._dense, self._facts = order, dense, None
        if dense is not None:
            dense.setflags(write=False)
        return self

    @classmethod
    def _from_diagonals(cls, dim, diagonals: dict, label="", fill=0j, order="C") -> "Operator":
        """Entries ``diagonals[k]`` on each diagonal k (dim - |k| of them),
        ``fill`` elsewhere."""
        parts = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in diagonals.values()]
        data = np.concatenate([*parts, np.array([fill], dtype=np.complex128)])
        return object.__new__(cls)._set(dim, label, tuple(diagonals), data, order)

    @property
    def mat(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self._array()
            self._dense.setflags(write=False)
        return self._dense

    def _array(self) -> np.ndarray:
        """The dense matrix: the one held, else built afresh."""
        if self._dense is not None:
            return self._dense
        n, order = self.dim, self._order
        m = np.zeros((n, n), dtype=np.complex128, order=order)
        if self._data[-1:].tobytes() != bytes(16):  # a fill other than +0.0 + 0.0j
            m[...] = self._data[-1]
        m.ravel(order="K")[_positions(n, self._offsets, order)] = self._data[:-1]
        return m

    def _items(self) -> list[tuple[int, np.ndarray]]:
        """(offset, entries) of each stored diagonal."""
        s = _starts(self.dim, self._offsets)
        return [(k, self._data[s[i] : s[i + 1]]) for i, k in enumerate(self._offsets)]

    def _finite_real(self) -> tuple[bool, bool]:
        """Whether the stored entries are finite, and whether they are real."""
        if self._facts is None:
            d = self._data
            self._facts = np.count_nonzero(np.isfinite(d)) == len(d), not np.count_nonzero(d.imag)
        return self._facts

    def _map(self, data, label="", offsets=None, order=None) -> "Operator":
        """New entries on this operator's diagonals (or on ``offsets``)."""
        op = object.__new__(Operator)
        op.dim, op.label, op._data, op._dense, op._facts = self.dim, label, data, None, None
        op._offsets = self._offsets if offsets is None else offsets
        op._order = self._order if order is None else order
        return op

    def relabel(self, label: str) -> "Operator":
        return _held(self._dense, label) if self._offsets is None else self._map(self._data, label)

    def adjoint(self) -> "Operator":
        if self._offsets is None:
            return _held(self._dense.conj().T, self.label)
        # diagonal -k of the adjoint is diagonal k conjugated, entry for entry
        flipped = "C" if self._order == "F" else "F"
        return self._map(self._data.conj(), self.label, tuple(-k for k in self._offsets), flipped)

    def diagonal(self, offset: int = 0) -> np.ndarray:
        if self._offsets is None:
            return np.diagonal(self._dense, offset).copy()
        entries = dict(self._items()).get(offset, self._data[-1:].repeat(self.dim - abs(offset)))
        return entries.copy()

    def is_hermitian(self, tol: float) -> bool:
        diff = self - self.adjoint()
        return float(np.linalg.norm(diff._data if diff._dense is None else diff._dense)) <= tol

    def is_diagonal(self, tol: float) -> bool:
        if self._offsets is None:
            return float(np.linalg.norm(self._dense - np.diag(np.diagonal(self._dense)))) <= tol
        return math.hypot(0.0, *(np.linalg.norm(v) for k, v in self._items() if k)) <= tol

    def norm(self) -> float:
        return float(np.linalg.norm(self._array()))

    def _check_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"shape mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return _product(self, other)

    def _binary(self, op, other: "Operator") -> "Operator":
        self._check_dim(other)
        if self._offsets is None or other._offsets is None:
            return _held(op(self._array(), other._array()))
        order = "F" if self._order == other._order == "F" else "C"
        if self._offsets == other._offsets:
            return self._map(op(self._data, other._data), "", None, order)
        offsets, ia, ib = _union(self.dim, self._offsets, other._offsets)
        return self._map(op(self._data[ia], other._data[ib]), "", offsets, order)

    def _scalar(self, op, *scalar) -> "Operator":
        if any(isinstance(x, Operator) for x in scalar):
            raise TypeError("use @ for operator products; * is scalar-only")
        if self._offsets is None:
            return _held(op(self._dense, *scalar))
        return self._map(op(self._data, *scalar))

    def __add__(self, other: "Operator") -> "Operator":
        return self._binary(np.add, other)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._binary(np.subtract, other)

    def __mul__(self, scalar: complex) -> "Operator":
        return self._scalar(np.multiply, scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "Operator":
        return self._scalar(np.true_divide, scalar)

    def __neg__(self) -> "Operator":
        return self._scalar(np.negative)

    def apply(self, vec: Iterable[complex]) -> np.ndarray:
        x = np.asarray(vec, dtype=np.complex128)
        # one diagonal gives each entry of the image one term, M[i, i+k] x[i+k]
        if len(self._offsets or ()) != 1 or not _structured(self, _diagonal(x)):
            return self._array() @ x
        k, n, out = self._offsets[0], self.dim, np.zeros(self.dim, dtype=np.complex128)
        out[max(0, -k) : n - max(0, k)] = self._data[:-1] * x[max(0, k) : n - max(0, -k)]
        return out + 0.0


@lru_cache(maxsize=4096)
def _positions(dim: int, offsets: tuple[int, ...], order: str) -> np.ndarray:
    """Where the stored entries sit in the flattened dense matrix: entry
    (i, i+k) at i*dim + i+k in C order, at (i+k)*dim + i in Fortran order."""
    rows = [np.arange(max(0, -k), dim - max(0, k)) for k in offsets]
    flat = [r * dim + r + k if order == "C" else (r + k) * dim + r for r, k in zip(rows, offsets)]
    return np.concatenate([np.zeros(0, dtype=np.intp), *flat])


@lru_cache(maxsize=4096)
def _union(dim: int, a: tuple[int, ...], b: tuple[int, ...]):
    """A sum's offsets and, per operand, where each of the sum's entries sits
    in its data: at its fill, the last, where it has no such diagonal."""
    offsets = a + tuple(k for k in b if k not in a)

    def gather(own: tuple[int, ...]) -> np.ndarray:
        s = _starts(dim, own)
        spans = [np.arange(s[own.index(k)], s[own.index(k) + 1]) if k in own
                 else np.full(dim - abs(k), s[-1]) for k in offsets]
        return np.concatenate([*spans, [s[-1]]])

    return offsets, gather(a), gather(b)


def _held(mat: np.ndarray, label: str = "") -> Operator:
    """The operator holding mat itself, a fresh array nothing else writes."""
    return object.__new__(Operator)._set(mat.shape[0], label, None, None, "C", mat)


@lru_cache(maxsize=4096)
def _plan(dim: int, a: tuple[int, ...], b: tuple[int, ...]):
    """How a @ b falls on diagonals: the product's offsets and data size, and
    where the factors of each term A[i, l] B[l, j] sit in a's and b's data.
    When no two terms share an entry they are listed entry by entry (an entry
    without a term reading the fills) and ``at`` is None; else ``at`` names
    each term's entry."""
    a_s, b_s = _starts(dim, a), _starts(dim, b)
    terms: dict[int, list] = {}
    for (i, ka), (j, kb) in product(enumerate(a), enumerate(b)):
        kc = ka + kb
        rows = np.arange(max(0, -ka, -kc), min(dim, dim - ka, dim - kc))
        if len(rows):
            at_a, at_b = a_s[i] + rows - max(0, -ka), b_s[j] + rows + ka - max(0, -kb)
            terms.setdefault(kc, []).append((at_a, at_b, rows - max(0, -kc)))
    offsets = tuple(terms)
    s = _starts(dim, offsets)
    flat = [(t[0], t[1], s[c] + t[2]) for c, group in enumerate(terms.values()) for t in group]
    ai, bi, at = (np.concatenate([np.zeros(0, np.intp), *(t[x] for t in flat)]) for x in range(3))
    if len(np.unique(at)) < len(at):
        return offsets, s[-1] + 1, ai, bi, at
    full_a, full_b = np.full(s[-1] + 1, a_s[-1]), np.full(s[-1] + 1, b_s[-1])
    full_a[at], full_b[at] = ai, bi
    return offsets, s[-1] + 1, full_a, full_b, None


def _structured(a: Operator, b: Operator) -> bool:
    """Whether a @ b is formed on the diagonals: both stored as diagonals,
    both finite, one real, and no entry of the result with two nonzero terms."""
    if a._offsets is None or b._offsets is None:
        return False
    finite_a, real_a = a._facts or a._finite_real()
    finite_b, real_b = b._facts or b._finite_real()
    if not (finite_a and finite_b and (real_a or real_b)):
        return False
    *_, ai, bi, at = _plan(a.dim, a._offsets, b._offsets)
    return at is None or np.bincount(at, (a._data[ai] != 0) & (b._data[bi] != 0)).max() <= 1


def _product(a: Operator, b: Operator) -> Operator:
    """a @ b, on the diagonals when ``_structured`` says so, else by BLAS.  Each
    entry is one product plus zeros, made +0.0 when all are."""
    if not _structured(a, b):
        return _held(a.mat @ b.mat)
    offsets, size, ai, bi, at = _plan(a.dim, a._offsets, b._offsets)
    terms = a._data[ai] * b._data[bi]
    if at is None:
        terms += 0.0
    else:
        terms, summed = np.empty(size, dtype=np.complex128), terms
        terms.real = np.bincount(at, summed.real, size)
        terms.imag = np.bincount(at, summed.imag, size)
    return a._map(terms, "", offsets, "C")


def _kron(a: Operator, b: Operator, label: str = "") -> Operator:
    """The tensor product a (x) b, row index i1 * b.dim + i2, entry for entry
    the product np.kron forms; its other entries are +0.0."""
    if a._offsets is None or b._offsets is None:
        return _held(np.kron(a._array(), b._array()), label)
    na, nb = a.dim, b.dim
    blocks: dict[int, np.ndarray] = {}
    for (ka, va), (kb, vb) in product(a._items(), b._items()):
        if va.any() and vb.any():
            block = blocks.setdefault(ka * nb + kb, np.zeros((na, nb), dtype=np.complex128))
            rows, cols = slice(max(0, -ka), na - max(0, ka)), slice(max(0, -kb), nb - max(0, kb))
            block[rows, cols] = np.multiply.outer(va, vb)
    n = na * nb
    diagonals = {k: m.reshape(-1)[max(0, -k) : max(0, -k) + n - abs(k)] for k, m in blocks.items()}
    return Operator._from_diagonals(n, diagonals, label)


def identity(dim: int, label: str = "I") -> Operator:
    return _diagonal(np.ones(dim, dtype=np.complex128), label)


def zero(dim: int, label: str = "0") -> Operator:
    return Operator._from_diagonals(dim, {}, label)


def from_diagonal(values: Iterable[complex], label: str = "") -> Operator:
    return _diagonal(np.asarray(list(values), dtype=np.complex128), label)


def _diagonal(values: np.ndarray, label: str = "") -> Operator:
    return Operator._from_diagonals(len(values), {0: values}, label)


def matrix_unit(dim: int, row: int, col: int, value: complex = 1.0) -> Operator:
    """|row><col| scaled by value."""
    entries = np.zeros(dim - abs(col - row), dtype=np.complex128)
    entries[min(row, col)] = value
    return Operator._from_diagonals(dim, {col - row: entries})


def commutator(a: Operator, b: Operator) -> Operator:
    """AB - BA."""
    a._check_dim(b)
    return _product(a, b) - _product(b, a)


def r_commutator(a: Operator, b: Operator, r: float) -> Operator:
    """The deformed bracket r*AB - (1/r)*BA; reduces to [A,B] at r=1."""
    a._check_dim(b)
    if r == 0:
        raise ParameterError("parameter r must be nonzero")
    return r * _product(a, b) - (1.0 / r) * _product(b, a)


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
    genuine violation and raises.  A diagonal operator's eigenvalues are its
    real diagonal, so its root is the elementwise one (LAPACK's, bit for bit).
    """
    t = tol.for_dim(a.dim)
    if not a.is_hermitian(t):
        raise NotPSDError("not PSD: operator is not hermitian within tolerance")
    diagonal = a._offsets is not None and set(a._offsets) <= {0}
    evals, evecs = (a.diagonal().real, None) if diagonal else np.linalg.eigh(a.mat)
    if float(evals.min()) < -t:
        raise NotPSDError(f"not PSD: eigenvalue {evals.min():.3e} < -{t:.3e}")
    roots = np.sqrt(np.clip(evals, 0.0, None))
    return from_diagonal(roots) if diagonal else _held((evecs * roots) @ evecs.conj().T)


def residual(a: Operator, b: Operator) -> float:
    """Frobenius norm of A - B."""
    return float(np.linalg.norm((a - b)._array()))
