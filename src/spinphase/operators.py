"""Weighted-shift operators and the residual/tolerance policy.

Every ladder here is a cyclic shift times a diagonal weight (J+~ = U G), so
an :class:`Operator` stores a short map from index offset k to its entries
M[i, i+k], plus the one signed zero of every other entry (-0j after an
adjoint, as in the dense conjugate).  J0, N and H are one diagonal, a ladder
one, a phase unitary two and the two-mode U_A^dag (x) U_B four; an operator
made from a matrix keeps the matrix.  Sums, scalar multiples, adjoints,
tensor products, the diagonal and hermitian tests and the root of a
diagonal operator are O(n) numpy work on the diagonals, entry for entry the
dense operations.  ``mat`` is built only when read.

A product is formed on the diagonals only when no two of its terms land on
one entry, one operand is real and both are finite (``_structured`` decides,
for ``@``, commutators, the Heisenberg derivative and ``apply``): each entry
is then the one rounded product BLAS gives, with zeros made +0.0.  numpy's
complex multiply may fuse where BLAS does not, and 0 * inf is NaN only in
the dense sum, so any other product materializes both operands and calls
BLAS.  Norms stay dense: ``Operator.norm`` (and so ``residual``) hands
``np.linalg.norm`` the dense matrix, whose summation order sets the last
bits of every printed residual.  An operator stored as diagonals is laid out
for it in one zeroed buffer per thread, grown to the largest dim * dim (a
batch's rows times that) and never shrunk, whose written entries go back to
+0.0 after the norm; an operator whose entries and fill are all zero has
norm 0.0, the dense norm of signed zeros, without the buffer.

That summation order is fixed only at a fixed BLAS thread count: above 10000
entries (dim >= 101) OpenBLAS splits the norm's ``ddot`` across its threads,
so the last digit of a residual can move with ``OPENBLAS_NUM_THREADS``.

A *batch* (a sweep's points on one phase frame) stores one row of data per
point, offsets shared, and a lone operator's data is one such row: sums,
scalars (one per row: a (P, 1) column), products and the dense build index
the last axis alike, and a batch's norm is each row's dense norm.  It never
goes to BLAS: rows whose facts or branches differ run apart (``Diverged``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterable

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


class Diverged(Exception):
    """The rows of a batch (mask ``args[0]``) that run apart: alone, each on its own branch."""


def per_point(fn, param):
    """fn(param), or fn at each point of a batch (param a list); a raise sends all rows apart."""
    if not isinstance(param, list):
        return fn(param)
    try:
        return [fn(p) for p in param]
    except (AlgebraError, ArithmeticError) as exc:
        raise Diverged(np.ones(len(param), dtype=bool)) from exc


def _holds(cond, branch: bool = False) -> bool:
    """Whether cond holds at a point.  A batch's rows where it holds run apart (Diverged)
    to raise their own errors, or take a ``branch`` that not every row takes."""
    if isinstance(cond, np.ndarray) and cond.any() and not (branch and cond.all()):
        raise Diverged(cond)
    return bool(cond.all() if isinstance(cond, np.ndarray) else cond)


def _larger(a, b):
    """max(a, b), row by row in a batch: b only where b > a, so a NaN b loses."""
    return np.where(b > a, b, a) if isinstance(b > a, np.ndarray) else max(a, b)


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
    immutable (assigning an attribute raises ``AttributeError``), so one phase
    frame's operators, with their cached ``mat`` and facts, serve every
    scenario and batch on that frame."""

    __slots__ = ("dim", "label", "_offsets", "_data", "_dense", "_facts")
    __array_ufunc__ = None  # an array times an operator is the operator's __rmul__

    def __new__(cls, mat, label: str = "") -> "Operator":
        arr = np.array(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"operator matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("operator dimension must be positive")
        return _new(arr.shape[0], label, None, None, arr)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Operator is immutable: cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"Operator is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through _new, as stored
        dense = self._dense if self._offsets is None else None
        return _new, (self.dim, self.label, self._offsets, self._data, dense)

    @staticmethod
    def _from_diagonals(dim, diagonals: dict, label="", fill=0j) -> "Operator":
        """Entries ``diagonals[k]`` on each diagonal k (dim - |k| of them),
        ``fill`` elsewhere."""
        parts = [np.asarray(v, dtype=np.complex128) for v in diagonals.values()]
        fills = [[fill]] * len(parts[0]) if parts and parts[0].ndim > 1 else [fill]  # per row
        data = np.concatenate([*parts, np.array(fills, dtype=np.complex128)], axis=-1)
        return _new(dim, label, tuple(diagonals), data)

    @property
    def mat(self) -> np.ndarray:
        if self._dense is None:
            dense = self._array()
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)  # a cache of what _data holds
        return self._dense

    def _array(self) -> np.ndarray:
        """The dense matrix: the one held, else built afresh."""
        if self._dense is not None:
            return self._dense
        return _dense_matrix(self.dim, self._offsets, self._data)

    def _items(self) -> list[tuple[int, np.ndarray]]:
        """(offset, entries) of each stored diagonal."""
        s = _starts(self.dim, self._offsets)
        return [(k, self._data[s[i] : s[i + 1]]) for i, k in enumerate(self._offsets)]

    def _finite_real(self) -> tuple:
        """Whether the stored entries are finite, and whether they are real; for a
        batch in which not every row's are, a row of each."""
        if self._facts is None:
            d = self._data
            facts = bool(np.count_nonzero(np.isfinite(d)) == d.size), not np.count_nonzero(d.imag)
            if d.ndim > 1 and not all(facts):
                facts = np.isfinite(d).all(-1), ~d.imag.any(-1)
            object.__setattr__(self, "_facts", facts)
        return self._facts

    def relabel(self, label: str) -> "Operator":
        if self._offsets is None:
            return _held(self._dense, label)
        return _new(self.dim, label, self._offsets, self._data)

    def adjoint(self) -> "Operator":
        if self._offsets is None:
            return _held(self._dense.conj().T, self.label)
        # diagonal -k of the adjoint is diagonal k conjugated, entry for entry
        offsets = tuple(-k for k in self._offsets)
        return _new(self.dim, self.label, offsets, self._data.conj())

    def diagonal(self, offset: int = 0) -> np.ndarray:
        if self._offsets is None:
            return np.diagonal(self._dense, offset).copy()
        fill = self._data[-1:].repeat(max(0, self.dim - abs(offset)))  # [] off the matrix
        entries = dict(self._items()).get(offset, fill)
        return entries.copy()

    def is_hermitian(self, tol: float) -> bool:
        diff = self - self.adjoint()
        return float(np.linalg.norm(diff._data if diff._dense is None else diff._dense)) <= tol

    def is_diagonal(self, tol: float) -> bool:
        if self._offsets is None:
            return float(np.linalg.norm(self._dense - np.diag(np.diagonal(self._dense)))) <= tol
        return math.hypot(0.0, *(np.linalg.norm(v) for k, v in self._items() if k)) <= tol

    def norm(self):
        """Frobenius norm (a batch's: each row's dense norm).  A row of zero entries
        and fill has norm 0.0 without its dense matrix, the dense norm of signed zeros."""
        data = self._data
        if self._offsets is None:
            return float(np.linalg.norm(self._dense))
        if data.ndim > 1:
            rows, norms = data.any(axis=-1), np.zeros(len(data))  # NaN is nonzero
            if rows.any():
                norms[rows] = _dense_norms(self.dim, self._offsets, data[rows])
            return norms
        return float(_dense_norms(self.dim, self._offsets, data)) if np.count_nonzero(data) else 0.0

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
        if self._offsets == other._offsets:
            return _new(self.dim, "", self._offsets, op(self._data, other._data))
        offsets, ia, ib = _union(self.dim, self._offsets, other._offsets)
        return _new(self.dim, "", offsets, op(self._data.take(ia, -1), other._data.take(ib, -1)))

    def _scalar(self, op, *scalar) -> "Operator":
        if scalar and isinstance(scalar[0], Operator):
            raise TypeError("use @ for operator products; * is scalar-only")
        if scalar and isinstance(scalar[0], np.ndarray):  # one per row: a (P, 1) column
            scalar = (scalar[0][:, None],)
        if self._offsets is None:
            return _held(op(self._dense, *scalar))
        return _new(self.dim, "", self._offsets, op(self._data, *scalar))

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
        if x.shape != (self.dim,):
            raise ShapeError(f"vector of shape {x.shape} for a dim-{self.dim} operator")
        # one diagonal gives each entry of the image one term, M[i, i+k] x[i+k]
        if len(self._offsets or ()) != 1 or not _structured(self, _diagonal(x)):
            return self._array() @ x
        k, n = self._offsets[0], self.dim
        out = np.zeros(self._data.shape[:-1] + (n,), dtype=np.complex128)
        out[..., max(0, -k) : n - max(0, k)] = self._data[..., :-1] * x[max(0, k) : n - max(0, -k)]
        return out + 0.0


@lru_cache(maxsize=4096)
def _positions(dim: int, offsets: tuple[int, ...]) -> np.ndarray:
    """Where the stored entries sit in the flattened dense matrix: entry
    (i, i+k) at i*dim + i+k."""
    rows = [np.arange(max(0, -k), dim - max(0, k)) for k in offsets]
    flat = [r * dim + r + k for r, k in zip(rows, offsets)]
    return np.concatenate([np.zeros(0, dtype=np.intp), *flat])


def _signed_fill(data: np.ndarray) -> bool:
    """Whether the fill (each row's last entry) has bytes other than +0.0 + 0.0j."""
    fill = data[..., -1]
    return fill.tobytes() != bytes(fill.nbytes)


def _dense_matrix(dim: int, offsets: tuple[int, ...], data: np.ndarray, out=None) -> np.ndarray:
    """The dense matrix of entries ``data`` on ``offsets``, the last entry the fill
    everywhere else; a batch's data gives a matrix per row.  Written into ``out``,
    a zeroed array of shape data.shape[:-1] + (dim * dim,), when given."""
    shape = data.shape[:-1]
    m = np.zeros(shape + (dim * dim,), dtype=np.complex128) if out is None else out
    cols, flat = data.T, m.T  # the last axis first: one indexing for a lone operator and a batch
    if _signed_fill(data):
        flat[...] = cols[-1:]
    flat[_positions(dim, offsets)] = cols[:-1]
    return m.reshape(shape + (dim, dim))


_scratch = threading.local()  # a thread's norms share its ``buffer``, no other thread's


def _dense_norms(dim: int, offsets: tuple[int, ...], data: np.ndarray):
    """np.linalg.norm of the dense matrix of ``data`` (for a batch, a list of each
    row's), laid out in this thread's buffer and zeroed again after.  The buffer
    grows to the largest size asked for and never shrinks; it is calloc'd
    (``np.zeros``), so the pages no norm writes stay the kernel's zero page."""
    shape = data.shape[:-1]
    size = math.prod(shape) * dim * dim
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _scratch.buffer = np.zeros(size, dtype=np.complex128)
    out = buffer[:size].reshape(shape + (dim * dim,))
    try:
        dense = _dense_matrix(dim, offsets, data, out)
        return [*map(np.linalg.norm, dense)] if shape else np.linalg.norm(dense)
    finally:
        if _signed_fill(data):
            out[...] = 0.0
        else:
            out.T[_positions(dim, offsets)] = 0.0


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


class _Draft(Operator):
    """An operator whose fields ``_new`` is writing."""

    __slots__ = ()
    # both, as they share one type slot: with Operator's __delattr__ left in
    # place every field write would go through a Python-level call
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__


def _new(dim, label, offsets, data, dense=None) -> Operator:
    """The operator stored as (offsets, data), or holding the array ``dense``.
    Every operator is made here: its array is made read-only and its fields
    are written on a draft, which then becomes the Operator that no
    assignment reaches (cheaper than an ``object.__setattr__`` per field)."""
    (dense if data is None else data).setflags(write=False)
    op = object.__new__(_Draft)
    op.dim, op.label, op._offsets, op._data = dim, label, offsets, data
    op._dense, op._facts = dense, None
    op.__class__ = Operator
    return op


def _held(mat: np.ndarray, label: str = "") -> Operator:
    """The operator holding mat itself, a fresh array nothing else writes."""
    return _new(mat.shape[0], label, None, None, mat)


@lru_cache(maxsize=4096)
def _plan(dim: int, a: tuple[int, ...], b: tuple[int, ...]):
    """How a @ b falls on diagonals: the product's offsets and, entry by
    entry, where the factors of its one term A[i, l] B[l, j] sit in a's and
    b's data (an entry without a term reads the fills).  None when two terms
    land on one entry."""
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
        return None
    full_a, full_b = np.full(s[-1] + 1, a_s[-1]), np.full(s[-1] + 1, b_s[-1])
    full_a[at], full_b[at] = ai, bi
    return offsets, full_a, full_b


def _structured(a: Operator, b: Operator) -> bool:
    """Whether a @ b is formed on the diagonals: both stored as diagonals,
    both finite, one real, and no entry of the result with two terms.  A
    batch never goes to BLAS: its rows that fail this run apart (Diverged)."""
    if a._offsets is None or b._offsets is None:
        return False
    finite_a, real_a = a._facts or a._finite_real()
    finite_b, real_b = b._facts or b._finite_real()
    ok = finite_a & finite_b & (real_a | real_b)
    if ok is not False:  # a plan only for what the facts admit
        ok = ok & bool(_plan(a.dim, a._offsets, b._offsets))
    if ok is True or not (rows := a._data.shape[:-1] or b._data.shape[:-1]):  # () if lone
        return ok is True
    return not _holds(~np.broadcast_to(ok, rows))  # a batch's rows for which it fails


def _product(a: Operator, b: Operator) -> Operator:
    """a @ b, on the diagonals when ``_structured`` says so, else by BLAS.  Each
    entry is its one product, made +0.0 when zero."""
    if not _structured(a, b):
        return _held(a.mat @ b.mat)
    offsets, ai, bi = _plan(a.dim, a._offsets, b._offsets)
    terms = a._data.take(ai, -1) * b._data.take(bi, -1)  # a batch's rows: the same entries of each
    terms += 0.0
    return _new(a.dim, "", offsets, terms)


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
    values = values if isinstance(values, np.ndarray) else list(values)
    return _diagonal(np.asarray(values, dtype=np.complex128), label)


def _diagonal(values: np.ndarray, label: str = "") -> Operator:
    return Operator._from_diagonals(values.shape[-1], {0: values}, label)


def matrix_unit(dim: int, row: int, col: int, value: complex = 1.0) -> Operator:
    """|row><col| scaled by value."""
    for name, index in (("row", row), ("col", col)):
        if not 0 <= index < dim:
            raise ParameterError(f"{name} index {index} outside a dim-{dim} operator")
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
    if _holds(r == 0):
        raise ParameterError("parameter r must be nonzero")
    return r * _product(a, b) - (1.0 / r) * _product(b, a)


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
    return (a - b).norm()
