"""Deformed SU(2) ladder algebras and the maps realizing them.

A deformation replaces [J+, J-] = 2*J0 by [J+~, J-~] = f(J0~) for a structure
function f that returns to 2x in some parameter limit.  Every deformed ladder
is the su2 ladder times diagonal weights, J+~ = J+ A(J0) and J-~ = B(J0) J-
(the deforming maps of Curtright & Zachos), so a ladder is its entries on
the steps m -> m+1.  One builder (``_build``) places those entries
(``su2._place_ladders``, the one placement of every ladder) and, for
Witten's map and the scaled map, a deformed J0~ diagonal, then holds the
relations it is given by name: declared checks (``checks.CHECKS``) that one
gate, ``checks.require``, evaluates and holds to the tolerance each check
reports.  ``build_deformation`` holds [J0, J+-~] = +-J+-~; the split,
hermitian and SU_q(2) builders are entry formulas over it, and the split's
structure relation and SU_q(2)'s casimir one more gate each, held only
(a verifier reports those checks on its own operands); Witten's relations
and the scaled map's identities are their builders' gates.  The checks of
``_build``'s gate and, for a hermitian pair, J-~ = (J+~)^dagger ride along
on the result (``checks``), so a verifier reports them instead of computing
them again.  Every builder also takes a batch, its parameter a list over the
points: each point's entries, from its own float expressions, are one row
(``per_point``).

Weights with apparent 0/0 at the edge of the spectrum (the hermitian map,
Witten's map) are evaluated on the ladder steps only, where the denominators
are provably nonzero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NegativeNormError,
    Operator,
    ParameterError,
    ShapeError,
    SplitError,
    Tolerance,
    commutator,
    from_diagonal,
    per_point,
    _holds,
)
from .checks import T_W, Jm, Jp, Scope, call, evaluate, operands, require
from .report import CheckReport
from .su2 import Su2Rep, _place_ladders, parse_spin

__all__ = [
    "StructureFunction",
    "GridFunction",
    "DeformedTriple",
    "q_number",
    "linear_structure",
    "qbracket_structure",
    "discrete_antiderivative",
    "build_deformation",
    "build_split_deformation",
    "build_hermitian_deformation",
    "build_suq2",
    "build_witten",
    "build_scaled_deformation",
]


def q_number(x: float, q: complex) -> float:
    """The q-bracket [x]_q = (q^x - q^-x)/(q - 1/q).

    Real q > 0 is evaluated as sinh(x*ln q)/sinh(ln q), which is the same
    function without the cancellation the rational form suffers near q = 1
    ([x]_1 = x is the continuous limit).  A unit-modulus phase q = exp(i*a)
    uses the equivalent sine form sin(a*x)/sin(a), which stays real and,
    like the real form, tends to x as a -> 0.  q = -1 is singular, and real
    q < 0 or |q| != 1 off the real axis are outside the domain.
    """
    qc = complex(q)
    if qc.imag == 0.0:
        qr = qc.real
        if qr == 1.0:
            return float(x)
        if qr == -1.0:
            raise ParameterError("singular q-bracket at q = -1")
        if qr <= 0.0:
            raise ParameterError(f"q must be positive real or a phase, got {qr}")
        log_q = np.log(qr)
        y = float(x * log_q)
        if abs(y) > 710.4758600739439:  # sinh overflows: inf, for the builders to reject
            return float(np.copysign(np.inf, x))
        return float(np.sinh(y) / np.sinh(log_q))
    if abs(abs(qc) - 1.0) > 1e-12:
        raise ParameterError(f"complex q must lie on the unit circle, got |q|={abs(qc)}")
    a = cmath.phase(qc)
    s = np.sin(a)
    if abs(s) <= 1e-12 and np.cos(a) < 0:  # arg(q) at or numerically at pi: q = -1
        raise ParameterError("singular q-bracket at q = -1")
    return float(np.sin(a * x) / s)


@dataclass(frozen=True)
class StructureFunction:
    """A structure function f with its parameters, for provenance."""

    f: Callable[[float], float]
    params: dict = field(default_factory=dict)
    description: str = ""

    def __call__(self, x: float) -> float:
        return float(self.f(x))


def linear_structure() -> StructureFunction:
    """The undeformed structure function f(x) = 2x."""
    return StructureFunction(lambda x: 2.0 * x, {}, "2x")


def qbracket_structure(q: complex) -> StructureFunction:
    """f(x) = [2x]_q, the Drinfeld-Jimbo structure function."""
    qc = complex(q)
    if qc.imag == 0.0:
        params = {"q": qc.real}
    else:
        params = {"q_arg": cmath.phase(qc)}
    return StructureFunction(lambda x: q_number(2.0 * x, qc), params, "[2x]_q")


def _grid(twoj: int) -> list[float]:
    """The half-integer grid {-j-1, ..., j} of g."""
    lo = -(twoj / 2.0) - 1.0
    return [lo + k for k in range(twoj + 2)]


def _grid_index(x: float, twoj: int) -> int | None:
    """The index of x on the grid {-j-1, ..., j}, or None when x is off it."""
    if not np.isfinite(x):
        return None
    key = round(2.0 * x)
    idx = (key + twoj + 2) // 2
    on_grid = abs(key - 2.0 * x) <= 1e-9 and (key + twoj) % 2 == 0 and 0 <= idx < twoj + 2
    return idx if on_grid else None


@dataclass(frozen=True)
class GridFunction:
    """g on the half-integer grid {-j-1, ..., j} with g(x) - g(x-1) = f(x).

    The difference equation leaves one constant free; the split map reads
    it back as g(-j-1) (see ``build_split_deformation``).
    """

    twoj: int
    values: tuple[float, ...]


def discrete_antiderivative(
    f: StructureFunction,
    j: float | int | str | Fraction,
    anchor_value: float = 0.0,
    anchor_point: float | None = None,
) -> GridFunction:
    """Solve g(x) - g(x-1) = f(x) on {-j-1, ..., j} by recursion.

    The anchor defaults to g(-j-1) = anchor_value, the lowest-weight
    consistency point; any other grid point may anchor instead.
    """
    twoj = int(parse_spin(j) * 2)
    xs = _grid(twoj)
    a_idx = 0 if anchor_point is None else _grid_index(float(anchor_point), twoj)
    if a_idx is None:
        raise ParameterError(f"anchor point {anchor_point} is off the grid")
    steps = [f(x) for x in xs[1:]]
    bad = [x for x, v in zip(xs[1:], steps) if not np.isfinite(v)]
    if bad:
        raise ParameterError(f"structure function is not finite at x={bad[0]}")
    vals = [0.0] * len(xs)
    vals[a_idx] = float(anchor_value)
    for k in range(a_idx + 1, len(xs)):
        vals[k] = vals[k - 1] + steps[k - 1]
    for k in range(a_idx - 1, -1, -1):
        vals[k] = vals[k + 1] - steps[k]
    return GridFunction(twoj, tuple(vals))


@dataclass(frozen=True)
class DeformedTriple:
    """Deformed generators, a record of which map produced them, and the
    relations the builder verified (``checks``, named as in a verify report)."""

    Jp: Operator
    Jm: Operator
    J0: Operator
    provenance: dict | None  # None: su2's undeformed triple
    hermitian_pair: bool
    checks: CheckReport = field(default_factory=CheckReport)

    @property
    def dim(self) -> int:
        return self.Jp.dim

    @cached_property
    def bracket(self) -> Operator:
        """[J+~, J-~], formed once for every check that needs it."""
        return commutator(self.Jp, self.Jm)


LADDER = ("j0_ladder_raising", "j0_ladder_lowering")
# a q-casimir with g on the grid {-j-1, ..., j} (``gv``): J-~ J+~ + g(J0) = J+~ J-~ + g(J0 - 1)
QCASIMIR = {
    "C": Jm @ Jp + call(lambda gv: from_diagonal(gv[..., 1:]), *operands("gv")),
    "Cd": Jp @ Jm + call(lambda gv: from_diagonal(gv[..., :-1]), *operands("gv")),
}


def _build(
    rep: Su2Rep, raising, lowering=None, j0: Operator | None = None, *, provenance: dict,
    tol: Tolerance, names: tuple = LADDER, labels: tuple = ("J+~", "J-~"), operands: dict = {},
    message: str = "[J0~, J+-~] = +-J+-~ violated: residual {:.3e}",
) -> DeformedTriple:
    """The one spin builder: J+~ and J-~ placed from their step entries (see
    ``build_deformation``) and J0~ = ``j0`` (J0 when None), returned once the
    checks called ``names`` hold, else an ArithmeticError of ``message``
    (``checks.require``).  They read J+~ (``Jp``), J-~ (``Jm``), J0, J0~
    (``J0t``), the tolerance ``t`` or Witten's ``t_w``, the dimension ``dim``
    and ``operands``.  The triple records them and adjoint_pair,
    J-~ = (J+~)^dagger, where it holds within tolerance: always, with residual
    0, for a pair built hermitian (``lowering`` None)."""
    t, j0 = tol.for_dim(rep.dim), rep.J0 if j0 is None else j0
    jp, jm = _place_ladders(raising, lowering, labels)
    scope = Scope({"Jp": jp, "Jm": jm, "J0": rep.J0, "J0t": j0, "t": t, "dim": rep.dim,
                   "hermitian": True, **operands}, {"t_w": T_W})
    checks, adjoint = require(names, scope, message), evaluate(("adjoint_pair",), scope)
    if hermitian := _holds(adjoint.checks[0].residual <= t, branch=True):
        checks.extend(adjoint)
    return DeformedTriple(jp, jm, j0, provenance, hermitian, checks)


def build_deformation(
    rep: Su2Rep,
    raising,
    lowering=None,
    *,
    provenance: dict,
    tol: Tolerance = DEFAULT_TOL,
) -> DeformedTriple:
    """The general deformation J+~ = J+ A(J0), J-~ = B(J0) J- with J0~ = J0.

    ``raising`` and ``lowering`` are the entries of J+~ and J-~ on the ladder
    steps m -> m+1, m = -j, ..., j-1 (the su2 entries times A(m) and B(m));
    ``lowering`` None makes J-~ = (J+~)^dagger.  A non-finite entry raises
    ParameterError.  [J0, J+-~] = +-J+-~ and, for a hermitian pair,
    J-~ = (J+~)^dagger are recorded as checks; the ladder relations must hold
    within tolerance or ArithmeticError is raised.
    """
    raising, steps = np.asarray(raising, dtype=np.complex128), rep.dim - 1  # a row per point
    if raising.shape[-1] != steps or (lowering is not None and np.shape(lowering)[-1] != steps):
        raise ShapeError(f"a spin-{rep.j} ladder has {rep.dim - 1} steps")
    bad = ~np.isfinite(raising) | ~np.isfinite(raising if lowering is None else lowering)
    if _holds(bad.any(axis=-1)):
        m = rep.m_values()[np.flatnonzero(bad)[0]]
        raise ParameterError(f"the {provenance['map']} ladder is not finite at m={m:g} -> m+1")
    return _build(rep, raising, lowering, provenance=provenance, tol=tol)


def build_split_deformation(
    rep: Su2Rep, g: GridFunction, split: str = "symmetric", tol: Tolerance = DEFAULT_TOL
) -> DeformedTriple:
    """Deform via one-sided diagonal weights: J+~ = J+ A(J0), J-~ = B(J0) J-.

    The product A*B is pinned by g through
    A(m)B(m) = (p - g(m)) / (C - m(m+1)) on the raising support m < j, where
    [J+~, J-~] = f(J0) at m = -j forces p = g(-j-1), so g may be anchored
    anywhere.  The split chooses how to distribute the product:

    - "left": A carries the whole product, B = 1 (breaks hermitian pairing);
    - "symmetric": A = B = sqrt(A*B), requiring the product nonnegative.

    Any other pair of weights is ``build_deformation``'s.
    """
    if split not in ("left", "symmetric"):
        raise ParameterError(f"unknown split {split!r}")
    support = rep.m_values()[:-1]
    t = tol.for_dim(rep.dim)
    values = np.asarray(per_point(lambda gf: gf.values, g))
    ab = (values[..., :1] - values[..., 1:-1]) / (rep.casimir_value - support * (support + 1.0))
    if split == "left":
        a, b = ab, np.ones_like(ab)
    else:
        negative = ab < -t
        if _holds(negative.any(axis=-1)):
            k = np.flatnonzero(negative)[0]
            raise SplitError(
                f"product A*B = {ab[k]:.6g} < 0 at m={float(support[k])}: "
                "needs non-hermitian split"
            )
        a = b = np.sqrt(np.maximum(ab, 0.0))
    su2 = rep.ladder_entries()
    provenance = {"map": "ab_map", "params": {"split": split}}
    triple = build_deformation(rep, su2 * a, su2 * b, provenance=provenance, tol=tol)
    # [J+~, J-~] = f(J0) with f recovered from g's shifts
    values = {"B": triple.bracket, "F": from_diagonal(np.diff(values)), "t": t}
    require(("structure_relation",), values, "split map violates its structure relation: {:.3e}")
    return triple


def _hermitian_weights(rep: Su2Rep, f: StructureFunction, tol_val: float) -> np.ndarray:
    """h(x) with J+~ = h(J0) J+, from the hermitian-pair map, on the ladder
    steps (x = m+1 for m = -j, ..., j-1).

    The map's radicand f((x+j)/2) f((x-1-j)/2) / ((x+j)(x-1-j)) is evaluated
    at half the nominal arguments so that the structure function itself (the
    f of [J+~, J-~] = f(J0~), normalized to f -> 2x) drives the map; with
    f = [2x]_q this reproduces the SU_q(2) matrix elements exactly.  It is
    0/0 at x = -j, where J+ has no entry, so that point is not a step.
    """
    jv = float(rep.j)
    weights = []
    for x in map(float, rep.m_values()[1:]):
        num = f((x + jv) / 2.0) * f((x - 1.0 - jv) / 2.0)
        rad = num / ((x + jv) * (x - 1.0 - jv))
        if rad < -tol_val:
            raise NegativeNormError(
                f"negative norm: radicand {rad:.6g} at J0-eigenvalue {x - 1.0}"
            )
        weights.append(float(np.sqrt(max(rad, 0.0))))
    return np.array(weights)


def build_hermitian_deformation(
    rep: Su2Rep, f: StructureFunction, tol: Tolerance = DEFAULT_TOL
) -> DeformedTriple:
    """Adjoint-preserving deformation J+~ = h(J0) J+, J-~ = (J+~)^dagger."""
    h = per_point(lambda fn: _hermitian_weights(rep, fn, tol.for_dim(rep.dim)), f)
    params = per_point(lambda fn: {**fn.params, "f": fn.description}, f)
    provenance = {"map": "hermitian_f", "params": params}
    return build_deformation(rep, rep.ladder_entries() * h, provenance=provenance, tol=tol)


def _suq2_entries(rep: Su2Rep, q: float) -> list[float]:
    """SU_q(2)'s J+ entries: the step m -> m+1 has sqrt([j-m]_q [j+m+1]_q)."""
    if q <= 0:
        raise ParameterError(f"q must be positive real, got {q}")
    jv = float(rep.j)
    ms = map(float, rep.m_values()[:-1])
    return [np.sqrt(q_number(jv - m, q) * q_number(jv + m + 1.0, q)) for m in ms]


def build_suq2(rep: Su2Rep, q: float, tol: Tolerance = DEFAULT_TOL) -> DeformedTriple:
    """The SU_q(2) representation with elements sqrt([j-m]_q [j+m+1]_q).

    q must be positive real; q = 1 returns the classical representation.
    The deformed casimir identity, with g(x) = [x]_q [x+1]_q, is verified
    before returning; a q at which g overflows raises ParameterError.
    """
    provenance = {"map": "suq2", "params": {"q": per_point(float, q)}}
    entries = per_point(lambda v: _suq2_entries(rep, v), q)
    triple = build_deformation(rep, entries, provenance=provenance, tol=tol)
    xs = _grid(rep.twoj)
    g = np.asarray(per_point(lambda v: [q_number(x, v) * q_number(x + 1.0, v) for x in xs], q))
    if _holds(~np.isfinite(g).all(-1)):
        raise ParameterError(f"q={q} overflows SU_q(2)'s casimir at j={rep.j}")
    # the casimir in both orderings with g(x) = [x]_q [x+1]_q, and j(j+1)_q
    values = {"Jp": triple.Jp, "Jm": triple.Jm, "gv": g, "t": tol.for_dim(rep.dim),
              "S": from_diagonal(g[..., -1:].repeat(rep.dim, axis=-1))}
    require(("casimir_orderings", "casimir_scalar"), Scope(values, QCASIMIR),
            "SU_q(2) casimir identity violated")
    return triple


def _witten_point(rep: Su2Rep, r: float) -> tuple:
    """One point's W0 diagonal, ladder weights and the scalars of its checks."""
    if r <= 0 or r == 1.0:
        raise ParameterError(f"r must be positive and != 1, got {r}")
    jv = float(rep.j)
    ms = rep.m_values()
    scale = 1.0 / (r - 1.0 / r)
    # the ladder weight is r^(-x) times the hermitian map's at f = [2x]_r,
    # whose radicand is positive for real r > 0
    norm = np.sqrt(r / (r + 1.0 / r))
    base = _hermitian_weights(rep, qbracket_structure(r), 0.0)
    try:
        kappa = (r ** (2 * jv + 1) + r ** (-2 * jv - 1)) / (r + 1.0 / r)
        w0 = [scale * (1.0 - kappa * r ** (-2.0 * float(m))) for m in ms]
        weights = [float(r ** (-x) * norm * h) for x, h in zip(map(float, ms[1:]), base)]
    except OverflowError as exc:
        raise ParameterError(f"r={r} overflows Witten's map at j={rep.j}") from exc
    return w0, weights, r, 1.0 / r**2, 1.0 / abs(r - 1.0 / r), r + 1.0 / r


WITTEN = ("witten_relation_raising", "witten_relation_pair", "witten_relation_lowering")


def build_witten(rep: Su2Rep, r, tol: Tolerance = DEFAULT_TOL) -> DeformedTriple:
    """Witten's second deformation via the diagonal map on SU(2).

    The triple is (W+, W-, W0), under those labels.  W0 is the printed
    closed form in r^(-2*J0); the ladder weight uses the normalization
    sqrt(r/(r+1/r)), under which the three defining relations

        [W0, W+]_r = W+,   [W+, W-]_(1/r^2) = W0,   [W-, W0]_r = W-

    hold exactly.  Each is asserted on construction, at a tolerance that
    follows the map's conditioning: its 1/(r - 1/r) prefactor amplifies
    rounding near r = 1 (W0 is a difference of nearly equal terms divided by
    r - 1/r), and for large j*|log r| the generators themselves grow; both
    scale the achievable residual above the flat tolerance.  The adjoint
    pairing W- = (W+)^dagger is recorded at the flat tolerance.
    """
    point = per_point(lambda v: _witten_point(rep, v), r)
    fields = map(np.array, zip(*point)) if isinstance(r, list) else point  # a batch's: rows
    w0, weights, r_rows, inv_r2, cancellation, spread = fields
    if _holds(~(np.isfinite(w0).all(-1) & np.isfinite(weights).all(-1))):
        raise ParameterError(f"r={r} overflows Witten's map at j={rep.j}")
    operands = {"r": r_rows, "inv_r2": inv_r2, "cancellation": cancellation, "spread": spread}
    return _build(rep, rep.ladder_entries() * weights, None, from_diagonal(w0, "W0"),
                  provenance={"map": "witten", "params": {"r": per_point(float, r)}}, tol=tol,
                  names=WITTEN, labels=("W+", "W-"), operands=operands,
                  message="Witten defining relations violated: residual {:.3e}")


def build_scaled_deformation(
    rep: Su2Rep,
    weight: Callable[[float, float], float],
    tol: Tolerance = DEFAULT_TOL,
) -> DeformedTriple:
    """Deform all three generators by one diagonal factor: X~ = X w(C, J0).

    ``weight`` takes (casimir eigenvalue, m) and must not vanish for m in
    {-j-1, ..., j+1}, since the verified algebra involves ratios of its
    shifts.  Both commutation identities of the scaled algebra are asserted,
    as is the reduction [J0, J+-~] = +-J+-~ against the *undeformed* J0.
    """
    dim, jv, c_val = rep.dim, float(rep.j), rep.casimir_value
    w = np.array(per_point(lambda fn: [float(fn(c_val, -jv + k)) for k in range(-1, dim + 1)],
                           weight))
    vanishing = np.abs(w) <= tol.for_dim(dim)
    if _holds(vanishing.any(axis=-1)):
        m = -jv + np.flatnonzero(vanishing)[0] - 1.0
        raise ParameterError(f"singular F: weight vanishes at m={m}")

    def w_at(shift: int) -> np.ndarray:
        """w(J0 + shift) on the diagonal of J0; w[k] is w(C, m) at m = -j-1+k."""
        return w[..., 1 + shift : 1 + shift + dim]

    # [J0~, J+-~] = {1 - w(J0 -+ 1)/w(J0)} J0~ J+-~  +- w(J0 -+ 1) J+-~ and
    # [J+~, J-~] = {1 - w(J0+1)/w(J0-1)} J+~ J-~ + 2 w(J0+1) J0~; keeping J0
    # undeformed collapses the first to the plain ladder rule
    operands = {
        "D2": from_diagonal(w_at(1)), "D1+": from_diagonal(1.0 - w_at(-1) / w_at(0)),
        "D2+": from_diagonal(w_at(-1)), "D1-": from_diagonal(1.0 - w_at(1) / w_at(0)),
        "D1": from_diagonal(1.0 - w_at(1) / w_at(-1)),
    }
    su2 = rep.ladder_entries()
    return _build(rep, su2 * w_at(0)[..., :-1], su2 * w_at(0)[..., 1:],
                  from_diagonal(rep.m_values() * w_at(0), "J0~"), operands=operands,
                  provenance={"map": "f_deform", "params": {}}, tol=tol,
                  names=("scaled_ladder", "scaled_structure", *LADDER),
                  message="scaled-deformation identities violated: {:.3e}")
