"""Deformed SU(2) ladder algebras and the maps realizing them.

A deformation replaces [J+, J-] = 2*J0 by [J+~, J-~] = f(J0~) for a structure
function f that returns to 2x in some parameter limit.  Every builder here
produces the deformed generators as explicit matrices on top of the standard
representation and verifies its defining relations before returning; the
residuals it computed ride along on the result as named checks (``checks``),
so a verifier reports them instead of computing them again.

Diagonal weight factors with apparent 0/0 at the edge of the spectrum (the
hermitian map, Witten's map) are evaluated elementwise on the nonzero ladder
elements only, where the denominators are provably nonzero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NegativeNormError,
    NotDiagonalError,
    Operator,
    ParameterError,
    SplitError,
    Tolerance,
    commutator,
    diag_function,
    from_diagonal,
    r_commutator,
    residual,
)
from .report import CheckReport
from .su2 import Su2Rep, build_su2, parse_spin

__all__ = [
    "StructureFunction",
    "GridFunction",
    "DeformedTriple",
    "WittenGenerators",
    "q_number",
    "linear_structure",
    "qbracket_structure",
    "table_structure",
    "discrete_antiderivative",
    "build_split_deformation",
    "build_hermitian_deformation",
    "build_suq2",
    "build_witten",
    "build_scaled_deformation",
    "deformed_casimir",
]


def q_number(x: float, q: complex) -> float:
    """The q-bracket [x]_q = (q^x - q^-x)/(q - 1/q).

    Real q > 0 is evaluated as sinh(x*ln q)/sinh(ln q), which is the same
    function without the cancellation the rational form suffers near q = 1
    ([x]_1 = x is the continuous limit).  A unit-modulus phase q = exp(i*a)
    uses the equivalent sine form sin(a*x)/sin(a), which stays real.
    q = -1 is singular, and real q < 0 or |q| != 1 off the real axis are
    outside the domain.
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
        return float(np.sinh(x * log_q) / np.sinh(log_q))
    if abs(abs(qc) - 1.0) > 1e-12:
        raise ParameterError(f"complex q must lie on the unit circle, got |q|={abs(qc)}")
    a = cmath.phase(qc)
    s = np.sin(a)
    if abs(s) <= 1e-12:  # arg(q) at or numerically at pi: the q = -1 singularity
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


def table_structure(table: Mapping[float, float]) -> StructureFunction:
    """f given by explicit values on the half-integer grid."""
    keyed = {round(2.0 * float(x)): float(v) for x, v in table.items()}

    def look(x: float) -> float:
        key = round(2.0 * x)
        if key not in keyed or abs(key - 2.0 * x) > 1e-9:
            raise ParameterError(f"structure table has no value at x={x}")
        return keyed[key]

    return StructureFunction(look, {}, "table")


@dataclass(frozen=True)
class GridFunction:
    """g on the half-integer grid {-j-1, ..., j} with g(x) - g(x-1) = f(x).

    ``p_value`` records the (necessarily constant) sample of the unit-period
    function that the difference equation leaves free; the solved values
    themselves do not include it.
    """

    twoj: int
    values: tuple[float, ...]
    anchor_point: float
    anchor_value: float
    p_value: float = 0.0

    def grid(self) -> list[float]:
        lo = -(self.twoj / 2.0) - 1.0
        return [lo + k for k in range(self.twoj + 2)]

    def _index(self, x: float) -> int:
        key = round(2.0 * x)
        idx = (key + self.twoj + 2) // 2
        if abs(key - 2.0 * x) > 1e-9 or (key + self.twoj) % 2 != 0 or not (
            0 <= idx < len(self.values)
        ):
            raise ParameterError(f"x={x} is off the solution grid")
        return idx

    def value(self, x: float) -> float:
        return self.values[self._index(x)]

    def shift_residual(self, f: StructureFunction) -> float:
        """Worst |g(x) - g(x-1) - f(x)| over the grid; zero as solved."""
        xs = self.grid()
        return max(
            abs(self.values[k] - self.values[k - 1] - f(xs[k]))
            for k in range(1, len(xs))
        )

    def plus_periodic(self, p: Callable[[float], float]) -> "GridFunction":
        """Add a unit-period function sampled on the grid (one constant)."""
        xs = self.grid()
        samples = [float(p(x)) for x in xs]
        if max(samples) - min(samples) > 1e-12:
            raise ParameterError("p must have unit period: grid samples differ")
        c = samples[0]
        return GridFunction(
            self.twoj,
            tuple(v + c for v in self.values),
            self.anchor_point,
            self.anchor_value + c,
            c,
        )


def discrete_antiderivative(
    f: StructureFunction,
    j: float | int | str | Fraction,
    anchor_value: float = 0.0,
    anchor_point: float | None = None,
    p_value: float = 0.0,
) -> GridFunction:
    """Solve g(x) - g(x-1) = f(x) on {-j-1, ..., j} by recursion.

    The anchor defaults to g(-j-1) = anchor_value, the lowest-weight
    consistency point; any other grid point may anchor instead.
    """
    jf = parse_spin(j)
    twoj = int(jf * 2)
    lo = -float(jf) - 1.0
    xs = [lo + k for k in range(twoj + 2)]
    if anchor_point is None:
        anchor_point = lo
    key = round(2.0 * float(anchor_point))
    a_idx = (key + twoj + 2) // 2
    if abs(key - 2.0 * float(anchor_point)) > 1e-9 or (key + twoj) % 2 != 0 or not (
        0 <= a_idx < len(xs)
    ):
        raise ParameterError(f"anchor point {anchor_point} is off the grid")
    steps = {x: f(x) for x in xs[1:]}
    bad = [x for x, v in steps.items() if not np.isfinite(v)]
    if bad:
        raise ParameterError(f"structure function is not finite at x={bad[0]}")
    vals = [0.0] * len(xs)
    vals[a_idx] = float(anchor_value)
    for k in range(a_idx + 1, len(xs)):
        vals[k] = vals[k - 1] + steps[xs[k]]
    for k in range(a_idx - 1, -1, -1):
        vals[k] = vals[k + 1] - steps[xs[k + 1]]
    return GridFunction(twoj, tuple(vals), float(anchor_point), float(anchor_value), p_value)


@dataclass(frozen=True)
class DeformedTriple:
    """Deformed generators, a record of which map produced them, and the
    relations the builder verified (``checks``, named as in a verify report)."""

    Jp: Operator
    Jm: Operator
    J0: Operator
    provenance: dict
    hermitian_pair: bool
    checks: CheckReport = field(default_factory=CheckReport)

    @property
    def dim(self) -> int:
        return self.Jp.dim


@dataclass(frozen=True)
class WittenGenerators:
    """Generators of Witten's second deformation at parameter r, with the
    relations build_witten verified as ``checks``."""

    W0: Operator
    Wp: Operator
    Wm: Operator
    r: float
    checks: CheckReport = field(default_factory=CheckReport)

    @property
    def dim(self) -> int:
        return self.W0.dim


def _scale(
    base: Operator, weight: Callable[[float], complex], ms: np.ndarray, axis: int
) -> Operator:
    """diag(weight(m)) @ base (axis 0) or base @ diag(weight(m)) (axis 1),
    evaluated only where base has support."""
    out = np.array(base.mat)
    for entry in zip(*np.nonzero(out)):
        out[entry] *= weight(float(ms[entry[axis]]))
    return Operator(out)


def _ladder_checks(
    j0: Operator, jp: Operator, jm: Operator, t: float, hermitian: bool = False
) -> CheckReport:
    """[J0, J+-~] = +-J+-~ as checks at tolerance t, and J-~ = (J+~)^dagger
    for a hermitian pair: one built as such (``hermitian``) or one whose
    adjoint residual is within t."""
    checks = CheckReport()
    checks.add("j0_ladder_raising", residual(commutator(j0, jp), jp), t)
    checks.add("j0_ladder_lowering", residual(commutator(j0, jm), -1.0 * jm), t)
    adjoint = residual(jm, jp.adjoint())
    if hermitian or adjoint <= t:
        checks.add("adjoint_pair", adjoint, t)
    return checks


def _ladder_triple(
    jp: Operator, jm: Operator, j0: Operator, provenance: dict, t: float,
    hermitian: bool = False,
) -> DeformedTriple:
    """The triple, raising unless [J0, J+-~] = +-J+-~ holds; J+~, J-~ are a
    hermitian pair as _ladder_checks decides."""
    checks = _ladder_checks(j0, jp, jm, t, hermitian)
    worst = max(c.residual for c in checks.named("j0_ladder_raising", "j0_ladder_lowering"))
    if worst > t:
        raise ArithmeticError(f"[J0~, J+-~] = +-J+-~ violated: residual {worst:.3e}")
    hermitian = bool(checks.named("adjoint_pair"))
    return DeformedTriple(jp.relabel("J+~"), jm.relabel("J-~"), j0, provenance, hermitian, checks)


def build_split_deformation(
    rep: Su2Rep,
    g: GridFunction | None,
    split: str = "symmetric",
    raising_weight: Callable[[float], complex] | None = None,
    lowering_weight: Callable[[float], complex] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> DeformedTriple:
    """Deform via one-sided diagonal weights: J+~ = J+ A(J0), J-~ = B(J0) J-.

    The product A*B is pinned by g through
    A(m)B(m) = (p - g(m)) / (C - m(m+1)) on the raising support m < j;
    the split chooses how to distribute it:

    - "left": A carries the whole product, B = 1 (breaks hermitian pairing);
    - "symmetric": A = B = sqrt(A*B), requiring the product nonnegative;
    - "custom": caller supplies both weights directly (g is ignored and the
      structure relation is not implied).
    """
    ms = rep.m_values()
    t = tol.for_dim(rep.dim)
    c_val = rep.casimir_value

    if split == "custom":
        if raising_weight is None or lowering_weight is None:
            raise ParameterError("custom split requires both weight functions")
        jp_t = _scale(rep.Jp, raising_weight, ms, 1)
        jm_t = _scale(rep.Jm, lowering_weight, ms, 0)
        prov = {"map": "ab_map", "params": {"split": "custom"}}
        return _ladder_triple(jp_t, jm_t, rep.J0, prov, t)

    if g is None:
        raise ParameterError("left/symmetric splits require a solved g")
    if split not in ("left", "symmetric"):
        raise ParameterError(f"unknown split {split!r}")

    support = [float(m) for m in ms[:-1]]
    ab = {}
    for m in support:
        denom = c_val - m * (m + 1.0)
        ab[round(2 * m)] = (g.p_value - g.value(m)) / denom

    if split == "left":
        a_weight = {k: v for k, v in ab.items()}
        b_weight = {k: 1.0 for k in ab}
    else:
        for k, v in ab.items():
            if v < -t:
                raise SplitError(
                    f"product A*B = {v:.6g} < 0 at m={k / 2}: needs non-hermitian split"
                )
        a_weight = {k: np.sqrt(max(v, 0.0)) for k, v in ab.items()}
        b_weight = a_weight

    jp_t = _scale(rep.Jp, lambda m: a_weight[round(2 * m)], ms, 1)
    jm_t = _scale(rep.Jm, lambda m: b_weight[round(2 * m)], ms, 0)
    triple = _ladder_triple(jp_t, jm_t, rep.J0, {"map": "ab_map", "params": {"split": split}}, t)

    # Structure relation [J+~, J-~] = f(J0) with f recovered from g's shifts.
    f_diag = from_diagonal([g.value(float(m)) - g.value(float(m) - 1.0) for m in ms])
    res = residual(commutator(jp_t, jm_t), f_diag)
    if res > t:
        raise ArithmeticError(f"split map violates its structure relation: {res:.3e}")
    return triple


def _hermitian_ladder_weight(
    jv: float, f: StructureFunction, tol_val: float
) -> Callable[[float], float]:
    """Row weight h(x) with J+~ = h(J0) J+, from the hermitian-pair map.

    The map's radicand f((x+j)/2) f((x-1-j)/2) / ((x+j)(x-1-j)) is evaluated
    at half the nominal arguments so that the structure function itself (the
    f of [J+~, J-~] = f(J0~), normalized to f -> 2x) drives the map; with
    f = [2x]_q this reproduces the SU_q(2) matrix elements exactly.
    """

    def weight(x: float) -> float:
        num = f((x + jv) / 2.0) * f((x - 1.0 - jv) / 2.0)
        rad = num / ((x + jv) * (x - 1.0 - jv))
        if rad < -tol_val:
            raise NegativeNormError(
                f"negative norm: radicand {rad:.6g} at J0-eigenvalue {x - 1.0}"
            )
        return float(np.sqrt(max(rad, 0.0)))

    return weight


def build_hermitian_deformation(
    j: float | int | str | Fraction,
    f: StructureFunction,
    tol: Tolerance = DEFAULT_TOL,
) -> DeformedTriple:
    """Adjoint-preserving deformation J+~ = h(J0) J+, J-~ = (J+~)^dagger."""
    rep = build_su2(j)
    ms = rep.m_values()
    t = tol.for_dim(rep.dim)
    weight = _hermitian_ladder_weight(float(rep.j), f, t)
    jp_t = _scale(rep.Jp, weight, ms, 0)
    jm_t = jp_t.adjoint()
    params = dict(f.params)
    params["f"] = f.description
    return _ladder_triple(jp_t, jm_t, rep.J0, {"map": "hermitian_f", "params": params}, t, True)


def build_suq2(
    j: float | int | str | Fraction, q: float, tol: Tolerance = DEFAULT_TOL
) -> DeformedTriple:
    """The SU_q(2) representation with elements sqrt([j-m]_q [j+m+1]_q).

    q must be positive real; q = 1 returns the classical representation.
    The deformed casimir identity is verified before returning.
    """
    if q <= 0:
        raise ParameterError(f"q must be positive real, got {q}")
    rep = build_su2(j)
    jv = float(rep.j)
    dim = rep.dim
    t = tol.for_dim(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        m = -jv + i
        mat[i + 1, i] = np.sqrt(q_number(jv - m, q) * q_number(jv + m + 1.0, q))
    jp_t = Operator(mat)
    jm_t = jp_t.adjoint()
    triple = _ladder_triple(jp_t, jm_t, rep.J0, {"map": "suq2", "params": {"q": float(q)}}, t, True)

    g_up = diag_function(lambda m: q_number(m, q) * q_number(m + 1.0, q), rep.J0, tol)
    g_down = diag_function(lambda m: q_number(m, q) * q_number(m - 1.0, q), rep.J0, tol)
    c_up = jm_t @ jp_t + g_up
    c_down = jp_t @ jm_t + g_down
    scalar = from_diagonal([q_number(jv, q) * q_number(jv + 1.0, q)] * dim)
    if residual(c_up, c_down) > t or residual(c_up, scalar) > t:
        raise ArithmeticError("SU_q(2) casimir identity violated")
    return triple


def build_witten(
    j: float | int | str | Fraction, r: float, tol: Tolerance = DEFAULT_TOL
) -> WittenGenerators:
    """Witten's second deformation via the diagonal map on SU(2).

    W0 is the printed closed form in r^(-2*J0); the ladder weight uses the
    normalization sqrt(r/(r+1/r)), under which the three defining relations

        [W0, W+]_r = W+,   [W+, W-]_(1/r^2) = W0,   [W-, W0]_r = W-

    hold exactly.  Each is asserted on construction, at a tolerance that
    follows the map's conditioning: its 1/(r - 1/r) prefactor amplifies
    rounding near r = 1 (W0 is a difference of nearly equal terms divided by
    r - 1/r), and for large j*|log r| the generators themselves grow; both
    scale the achievable residual above the flat tolerance.  The adjoint
    pairing W- = (W+)^dagger is recorded at the flat tolerance.
    """
    if r <= 0 or r == 1.0:
        raise ParameterError(f"r must be positive and != 1, got {r}")
    rep = build_su2(j)
    jv = float(rep.j)
    ms = rep.m_values()

    kappa = (r ** (2 * jv + 1) + r ** (-2 * jv - 1)) / (r + 1.0 / r)
    scale = 1.0 / (r - 1.0 / r)
    w0 = from_diagonal(
        [scale * (1.0 - kappa * r ** (-2.0 * float(m))) for m in ms], "W0"
    )

    # the ladder weight is r^(-x) times the hermitian map's at f = [2x]_r,
    # whose radicand is positive for real r > 0
    norm = np.sqrt(r / (r + 1.0 / r))
    base = _hermitian_ladder_weight(jv, qbracket_structure(r), 0.0)
    wp = _scale(rep.Jp, lambda x: float(r ** (-x) * norm * base(x)), ms, 0).relabel("W+")
    wm = wp.adjoint().relabel("W-")

    t = tol.for_dim(rep.dim)
    eps = float(np.finfo(float).eps)
    cancellation = 1.0 / abs(r - 1.0 / r)
    magnitude = (r + 1.0 / r) * (1.0 + w0.norm()) * (1.0 + wp.norm())
    t_w = max(t, 64.0 * eps * rep.dim * (cancellation + magnitude))
    checks = CheckReport()
    residuals = [
        checks.add(name, residual(bracket, target), t_w, detail=detail).residual
        for name, bracket, target, detail in (
            ("witten_relation_raising", r_commutator(w0, wp, r), wp, "[W0, W+]_r = W+"),
            ("witten_relation_pair", r_commutator(wp, wm, 1.0 / r**2), w0,
             "[W+, W-]_{1/r^2} = W0"),
            ("witten_relation_lowering", r_commutator(wm, w0, r), wm, "[W-, W0]_r = W-"),
        )
    ]
    worst = max(residuals)
    if worst > t_w:
        raise ArithmeticError(f"Witten defining relations violated: residual {worst:.3e}")
    checks.add("adjoint_pair", residual(wm, wp.adjoint()), t)
    return WittenGenerators(w0, wp, wm, float(r), checks)


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
    ms = rep.m_values()
    dim = rep.dim
    t = tol.for_dim(dim)
    c_val = rep.casimir_value
    jv = float(rep.j)

    w = {}
    for k in range(-1, dim + 1):
        m = -jv + k
        val = float(weight(c_val, m))
        if abs(val) <= t:
            raise ParameterError(f"singular F: weight vanishes at m={m}")
        w[round(2 * m)] = val

    def wv(m: float, shift: float = 0.0) -> float:
        return w[round(2 * (m + shift))]

    jp_t = _scale(rep.Jp, wv, ms, 1).relabel("J+~")
    jm_t = _scale(rep.Jm, wv, ms, 1).relabel("J-~")
    j0_t = from_diagonal([float(m) * wv(float(m)) for m in ms], "J0~")

    def ratio_diag(num_shift: float, den_shift: float) -> Operator:
        return from_diagonal(
            [1.0 - wv(float(m), num_shift) / wv(float(m), den_shift) for m in ms]
        )

    # [J0~, J+-~] = {1 - w(J0 -+ 1)/w(J0)} J0~ J+-~  +- w(J0 -+ 1) J+-~
    res_list = []
    for sign, ladder in ((+1, jp_t), (-1, jm_t)):
        coeff = ratio_diag(-sign, 0.0)
        shift_w = from_diagonal([wv(float(m), -sign) for m in ms])
        rhs = coeff @ (j0_t @ ladder) + float(sign) * (shift_w @ ladder)
        res_list.append(residual(commutator(j0_t, ladder), rhs))
    # [J+~, J-~] = {1 - w(J0+1)/w(J0-1)} J+~ J-~ + 2 w(J0+1) J0~
    coeff = ratio_diag(+1.0, -1.0)
    shift_w = from_diagonal([wv(float(m), 1.0) for m in ms])
    rhs = coeff @ (jp_t @ jm_t) + 2.0 * (shift_w @ j0_t)
    checks = CheckReport()
    res_list.append(
        checks.add(
            "structure_relation",
            residual(commutator(jp_t, jm_t), rhs),
            t,
            detail="[J+~, J-~] matches the scaled-deformation closed form",
        ).residual
    )
    # keeping J0 undeformed collapses the first identity to the plain ladder rule
    checks.extend(_ladder_checks(rep.J0, jp_t, jm_t, t))
    res_list += [c.residual for c in checks.named("j0_ladder_raising", "j0_ladder_lowering")]
    worst = max(res_list)
    if worst > t:
        raise ArithmeticError(f"scaled-deformation identities violated: {worst:.3e}")

    hermitian = bool(checks.named("adjoint_pair"))
    return DeformedTriple(jp_t, jm_t, j0_t, {"map": "f_deform", "params": {}}, hermitian, checks)


def deformed_casimir(
    triple: DeformedTriple, g: GridFunction, tol: Tolerance = DEFAULT_TOL
) -> Operator:
    """C~ = J-~ J+~ + g(J0~) = J+~ J-~ + g(J0~ - 1), verified central."""
    t = tol.for_dim(triple.dim)
    if not triple.J0.is_diagonal(t):
        raise NotDiagonalError("deformed casimir needs a diagonal J0~")
    c_up = triple.Jm @ triple.Jp + diag_function(g.value, triple.J0, tol)
    c_down = triple.Jp @ triple.Jm + diag_function(lambda x: g.value(x - 1.0), triple.J0, tol)
    if residual(c_up, c_down) > t:
        raise ArithmeticError("deformed casimir orderings disagree")
    central = max(
        residual(commutator(c_up, triple.Jp), 0.0 * c_up),
        residual(commutator(c_up, triple.Jm), 0.0 * c_up),
    )
    if central > t:
        raise ArithmeticError(f"deformed casimir is not central: {central:.3e}")
    return c_up.relabel("C~")
