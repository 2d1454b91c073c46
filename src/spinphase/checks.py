"""Every check spinphase reports, declared once, and the one evaluator that runs them.

Every deformed ladder factors as J+~ = U G, so each check is an identity
``lhs == rhs`` over named operands (J+~ as ``Jp``, J-~, J0, C, U, U^dag, H, G,
K, the corner, I, ...), the larger residual of two, or a scalar residual.
``evaluate``, the only caller of ``CheckReport.add``, runs each tree compiled
to one Python expression calling the ``operators`` functions in the tree's
order, so a residual has the bits of that expression written by hand.  A
derived operand is made when first read and dropped after the last check
reading it, so the dense temporaries of nonzero residuals come and go in the
order of the checks (which sets the peak memory of a dim-961 verify).
``require``, every builder's gate, raises where one exceeds its tolerance.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .operators import SplitError, commutator, psd_sqrt, r_commutator, residual, _holds, _larger
from .report import CheckReport, CheckResult

__all__ = ["CHECKS", "Check", "Expr", "Scope", "evaluate", "require"]


def _binary(op: str, swapped: bool = False) -> Callable:
    if swapped:
        return lambda self, other: Expr(op, _expr(other), self)
    return lambda self, other: Expr(op, self, _expr(other))


class Expr:
    """A tree node: an operand (``args`` its name), a constant, or ``op`` on the
    nodes ``args``, reading the operands ``names``.  ``lhs == rhs`` is the
    identity's residual node ||lhs - rhs|| (||lhs|| for ``x == 0``), and ``fn``
    the node compiled to a function of a scope's lookup."""

    __slots__ = ("op", "args", "names", "_fn")
    __matmul__, __add__, __sub__, __mul__, __truediv__ = map(_binary, "@+-*/")
    __radd__, __rmul__ = _binary("+", swapped=True), _binary("*", swapped=True)

    def __init__(self, op: str, *args) -> None:
        self.op, self.args, self._fn = op, args, None
        nodes = (a.names for a in args if isinstance(a, Expr))
        self.names = frozenset(args) if op == "operand" else frozenset().union(*nodes)

    def __eq__(self, other) -> Expr:  # type: ignore[override]
        if type(other) is int and other == 0:
            return Expr("norm", self)
        return Expr("residual", self, _expr(other))

    def adjoint(self) -> Expr:
        return Expr("adjoint", self)

    @property
    def fn(self) -> Callable:
        """One Python function of ``get``; it looks commutator, residual... up here."""
        if self._fn is None:
            consts: list = []
            source = _source(self, consts)
            self._fn = eval(f"lambda get, c=c: {source}", globals(), {"c": consts})
        return self._fn


def operands(names: str) -> tuple[Expr, ...]:
    return tuple(Expr("operand", name) for name in names.split())


def _expr(value) -> Expr:
    return value if isinstance(value, Expr) else Expr("const", value)


def comm(a, b) -> Expr:  # [A, B] = AB - BA
    return Expr("commutator", _expr(a), _expr(b))


def rcomm(a, b, r) -> Expr:  # r AB - (1/r) BA
    return Expr("r_commutator", _expr(a), _expr(b), _expr(r))


def call(fn: Callable, *args) -> Expr:
    """fn of the arguments' values: a derived operand no operation above forms."""
    return Expr("call", fn, *map(_expr, args))


def _source(e: Expr, consts: list) -> str:
    """Python computing e from ``get`` and the constants ``c`` (values, not text)."""
    op, args = e.op, e.args
    if op == "operand":
        return f"get({args[0]!r})"
    if op in ("const", "call"):
        consts.append(args[0])
        if op == "const":
            return f"c[{len(consts) - 1}]"
        op, args = f"c[{len(consts) - 1}]", args[1:]
    parts = [_source(a, consts) for a in args]
    if op in ("@", "+", "-", "*", "/"):
        return f"({parts[0]} {op} {parts[1]})"
    return f"{parts[0]}.{op}()" if op in ("adjoint", "norm") else f"{op}({', '.join(parts)})"


ONE = type("One", (), {"__matmul__": lambda self, x: x})()  # the identity factor: ONE @ X is X
Jp, Jm, J0, B, C, Cd, S, F, U, Ud, H, G, K, L, I = operands("Jp Jm J0 B C Cd S F U Ud H G K L I")
corner, dU, dUd, R, rate, lam, tol = operands("corner dU dUd R rate lam tol")
Sp, Sm, Sz, Mp, Mm, J0t, D1, D2 = operands("J+ J- Jz Mp Mm J0t D1 D2")  # J0t: a deformed J0~
r, inv_r2, Balt, RefP, radicands, delta, muB = operands("r inv_r2 Balt RefP radicands delta muB")
t, dim, cancellation, spread = operands("t dim cancellation spread")


def dot(x) -> Expr:
    """(1/i)[X, H], formed as ``dynamics.heisenberg_derivative`` forms it."""
    return (x @ H - H @ x) / 1j


def _modulus(a, b, tol, label: str):
    return psd_sqrt(a @ b, tol).relabel(label)


# derived operands: U^dag, [J+~, J-~], R = [U, J0] = corner - U (formed once for
# both of its checks), and the su2 casimir's two orderings and polar moduli
UD, BRACKET, UNSHIFTED = U.adjoint(), comm(Jp, Jm), corner - U
CASIMIR = {"C": Jm @ Jp + J0 @ J0 + J0, "Cd": Jp @ Jm + J0 @ J0 - J0}
MODULI = {
    "Mp": call(_modulus, Sp, Sm, tol, "sqrt(J+J-)"), "Mm": call(_modulus, Sm, Sp, tol, "sqrt(J-J+)")
}
# U's equation of motion: U^dag, dU/dt, dU^dag/dt and the negative control's
# floor 0.5 * max(|rate|, 1e-300), one rule for every family (at rate 0 the
# control fails instead of passing with residual 0 >= tol 0)
MOTION = {
    "Ud": UD, "dU": dot(U), "dUd": dot(Ud),
    "t_control": call(lambda rate: 0.5 * max(abs(rate), 1e-300), rate),
}


def _image_norm(op, index: int):
    """|| op |index> || for the basis state at index; per row for a batch."""
    state = np.zeros(op.dim, dtype=complex)
    state[index] = 1.0
    image, norm = op.apply(state), np.linalg.norm  # a batch's image: a row per point
    return float(norm(image)) if image.ndim == 1 else np.array([*map(norm, image)])


class Check(NamedTuple):
    """A declared check: the ``tree`` of its residual (the larger of its sides'),
    compiled (``measure``), and ``detail``, text or a function of a scope's
    lookup; the operand ``tol`` names its tolerance.  A raise of ``fails_on`` fails it
    with residual inf; one with a ``when`` is made only where that operand is true."""

    name: str
    category: str
    tree: Expr
    measure: Callable
    mode: str
    detail: str | Callable
    tol: str
    fails_on: tuple
    when: str


def check(name, category, *sides, mode="le", detail="", tol="t", fails_on=(), when="") -> Check:
    tree = sides[0] if len(sides) == 1 else Expr("_larger", *sides)
    return Check(name, category, tree, tree.fn, mode, detail, tol, fails_on, when)


CHECKS = (
    # U is unitary and polar-decomposes the su2 ladder (J+, J-, Jz)
    check("phase_unitarity", "phase", U @ Ud == I, Ud @ U == I),
    check("polar_raising_left", "phase", Mp @ U == Sp),
    check("polar_raising_right", "phase", U @ Mm == Sp),
    check("polar_lowering_left", "phase", Mm @ Ud == Sm),
    check("polar_lowering_right", "phase", Ud @ Mp == Sm),
    check("phase_number_commutator", "phase", comm(U, Sz) == R, comm(Ud, Sz) == -1.0 * R.adjoint(),
          detail="[exp(+-i*phi), J0] matches its closed form incl. the corner term"),
    # the ladder algebra, B = [J+~, J-~] and F its closed form
    check("j0_ladder_raising", "algebra", comm(J0, Jp) == Jp),
    check("j0_ladder_lowering", "algebra", comm(J0, Jm) == -1.0 * Jm),
    check("adjoint_pair", "algebra", Jm == Jp.adjoint(), when="hermitian"),
    check("structure_relation", "algebra", B == F, detail="[J+~, J-~] = f(J0) with f = [2x]_q"),
    check("top_state_annihilated", "algebra", call(_image_norm, Jp, -1),
          detail="J+~ |j, j> = 0"),
    check("bottom_state_annihilated", "algebra", call(_image_norm, Jm, 0),
          detail="J-~ |j, -j> = 0"),
    check("vacuum_annihilated", "algebra", call(_image_norm, Jp, 0),
          detail="J+~ kills |0> (x) |0> because b_q does"),
    check("casimir_orderings", "algebra", C == Cd),
    check("casimir_scalar", "algebra", C == S),
    check("casimir_central", "algebra", comm(C, Jp) == 0.0 * Jp, comm(C, Jm) == 0.0 * Jm),
    check("witten_relation_raising", "algebra", rcomm(J0t, Jp, r) == Jp, tol="t_w",
          detail="[W0, W+]_r = W+"),
    check("witten_relation_pair", "algebra", rcomm(Jp, Jm, inv_r2) == J0t, tol="t_w",
          detail="[W+, W-]_{1/r^2} = W0"),
    check("witten_relation_lowering", "algebra", rcomm(Jm, J0t, r) == Jm, tol="t_w",
          detail="[W-, W0]_r = W-"),
    check("matches_suq2_representation", "algebra", Jp == RefP, Jm == RefP.adjoint(), when="real_q",
          detail="hermitian map at f = [2x]_q equals the SU_q(2) elements"),
    check("alternate_split_structure", "algebra", Balt == B,
          fails_on=(SplitError, ArithmeticError),
          detail=lambda get: f"{get('other')} split realizes the same commutator"),
    # the oscillators: a = U G with the modulus G, and N as J0
    check("radicand_positivity", "algebra", call(lambda r: max(0.0, -min(r)), radicands),
          detail=lambda get: f"level radicands {tuple(round(v, 12) for v in get('radicands'))}"
          " all >= 0"),
    check("polar_product", "phase", Jp == U @ G, detail="a = U sqrt(N) exactly"),
    check("number_ladder_commutator", "algebra", comm(Jp, J0) == Jp,
          detail="[a, N] = a with no boundary term in finite dimension"),
    check("two_mode_polar_product", "derivation", L @ U @ G == Jp,
          detail="J+~ factors through the relative phase unitary U_A^dag (x) U_B"),
    # the phase derivation: dU = (1/i)[U, H] = -i*rate*(U - corner), the ladder L U G
    check("weight_commutes_with_h", "derivation", G @ H == H @ G, K @ H == H @ K,
          detail="diagonal weights G = U^dag J+~ and K = J-~ U commute with H"),
    check("phase_equation_with_boundary", "derivation", dU == (-1j * rate) * (U - corner),
          detail="(1/i)[U,H] = -i*muB*(U - (2j+1)e^{i(2j+1)theta0}|-j><j|)"),
    check("boundary_term_annihilated", "derivation", corner @ G == 0,
          detail="the boundary projector times G vanishes (top state is killed)"),
    check("raising_dynamics_from_phase", "derivation", dU @ G == (-1j * rate) * Jp,
          detail="dU/dt * G reproduces dJ+~/dt = -i*muB*J+~"),
    check("ladder_dynamics_from_phase", "derivation", L @ dU @ G == (-1j * rate) * Jp,
          detail="dU/dt * modulus reproduces the annihilation dynamics"),
    check("conjugate_phase_equation_with_boundary", "derivation",
          dUd == (1j * rate) * (Ud - corner.adjoint()),
          detail="(1/i)[U^dag,H] matches its closed form with boundary term"),
    check("lowering_dynamics_from_phase", "derivation", K @ dUd == (1j * rate) * Jm,
          detail="K * dU^dag/dt reproduces dJ-~/dt = +i*muB*J-~"),
    check("phase_equation_without_boundary", "control", dU == (-1j * rate) * U, mode="ge",
          tol="t_control", detail="negative control: dropping the boundary projector breaks the"
          " phase equation by muB*(2j+1); ladder dynamics alone cannot reconstruct the phase"
          " dynamics"),
    # the dynamics: (1/i)[X, H] = lam X
    check("raising_eigenoperator", "dynamics", dot(Jp) == lam * Jp,
          detail=lambda get: f"(1/i)[J+~, H] = ({get('lam').real:g}{get('lam').imag:+g}i) J+~"),
    check("lowering_eigenoperator", "dynamics", dot(Jm) == call(complex.conjugate, lam) * Jm),
    check("weight_conserved", "dynamics", dot(J0) == 0j * J0,
          detail=lambda get: f"{get('J0').label or 'J0~'} is a constant of the motion"),
    check("frequency_condition", "dynamics", call(abs, delta - muB),
          detail="omega2 - omega1 = muB matches the spin precession rate"),
    # a scenario that could not be built
    check("construction", "algebra", _expr(float("inf")), tol="abs_tol",
          detail=lambda get: str(get("error"))),
)
# the scaled map's identities (``deform.build_scaled_deformation``), gated by these
# names; scaled_ladder is not reported, scaled_structure is as structure_relation
D1p, D2p, D1m = operands("D1+ D2+ D1-")
_BY_NAME = {c.name: c for c in CHECKS} | {
    "scaled_ladder": check("scaled_ladder", "algebra",
                           comm(J0t, Jp) == D1p @ (J0t @ Jp) + 1.0 * (D2p @ Jp),
                           comm(J0t, Jm) == D1m @ (J0t @ Jm) + -1.0 * (D2 @ Jm)),
    "scaled_structure": check("structure_relation", "algebra",
                              comm(Jp, Jm) == D1 @ (Jp @ Jm) + 2.0 * (D2 @ J0t),
                              detail="[J+~, J-~] matches the scaled-deformation closed form"),
}
# Witten's t_w: its 1/(r - 1/r) prefactor (``cancellation``) amplifies rounding
# near r = 1, and for large j*|log r| its generators grow (``spread`` = r + 1/r)
T_W = call(_larger, t, 64.0 * float(np.finfo(float).eps) * dim * (
    cancellation + spread * (1.0 + Expr("norm", J0t)) * (1.0 + Expr("norm", Jp))))


class Scope(dict):
    """Operands by name: ``values``, each ``derived`` tree computed on first read,
    then the ``parent``'s; a parent keeps in ``results`` the checks made on it."""

    __slots__ = ("derived", "parent", "results", "_known")

    def __init__(self, values: dict, derived: dict = {}, parent: Scope | None = None) -> None:
        super().__init__(parent or ())  # what the parent has read and computed so far
        self.update(values)
        self.derived, self.parent, self.results, self._known = derived, parent, {}, None

    def known(self) -> frozenset:  # the names it binds or derives
        self._known = self._known or frozenset(self).union(self.derived)
        return self._known

    def __missing__(self, name: str):
        if name in self.derived:
            self[name] = self.derived[name].fn(self.__getitem__)
        elif self.parent is not None:
            self[name] = self.parent[name]
        else:
            raise KeyError(name)
        return self[name]


@lru_cache(maxsize=None)
def _schedule(names: tuple[str, ...], derived: tuple[str, ...], known: frozenset | None):
    """Each check, whether it reads only the parent's operands ``known`` (None:
    no parent), and the derived operands that no later check reads."""
    checks = [_BY_NAME[name] for name in names]
    reads = [c.tree.names | {c.tol, c.when} - {""} for c in checks]
    last = {n: i for i, read in enumerate(reads) for n in read if n in derived}
    return [(c, known is not None and read <= known, tuple(n for n, at in last.items() if at == i))
            for i, (c, read) in enumerate(zip(checks, reads))]


def evaluate(names: tuple[str, ...], values: dict, *, derived: dict = {},
             parent: Scope | None = None, details: dict | None = None,
             given: Iterable[CheckResult] = ()) -> CheckReport:
    """A report of the checks called ``names``, in order: as ``given`` holds one
    (a builder's), else evaluated on ``values``, ``derived`` and ``parent``'s
    operands with the detail ``details`` may map its name to.  One reading
    only the parent's operands is made once per parent, which values and
    derived may not rebind (ValueError)."""
    report = CheckReport()
    scope = Scope(values, derived, parent) if derived or parent else values  # never popped
    get, made = scope.__getitem__, {c.name: c for c in given} if given else {}
    known = None if parent is None else parent.known()
    if known and not (known.isdisjoint(values) and known.isdisjoint(derived)):  # else shadowed
        raise ValueError(f"{sorted(known & {*values, *derived})} rebind the parent's operands")
    for check, on_parent, done in _schedule(names, tuple(derived), known):
        name, lookup = check.name, parent.__getitem__ if on_parent else get
        kept = made.get(name) or on_parent and parent.results.get(name)
        if kept:
            report.checks.append(kept)
        elif not check.when or lookup(check.when):
            detail = details.get(name, check.detail) if details else check.detail
            try:
                res = check.measure(lookup)
            except check.fails_on as exc:
                res, detail = float("inf"), str(exc)
            detail = detail if isinstance(detail, str) else detail(lookup)
            kept = report.add(name, res, lookup(check.tol), detail, check.category, check.mode)
            if on_parent:
                parent.results[name] = kept
        for n in done:
            scope.pop(n, None)
    return report


def require(names: tuple[str, ...], scope: dict, message: str) -> CheckReport:
    """A builder's gate: the checks called ``names`` evaluated on ``scope``
    (see ``evaluate``), or an ArithmeticError of ``message`` formatted with
    the largest residual where any exceeds the tolerance its check reports.
    A NaN residual exceeds none, so it neither raises nor hides another's
    violation; a batch's rows that exceed one run apart (``operators._holds``)."""
    report = evaluate(names, scope)
    if _holds(reduce(np.logical_or, [c.residual > c.tol for c in report])):
        worst = reduce(_larger, [c.residual for c in report], -np.inf)
        raise ArithmeticError(message.format(worst))
    return report
