"""The standard (2j+1)-dimensional SU(2) representation.

Basis states are ordered by ascending magnetic quantum number, m = -j .. +j,
so index i corresponds to m = i - j.  With that ordering the raising operator
is strictly lower-triangular: <j,m+1| Jp |j,m> = sqrt((j-m)(j+m+1)).  Every
ladder in the package, deformed or not, has its entries on those steps m ->
m+1 only, and ``_place_ladders`` is the one place that writes them.

The conventions [J0, J+-] = +-J+- and [J+, J-] = 2*J0 together with these
matrix elements form a consistent set; Jx/Jy normalizations are never needed
here and are deliberately not provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import (
    DEFAULT_TOL,
    BadSpinError,
    Operator,
    Tolerance,
    from_diagonal,
)
from .checks import CASIMIR, Scope, require

__all__ = ["Su2Rep", "parse_spin", "build_su2", "casimir"]


def parse_spin(j: float | int | str | Fraction) -> Fraction:
    """Normalize a spin given as Fraction, int, float, "p/q" or decimal text.

    Returns the exact half-integer as a Fraction; anything that is not a
    positive half-integer raises BadSpinError.
    """
    try:
        if isinstance(j, Fraction):
            frac = j
        elif isinstance(j, str):
            frac = Fraction(j.strip())
        elif isinstance(j, (int, np.integer)):
            frac = Fraction(int(j))
        else:
            frac = Fraction(float(j)).limit_denominator(2)
            if abs(float(frac) - float(j)) > 1e-9:
                raise BadSpinError(f"bad spin: {j!r} is not a half-integer")
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise BadSpinError(f"bad spin: cannot parse {j!r}") from exc
    if frac.denominator not in (1, 2) or frac <= 0:
        raise BadSpinError(f"bad spin: {j!r} is not a positive half-integer")
    return frac


@dataclass(frozen=True)
class Su2Rep:
    """The triple (J+, J-, J0) at spin j, ascending-m basis."""

    twoj: int
    Jp: Operator
    Jm: Operator
    J0: Operator

    @property
    def j(self) -> Fraction:
        return Fraction(self.twoj, 2)

    @property
    def dim(self) -> int:
        return self.twoj + 1

    def m_values(self) -> np.ndarray:
        return -(self.twoj / 2.0) + np.arange(self.dim)

    @property
    def casimir_value(self) -> float:
        j = self.twoj / 2.0
        return j * (j + 1.0)

    def ladder_entries(self) -> np.ndarray:
        """<m+1| J+ |m> on the ladder steps m = -j, ..., j-1."""
        return self.Jp.diagonal(-1).real


def _place_ladders(
    raising, lowering=None, labels: tuple[str, str] = ("J+~", "J-~")
) -> tuple[Operator, Operator]:
    """(J+, J-) with the given entries on the ladder steps m -> m+1: J+ at
    (i+1, i), J- at (i, i+1).

    J- is the adjoint of J+, with ``lowering``'s entries written over its
    steps when given; either way its other entries are the adjoint's (-0
    imaginary parts included).
    """
    dim = np.shape(raising)[-1] + 1  # a batch's raising has a row per point
    jp = Operator._from_diagonals(dim, {-1: raising}, labels[0])
    if lowering is None:
        return jp, jp.adjoint().relabel(labels[1])
    # the adjoint's other entries are conjugated zeros, 0 - 0j
    return jp, Operator._from_diagonals(dim, {1: lowering}, labels[1], complex(0.0, -0.0))


def build_su2(j: float | int | str | Fraction) -> Su2Rep:
    """Construct the irreducible representation at spin j."""
    twoj = int(parse_spin(j) * 2)
    jv = twoj / 2.0
    ms = -jv + np.arange(twoj + 1)
    jp, jm = _place_ladders(np.sqrt((jv - ms[:-1]) * (jv + ms[:-1] + 1.0)), labels=("J+", "J-"))
    return Su2Rep(twoj, jp, jm, from_diagonal(ms, "J0"))


def casimir(rep: Su2Rep, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """J-J+ + J0(J0+1), held to the other ordering and j(j+1)*I (the checks
    casimir_orderings and casimir_scalar) or an ArithmeticError."""
    values = {"Jp": rep.Jp, "Jm": rep.Jm, "J0": rep.J0, "t": tol.for_dim(rep.dim),
              "S": from_diagonal([rep.casimir_value] * rep.dim)}
    scope = Scope(values, CASIMIR)
    c = scope["C"]  # the gate drops it after its last check
    require(("casimir_orderings", "casimir_scalar"), scope,
            "casimir orderings disagree; representation is corrupt")
    return c.relabel("C")
