"""Scenario resolution: one validated parameter bundle per operator family.

A scenario names a family (su2, suq2, witten, ab_map, f_deform, hermitian_f,
oscillator, q_oscillator, jordan_schwinger) plus the parameters the family
needs.  ``families.FAMILY_TABLE`` is the one place that states which
parameters each family reads: the family list, the report's scenario block,
the parameters a scenario keeps and the ones a sweep may vary all derive
from it, and its entries build the family's operators.  Scenario files are
flat JSON whose keys are Scenario fields (of any family; the CLI flag names,
q_phase for --q-phase); flags override file values, defaults are the
Scenario field defaults, and every numeric value, j and s included, must be
a finite number and no JSON boolean.
Validation failures raise ParameterError/BadSpinError (CLI exit 2);
mathematically impossible constructions surface later as check failures
(CLI exit 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Any

from .checks import Scope
from .families import FAMILY_TABLE, FamilyBundle, spin_frame
from .operators import ParameterError, Tolerance
from .su2 import parse_spin

__all__ = [
    "FAMILIES",
    "Scenario",
    "FamilyBundle",
    "build_bundle",
    "resolve_scenario",
]

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class Scenario:
    """Validated parameters for one family."""

    family: str
    j: Fraction | None = None
    s: int | None = None
    q: float | None = None
    q_phase: float | None = None
    r: float | None = None
    theta0: float = 0.0
    phi0: float = 0.0
    muB: float = 1.0
    omega: float = 1.0
    omega1: float = 1.0
    omega2: float = 2.0
    split: str = "symmetric"
    f_coeff: float = 0.1
    tol: Tolerance = field(default_factory=Tolerance)

    def to_jsonable(self) -> dict:
        """Fully resolved flat form, keys mirroring the CLI flags."""
        out: dict[str, Any] = {"family": self.family}
        for key in FAMILY_TABLE[self.family].params:
            value = getattr(self, key)
            if value is not None:
                out[key] = str(value) if key == "j" else value
        out["tol"] = self.tol.abs_tol
        return out


_KEYS = tuple(f.name for f in fields(Scenario))


def _as_float(values: dict, key: str) -> float | None:
    v = values.get(key)
    if v is None:
        return None
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"flag {key} expects a number, got {v!r}") from exc
    if not math.isfinite(x):
        raise ParameterError(f"flag {key} must be finite, got {v!r}")
    return x


def resolve_scenario(values: dict, default_tol: float = 1e-12) -> Scenario:
    """Merge raw values (file + flags, flags already layered on top)."""
    for key, value in values.items():
        if key not in _KEYS:
            raise ParameterError(f"unknown scenario key {key!r}; choose from {', '.join(_KEYS)}")
        if isinstance(value, bool) and key not in ("family", "split"):
            raise ParameterError(f"{key} expects a number, got {value!r}")
    family = values.get("family")
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}"
        )

    params = FAMILY_TABLE[family].params
    merged = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}
    merged.update({k: v for k, v in values.items() if v is not None})

    j = None
    s = None
    if "j" in params:
        if merged["j"] is None:
            raise ParameterError(f"family {family} requires --j")
        j = parse_spin(merged["j"])
    else:
        if merged["s"] is None:
            raise ParameterError(f"family {family} requires --s")
        try:
            s = int(merged["s"])
            if isinstance(merged["s"], float) and s != merged["s"]:
                raise ValueError("not integral")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"--s expects an integer, got {merged['s']!r}") from exc
        if s < 1:
            raise ParameterError(f"s must be >= 1, got {s}")

    q = _as_float(merged, "q")
    q_phase = _as_float(merged, "q_phase")
    r = _as_float(merged, "r")

    if family in ("suq2", "ab_map") and (q is None or q <= 0):
        raise ParameterError(f"{family} requires real q > 0, got {q}")
    if family == "witten":
        if r is None:
            raise ParameterError("witten requires --r")
        if r <= 0 or r == 1.0:
            raise ParameterError(f"witten requires r > 0 and r != 1, got {r}")
    if family == "hermitian_f":
        if q_phase is not None:
            if q_phase <= 2:
                raise ParameterError(
                    f"--q-phase is the root order p in q = exp(i*2*pi/p); need p > 2, got {q_phase}"
                )
        elif q is None or q <= 0:
            raise ParameterError(f"hermitian_f requires --q > 0 or --q-phase, got q={q}")
    split = str(merged["split"])
    if family == "ab_map" and split not in ("left", "symmetric"):
        raise ParameterError(f"split must be 'left' or 'symmetric', got {split!r}")

    tol_val = _as_float(merged, "tol")
    tol = Tolerance(tol_val if tol_val is not None else default_tol)
    dim = 2 * j.numerator // j.denominator + 1 if j is not None else s + 1
    dim = dim**2 if family == "jordan_schwinger" else dim
    if dim > sys.float_info.max:
        raise ParameterError(f"--{'j' if j is not None else 's'} is too large: its dimension is not"
                             " a finite float")
    if not math.isfinite(tol.for_dim(dim)):
        raise ParameterError(f"--tol {tol.abs_tol!r} times the dimension {dim} is not finite")

    # a family keeps only the deformation parameters it reads; a phase-valued
    # q (hermitian_f --q-phase) replaces the real one
    q_phase = q_phase if "q_phase" in params else None
    reals = ("theta0", "phi0", "muB", "omega", "omega1", "omega2", "f_coeff")
    return Scenario(
        family=family,
        j=j,
        s=s,
        q=q if "q" in params and q_phase is None else None,
        q_phase=q_phase,
        r=r if "r" in params else None,
        split=split,
        tol=tol,
        **{key: _as_float(merged, key) for key in reals},
    )


def build_bundle(sc: Scenario, frame: Scope | None = None) -> FamilyBundle:
    """Construct the family's operators; algebraic failures propagate.

    A spin family is built on ``frame``, which must be the phase frame of
    the scenario's (j, theta0, muB, tol); without one it gets a new frame."""
    if frame is None and sc.j is not None:
        frame = spin_frame(sc.j, sc.theta0, sc.muB, sc.tol)
    return FAMILY_TABLE[sc.family].build(sc, frame)
