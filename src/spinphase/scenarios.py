"""Scenario resolution: one validated parameter bundle per operator family.

A scenario names a family (su2, suq2, witten, ab_map, f_deform, hermitian_f,
oscillator, q_oscillator, jordan_schwinger) plus the parameters the family
needs.  ``Scenario`` declares each field once: its default, type, flag help
(split and f_coeff have no flag) and whether a phase frame's batch holds it
per point; the CLI's flags and ``verify.verify_points`` read it.
``families.FAMILY_TABLE`` states what each family reads and requires: the
report's scenario block, the fields a scenario keeps, the ones a sweep may
vary and each family's rules (``families.Rule``) derive from it.  Scenario
files are flat JSON whose keys are Scenario fields (of any family; the CLI
flag names, q_phase for --q-phase); flags override file values, and every
numeric value, j and s included, must be a finite number and no JSON boolean.
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


def _field(default=MISSING, *, type=float, batched=False, factory=MISSING, **flag) -> Any:
    """A Scenario field: its default (or ``factory``), the ``type`` its value
    parses as, its flag's other ``add_argument`` options (no ``help``, no
    flag) and whether a frame's batch holds it per point (else it keys the frame)."""
    return field(default=default, default_factory=factory,
                 metadata={"type": type, "flag": flag, "batched": batched})


@dataclass(frozen=True)
class Scenario:
    """Validated parameters for one family, each field declared once."""

    family: str = _field(type=str, choices=FAMILIES, help="operator family")
    j: Fraction | None = _field(None, type=str, help="spin as a fraction like 3/2 or a decimal")
    s: int | None = _field(None, type=int, help="oscillator truncation level (dim s+1)")
    q: float | None = _field(None, help="real deformation parameter q > 0", batched=True)
    q_phase: float | None = _field(
        None, help="phase-valued q as the root order p in q = exp(i*2*pi/p)", batched=True)
    r: float | None = _field(None, help="Witten deformation parameter (r > 0, r != 1)",
                             batched=True)
    theta0: float = _field(0.0, help="phase reference angle (default 0)")
    phi0: float = _field(0.0, help="oscillator reference angle (default 0)")
    muB: float = _field(1.0, help="dipole coupling mu*B (default 1)")
    omega: float = _field(1.0, help="oscillator frequency (default 1)")
    omega1: float = _field(1.0, help="first mode frequency (default 1)")
    omega2: float = _field(2.0, help="second mode frequency (default 2)")
    split: str = _field("symmetric", type=str)
    f_coeff: float = _field(0.1, batched=True)
    tol: Tolerance = _field(factory=Tolerance,
                            help="absolute tolerance (default 1e-12, scaled by dim)")

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
_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}
_NUMBERS = tuple(f.name for f in fields(Scenario) if f.metadata["type"] is float)
# the numbers some family's rule reads, parsed (and refused) before any rule runs
_RULED = tuple(name for name in _NUMBERS
               if any(name in rule.reads for fam in FAMILY_TABLE.values() for rule in fam.rules))


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
    """Merge raw values (file + flags, flags already layered on top).

    Checks fire in one order: j or s, the numbers any family's rule reads, the
    family's rules, the tolerance and the dimension, then the other numbers.
    A family keeps the fields it reads (a phase-valued q replacing the real
    one); every other field keeps its default."""
    for key, value in values.items():
        if key not in _KEYS:
            raise ParameterError(f"unknown scenario key {key!r}; choose from {', '.join(_KEYS)}")
        if isinstance(value, bool) and key not in ("family", "split"):
            raise ParameterError(f"{key} expects a number, got {value!r}")
    family = values.get("family")
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}")

    entry = FAMILY_TABLE[family]
    merged = {**_DEFAULTS, **{k: v for k, v in values.items() if v is not None}}
    j = s = None
    key = "j" if "j" in entry.params else "s"  # the size: a spin family's j, else s
    if merged[key] is None:
        raise ParameterError(f"family {family} requires --{key}")
    if key == "j":
        j = parse_spin(merged["j"])
    else:
        try:
            s = int(merged["s"])
            if isinstance(merged["s"], float) and s != merged["s"]:
                raise ValueError("not integral")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"--s expects an integer, got {merged['s']!r}") from exc
        if s < 1:
            raise ParameterError(f"s must be >= 1, got {s}")

    parsed = {"j": j, "s": s, "split": str(merged["split"]),
              **{name: _as_float(merged, name) for name in _RULED}}
    for rule in entry.rules:
        args = {name: parsed[name] for name in rule.reads}
        if not rule.holds(**args):
            raise ParameterError(rule.message.format(family=family, **args))

    parsed["tol"] = _as_float(merged, "tol")
    tol = Tolerance(default_tol if parsed["tol"] is None else parsed["tol"])
    dim = 2 * j.numerator // j.denominator + 1 if j is not None else s + 1
    dim = dim**2 if family == "jordan_schwinger" else dim
    if dim > sys.float_info.max:
        raise ParameterError(f"--{key} is too large: its dimension is not a finite float")
    if not math.isfinite(tol.for_dim(dim)):
        raise ParameterError(f"--tol {tol.abs_tol!r} times the dimension {dim} is not finite")

    parsed.update({name: _as_float(merged, name) for name in _NUMBERS if name not in parsed})
    kept = {name: parsed[name] for name in entry.params}
    if kept.get("q_phase") is not None:  # a phase-valued q replaces the real one
        kept["q"] = None
    return Scenario(family=family, tol=tol, **kept)


def build_bundle(sc: Scenario, frame: Scope | None = None) -> FamilyBundle:
    """Construct the family's operators; algebraic failures propagate.

    A spin family is built on ``frame``, which must be the phase frame of
    the scenario's (j, theta0, muB, tol); without one it gets a new frame."""
    if frame is None and sc.j is not None:
        frame = spin_frame(sc.j, sc.theta0, sc.muB, sc.tol)
    return FAMILY_TABLE[sc.family].build(sc, frame)
