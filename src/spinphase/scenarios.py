"""Scenario resolution: one validated parameter bundle per operator family.

A scenario names a family (su2, suq2, witten, ab_map, f_deform, hermitian_f,
oscillator, q_oscillator, jordan_schwinger) plus the parameters the family
needs.  ``FAMILY_PARAMS`` is the one place that states which parameters each
family reads: the family list, the spin families, the report's scenario
block, the parameters a scenario keeps and the ones a sweep may vary all
derive from it.  Scenario files are flat JSON mirroring the CLI flag names;
flags override file values, and every numeric value must be a finite number.
Validation failures raise ParameterError/BadSpinError (CLI exit 2);
mathematically impossible constructions surface later as check failures
(CLI exit 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .deform import (
    DeformedTriple,
    GridFunction,
    build_hermitian_deformation,
    build_scaled_deformation,
    build_split_deformation,
    build_suq2,
    build_witten,
    discrete_antiderivative,
    qbracket_structure,
)
from .dynamics import (
    Hamiltonian,
    dipole_hamiltonian,
    number_hamiltonian,
    two_mode_hamiltonian,
)
from .operators import Operator, ParameterError, Tolerance
from .oscillator import build_finite_oscillator, build_q_oscillator, jordan_schwinger
from .su2 import Su2Rep, build_su2, parse_spin

__all__ = [
    "FAMILIES",
    "FAMILY_PARAMS",
    "SPIN_FAMILIES",
    "Scenario",
    "FamilyBundle",
    "build_bundle",
    "resolve_scenario",
    "structure_function_for",
]

# the Scenario fields each family reads, in the order its report lists them
FAMILY_PARAMS = {
    "su2": ("j", "theta0", "muB"),
    "suq2": ("j", "q", "theta0", "muB"),
    "witten": ("j", "r", "theta0", "muB"),
    "ab_map": ("j", "q", "theta0", "muB", "split"),
    "f_deform": ("j", "theta0", "muB", "f_coeff"),
    "hermitian_f": ("j", "q", "q_phase", "theta0", "muB"),
    "oscillator": ("s", "phi0", "omega"),
    "q_oscillator": ("s", "phi0", "omega"),
    "jordan_schwinger": ("s", "phi0", "omega1", "omega2", "muB"),
}
FAMILIES = tuple(FAMILY_PARAMS)
SPIN_FAMILIES = tuple(f for f, params in FAMILY_PARAMS.items() if "j" in params)

_DEFAULTS = {
    "theta0": 0.0,
    "phi0": 0.0,
    "muB": 1.0,
    "omega": 1.0,
    "omega1": 1.0,
    "omega2": 2.0,
    "q": 1.0,
    "split": "symmetric",
    "f_coeff": 0.1,
}


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
        for key in FAMILY_PARAMS[self.family]:
            value = getattr(self, key)
            if value is not None:
                out[key] = str(value) if key == "j" else value
        out["tol"] = self.tol.abs_tol
        return out


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
    family = values.get("family")
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}"
        )

    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in values.items() if v is not None})

    j = None
    s = None
    if family in SPIN_FAMILIES:
        if merged.get("j") is None:
            raise ParameterError(f"family {family} requires --j")
        j = parse_spin(merged["j"])
    else:
        if merged.get("s") is None:
            raise ParameterError(f"family {family} requires --s")
        try:
            s = int(merged["s"])
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

    # a family keeps only the deformation parameters it reads; a phase-valued
    # q (hermitian_f --q-phase) replaces the real one
    params = FAMILY_PARAMS[family]
    q_phase = q_phase if "q_phase" in params else None
    return Scenario(
        family=family,
        j=j,
        s=s,
        q=q if "q" in params and q_phase is None else None,
        q_phase=q_phase,
        r=r if "r" in params else None,
        theta0=_as_float(merged, "theta0"),
        phi0=_as_float(merged, "phi0"),
        muB=_as_float(merged, "muB"),
        omega=_as_float(merged, "omega"),
        omega1=_as_float(merged, "omega1"),
        omega2=_as_float(merged, "omega2"),
        split=split,
        f_coeff=_as_float(merged, "f_coeff"),
        tol=tol,
    )


@dataclass(frozen=True)
class FamilyBundle:
    """Everything the CLI commands need about a constructed scenario."""

    scenario: Scenario
    operators: dict
    provenance: dict | None
    metadata: dict
    hamiltonian: Hamiltonian
    evolve_target: Operator
    eigenvalue: complex
    rep: Su2Rep | None = None
    triple: DeformedTriple | None = None
    grid_g: GridFunction | None = None
    witten: Any = None
    oscillator: Any = None
    q_oscillators: tuple | None = None


def structure_function_for(sc: Scenario):
    """f = [2x]_q with q real or the phase exp(i*2*pi/q_phase)."""
    if sc.q_phase is not None:
        arg = 2.0 * np.pi / float(sc.q_phase)
        return qbracket_structure(cmath.rect(1.0, arg))
    return qbracket_structure(float(sc.q))


def build_bundle(sc: Scenario) -> FamilyBundle:
    """Construct the family's operators; algebraic failures propagate."""
    tol = sc.tol
    if sc.family in SPIN_FAMILIES:
        rep = build_su2(sc.j)
        ham = dipole_hamiltonian(rep.J0, sc.muB)
        lam = -1j * sc.muB
        meta = {"basis": "ascending_m", "j": str(sc.j), "theta0": sc.theta0}

        if sc.family == "su2":
            ops = {"Jp": rep.Jp, "Jm": rep.Jm, "J0": rep.J0}
            return FamilyBundle(sc, ops, None, meta, ham, rep.Jp, lam, rep=rep)

        if sc.family == "suq2":
            triple = build_suq2(sc.j, sc.q, tol)
        elif sc.family == "hermitian_f":
            triple = build_hermitian_deformation(sc.j, structure_function_for(sc), tol)
        elif sc.family == "ab_map":
            g = discrete_antiderivative(structure_function_for(sc), sc.j)
            triple = build_split_deformation(rep, g, sc.split, tol=tol)
            ops = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}
            return FamilyBundle(
                sc, ops, triple.provenance | {"hermitian_pair": triple.hermitian_pair},
                meta, ham, triple.Jp, lam, rep=rep, triple=triple, grid_g=g,
            )
        elif sc.family == "f_deform":
            coeff = sc.f_coeff
            triple = build_scaled_deformation(rep, lambda c, m: 1.0 + coeff * m, tol)
        elif sc.family == "witten":
            gens = build_witten(sc.j, sc.r, tol)
            ops = {"W0": gens.W0, "Wp": gens.Wp, "Wm": gens.Wm}
            prov = {"map": "witten", "params": {"r": sc.r}, "hermitian_pair": True}
            return FamilyBundle(
                sc, ops, prov, meta, ham, gens.Wp, lam, rep=rep, witten=gens
            )
        else:  # pragma: no cover
            raise ParameterError(f"unhandled family {sc.family}")

        ops = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}
        prov = triple.provenance | {"hermitian_pair": triple.hermitian_pair}
        return FamilyBundle(sc, ops, prov, meta, ham, triple.Jp, lam, rep=rep, triple=triple)

    if sc.family == "oscillator":
        osc = build_finite_oscillator(sc.s, sc.phi0, tol)
        ham = number_hamiltonian(osc.N, sc.omega)
        ops = {"N": osc.N, "a": osc.a, "adag": osc.adag, "U": osc.U.U}
        meta = {"basis": "fock_ascending", "s": sc.s, "phi0": sc.phi0}
        return FamilyBundle(sc, ops, None, meta, ham, osc.a, -1j * sc.omega, oscillator=osc)

    if sc.family == "q_oscillator":
        qosc = build_q_oscillator(sc.s, sc.phi0, tol)
        ham = number_hamiltonian(qosc.N, sc.omega)
        ops = {"a_q": qosc.a_q, "a_qdag": qosc.a_qdag, "Nprime": qosc.Nprime, "U": qosc.U.U}
        meta = {
            "basis": "fock_ascending",
            "s": sc.s,
            "phi0": sc.phi0,
            "n0": qosc.n0,
            "q_arg": qosc.q_arg,
            "radicands": list(qosc.radicands),
        }
        return FamilyBundle(
            sc, ops, None, meta, ham, qosc.a_q, -1j * sc.omega, oscillator=qosc
        )

    # jordan_schwinger
    mode_a = build_q_oscillator(sc.s, sc.phi0, tol)
    mode_b = build_q_oscillator(sc.s, sc.phi0, tol)
    triple = jordan_schwinger(mode_a, mode_b, tol)
    ham = two_mode_hamiltonian(sc.s, sc.omega1, sc.omega2)
    ops = {"Jp": triple.Jp, "Jm": triple.Jm, "J0": triple.J0}
    meta = {
        "basis": "fock_ascending",
        "s": sc.s,
        "product_dim": (sc.s + 1) ** 2,
        "tensor_order": "mode A (x) mode B, row-major index n1*(s+1)+n2",
    }
    prov = triple.provenance | {"hermitian_pair": triple.hermitian_pair}
    return FamilyBundle(
        sc, ops, prov, meta, ham, triple.Jp, -1j * (sc.omega2 - sc.omega1),
        triple=triple, q_oscillators=(mode_a, mode_b),
    )
