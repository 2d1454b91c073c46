"""Command-line front end.

Subcommands:

  build    construct a family's operators and write them as JSON
  verify   run the family's full invariant suite; exit 0 iff all checks pass
  evolve   sample Heisenberg evolution of the family's ladder operator to CSV
  sweep    run the verify suite over a 1- or 2-parameter grid, summarize to CSV

Exit codes are a stable contract: 0 all checks pass, 1 a check failed,
2 usage or scenario validation error.  Outputs are byte-identical across
reruns of the same scenario (floats printed with 17 significant digits,
no timestamps; reports embed the library version and the resolved scenario).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .operators import AlgebraError, ParameterError
from .report import CheckReport
from .families import FAMILY_TABLE
from .scenarios import FAMILIES, Scenario, build_bundle, resolve_scenario
from .serialize import (
    dumps,
    format_float,
    operator_to_jsonable,
    trajectory_csv_lines,
)
from .su2 import parse_spin
from .dynamics import trajectory
from .verify import run_verify, verify_points

__all__ = ["main", "run"]

_SCENARIO_FLAGS = tuple(f.name for f in dataclasses.fields(Scenario))
_SWEEPABLE = tuple(name for name in _SCENARIO_FLAGS if name not in ("family", "split", "tol"))

_CATEGORIES = ("algebra", "phase", "dynamics", "derivation")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="JSON scenario file; flags override its values")
    p.add_argument("--family", choices=FAMILIES, help="operator family")
    p.add_argument("--j", help="spin as a fraction like 3/2 or a decimal")
    p.add_argument("--s", type=int, help="oscillator truncation level (dim s+1)")
    p.add_argument("--q", type=float, help="real deformation parameter q > 0")
    p.add_argument(
        "--q-phase",
        dest="q_phase",
        type=float,
        help="phase-valued q as the root order p in q = exp(i*2*pi/p)",
    )
    p.add_argument("--r", type=float, help="Witten deformation parameter (r > 0, r != 1)")
    p.add_argument("--theta0", type=float, help="phase reference angle (default 0)")
    p.add_argument("--phi0", type=float, help="oscillator reference angle (default 0)")
    p.add_argument("--muB", type=float, help="dipole coupling mu*B (default 1)")
    p.add_argument("--omega", type=float, help="oscillator frequency (default 1)")
    p.add_argument("--omega1", type=float, help="first mode frequency (default 1)")
    p.add_argument("--omega2", type=float, help="second mode frequency (default 2)")
    p.add_argument("--tol", type=float, help="absolute tolerance (default 1e-12, scaled by dim)")


@functools.cache  # one argparse tree per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="deformed SU(2) ladder algebras and their shared phase-operator dynamics",
    )
    parser.add_argument("--version", action="version", version=f"spinphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit the family's operators as JSON")
    _add_scenario_flags(p_build)
    p_build.add_argument("--out", help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run the family's invariant suite")
    _add_scenario_flags(p_verify)
    p_verify.add_argument("--report", help="write the CheckReport JSON here")

    p_evolve = sub.add_parser("evolve", help="sample Heisenberg evolution to CSV")
    _add_scenario_flags(p_evolve)
    p_evolve.add_argument("--t-max", dest="t_max", type=float, required=True)
    p_evolve.add_argument("--steps", type=int, required=True, help="samples incl. endpoints (>= 2)")
    p_evolve.add_argument(
        "--elements",
        action="append",
        help="matrix element 'row,col' to track (repeatable; default: all nonzero)",
    )
    p_evolve.add_argument("--out", help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="verify over a parameter grid")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument(
        "--param",
        action="append",
        required=True,
        help="swept parameter as name:start:stop:count (one or two)",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="ignored (>= 1); points run serially")
    p_sweep.add_argument("--out", help="output path (default: stdout)")

    return parser


def _default_tol() -> float:
    raw = os.environ.get("SPINPHASE_TOL")
    if raw is None:
        return 1e-12
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParameterError(f"SPINPHASE_TOL is not a number: {raw!r}") from exc
    if value < 0:
        raise ParameterError(f"SPINPHASE_TOL must be nonnegative, got {value}")
    if not math.isfinite(value):
        raise ParameterError(f"SPINPHASE_TOL must be finite, got {value}")
    return value


def _scenario_values(args: argparse.Namespace) -> dict:
    values: dict = {}
    if getattr(args, "scenario", None):
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read scenario file {args.scenario}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("scenario file must hold a JSON object")
        values.update(loaded)
    for key in _SCENARIO_FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _report_payload(sc: Scenario, report: CheckReport) -> dict:
    return {
        "version": __version__,
        "scenario": sc.to_jsonable(),
        "all_pass": report.all_pass,
        "checks": report.to_jsonable(),
    }


def _cmd_build(args: argparse.Namespace) -> int:
    sc = resolve_scenario(_scenario_values(args), _default_tol())
    try:
        bundle = build_bundle(sc)
    except ParameterError:
        raise
    except AlgebraError as exc:
        print(f"spinphase build: {exc}", file=sys.stderr)
        return 1
    payload = {
        "version": __version__,
        "scenario": sc.to_jsonable(),
        "metadata": bundle.metadata,
        "provenance": bundle.provenance,
        "operators": {name: operator_to_jsonable(op) for name, op in bundle.operators.items()},
    }
    _write_text(args.out, dumps(payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    sc = resolve_scenario(_scenario_values(args), _default_tol())
    report, _ = run_verify(sc)
    for check in report:
        marker = "PASS" if check.passed else "FAIL"
        print(
            f"{marker} {check.name}: residual={format_float(check.residual)} "
            f"tol={format_float(check.tol)}"
            + (f" ({check.detail})" if check.detail and not check.passed else "")
        )
    n_fail = len(report.failures())
    print(f"{len(report) - n_fail}/{len(report)} checks passed")
    if args.report:
        _write_text(args.report, dumps(_report_payload(sc, report)))
    return 0 if report.all_pass else 1


def _cmd_evolve(args: argparse.Namespace) -> int:
    if args.t_max <= 0:
        raise ParameterError(f"--t-max must be positive, got {args.t_max}")
    if not math.isfinite(args.t_max):
        raise ParameterError(f"--t-max must be finite, got {args.t_max}")
    if args.steps < 2:
        raise ParameterError(f"--steps must be >= 2, got {args.steps}")
    elements = None
    if args.elements:
        elements = []
        for spec in args.elements:
            try:
                row, col = (int(part) for part in spec.split(","))
            except ValueError as exc:
                raise ParameterError(f"--elements expects 'row,col', got {spec!r}") from exc
            elements.append((row, col))
    sc = resolve_scenario(_scenario_values(args), _default_tol())
    try:
        bundle = build_bundle(sc)
    except ParameterError:
        raise
    except AlgebraError as exc:
        print(f"spinphase evolve: {exc}", file=sys.stderr)
        return 1
    t_grid = np.linspace(0.0, args.t_max, args.steps)
    traj = trajectory(bundle.evolve_target, bundle.hamiltonian, t_grid, elements)
    _write_text(args.out, trajectory_csv_lines(traj.times, traj.element_tracks))
    return 0


def _parse_sweep_params(specs: list[str]) -> list[tuple[str, np.ndarray]]:
    if len(specs) > 2:
        raise ParameterError("at most two swept parameters are supported")
    grids = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            raise ParameterError(f"--param expects name:start:stop:count, got {spec!r}")
        name, start_s, stop_s, count_s = parts
        if name not in _SWEEPABLE:
            raise ParameterError(f"cannot sweep {name!r}; choose from {', '.join(_SWEEPABLE)}")
        if any(name == seen for seen, _ in grids):
            raise ParameterError(f"--param {name} is given twice; sweep each parameter once")
        try:
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError as exc:
            raise ParameterError(f"bad sweep grid in {spec!r}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ParameterError(f"sweep start and stop must be finite, got {spec!r}")
        if count < 2:
            raise ParameterError(f"sweep count must be >= 2, got {count}")
        values = np.linspace(start, stop, count)
        if name == "j":
            for v in values:
                parse_spin(v)  # every grid point must be a half-integer
        if name == "s":
            for v in values:
                if abs(v - round(v)) > 1e-9 or round(v) < 1:
                    raise ParameterError(f"swept s values must be positive integers, got {v}")
            values = np.array([int(round(v)) for v in values])
        grids.append((name, values))
    return grids


def _summary_cells(report: CheckReport, points: int = 1) -> list[list[str]]:
    """Each point's sweep cells after its grid values, from the report's columns:
    the largest residual per category and the smallest control residual, folded
    in report order as ``max`` and ``min`` fold, the verdict and no error."""
    def fold(checks, wins) -> list[float]:  # a frame's check: one residual every point shares
        columns = [np.broadcast_to(c.residual, points) for c in checks] or [np.full(points, np.nan)]
        return functools.reduce(lambda a, b: np.where(wins(b, a), b, a), columns).tolist()

    columns = [fold([c for c in report if c.category == cat and c.mode == "le"], np.greater)
               for cat in _CATEGORIES] + [fold([c for c in report if c.mode == "ge"], np.less)]
    passed = functools.reduce(np.logical_and, [c.passed for c in report], np.ones(points, bool))
    return [[*map(format_float, row), "true" if ok else "false", ""]
            for *row, ok in zip(*columns, passed.tolist())]


def _cmd_sweep(args: argparse.Namespace) -> int:
    grids = _parse_sweep_params(args.param)
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    base = _scenario_values(args)
    default_tol = _default_tol()
    family = base.get("family")
    for name, _ in grids:
        if family in FAMILIES and name not in FAMILY_TABLE[family].params:
            raise ParameterError(f"family {family} does not use parameter {name!r}")
    # validate the template once (swept params plugged with their first value)
    probe = dict(base)
    for name, values in grids:
        probe[name] = values[0]
    template = resolve_scenario(probe, default_tol)
    names = [name for name, _ in grids]
    if "q" in names and template.q_phase is not None:
        raise ParameterError("cannot sweep q with --q-phase set: the phase-valued q replaces it")

    # each point resolves alone; those on one phase frame then run as a batch
    points = [dict(zip(names, combo)) for combo in itertools.product(*(v for _, v in grids))]
    rows: list = []
    for pt in points:
        try:
            rows.append(resolve_scenario({**base, **pt}, default_tol))
        except AlgebraError as exc:
            rows.append(exc)
    valid = [i for i, sc in enumerate(rows) if isinstance(sc, Scenario)]
    for covered, out in verify_points([rows[i] for i in valid]):
        cells = [out] if isinstance(out, AlgebraError) else _summary_cells(out, len(covered))
        for i, row in zip(covered, cells):
            rows[valid[i]] = row
    rows = [["NaN"] * (len(_CATEGORIES) + 1) + ["false", str(row).replace(",", ";")]
            if isinstance(row, AlgebraError) else row for row in rows]
    header = names + [f"max_{c}" for c in _CATEGORIES] + ["min_control", "all_pass", "error"]
    lines = [",".join(header)]
    for pt, row in zip(points, rows):
        lines.append(",".join([format_float(float(pt[name])) for name in names] + row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(row[-2] == "true" for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "evolve": _cmd_evolve,
        "sweep": _cmd_sweep,
    }
    try:
        path = getattr(args, "out", None) or getattr(args, "report", None)
        if path and not os.path.exists(os.path.dirname(path) or "."):  # before any work
            raise ParameterError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")
        if path and os.path.isdir(path):
            raise ParameterError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        return handlers[args.command](args)
    except AlgebraError as exc:
        print(f"spinphase {args.command}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
