"""Build a scenario and run its family's checks (the verify/sweep commands).

Each family's entry (``families.FAMILY_TABLE``) holds, as data, the names
of the declared checks it reports (``checks.CHECKS``), the operands they
derive and their details; ``collect_checks`` evaluates them on the operands
the build bound in one ``checks.evaluate`` call, and a relation a builder
already verified is reported as the builder made it.  A violated relation
in the scenario's own builder raises ``ArithmeticError`` (``checks.require``),
not a typed error; the casimir and polar checks record a failed
reconstruction as a failed check.

A spin scenario's checks that no ladder enters are evaluated on its phase
frame (``families.spin_frame``), which reads only j, theta0, muB and tol:
J+~ = U G, and only the diagonal weight G reads the deformation.
``verify_points`` builds that frame once (its points get its error if it
cannot be) and runs the scenarios sharing it as one *batch*: a deformation
parameter is a list over the points, an operator reading G holds a row per
point and each check is one numpy operation (``operators``).  Norms stay
dense, one per row, so a batch's report holds, check by check, a column of
its points' lone residuals, bit for bit; rows that branch or raise apart
run alone (``operators.Diverged``).
"""

from __future__ import annotations

import dataclasses

from .checks import evaluate
from .families import FAMILY_TABLE, SpinFrame, spin_frame
from .operators import AlgebraError, Diverged, NegativeNormError, SplitError
from .report import CheckReport
from .scenarios import FamilyBundle, Scenario, build_bundle

__all__ = ["run_verify", "collect_checks", "verify_points"]

# the Scenario fields a batch of one frame may vary, a list over its points
_BATCHED = ("q", "q_phase", "r", "f_coeff")


def collect_checks(bundle: FamilyBundle) -> CheckReport:
    """Run the family's checks on an already-built bundle, its phase frame's
    once per frame."""
    family, frame = FAMILY_TABLE[bundle.scenario.family], bundle.frame
    return evaluate(family.names, bundle.operands, derived=family.derived,
                    parent=frame and frame.motion, details=family.details, given=bundle.given)


def run_verify(
    sc: Scenario, frame: SpinFrame | None = None
) -> tuple[CheckReport, FamilyBundle | None]:
    """Build the scenario (a spin one on ``frame``; see build_bundle) and run
    its checks.

    Mathematical impossibilities during construction (negative norm, an
    impossible split) come back as a failed check instead of an exception,
    so the CLI can exit 1 with a report; genuine parameter errors propagate.
    A violated defining relation inside the scenario's own builder also
    propagates as ``ArithmeticError``.
    """
    try:
        bundle = build_bundle(sc, frame)
    except (NegativeNormError, SplitError) as exc:
        return evaluate(("construction",), {"error": exc, "abs_tol": sc.tol.abs_tol}), None
    return collect_checks(bundle), bundle


def verify_points(scenarios: list[Scenario]) -> list[tuple[list[int], CheckReport | AlgebraError]]:
    """Each batch's report (a check's column over its points), or the error its
    one point raised, with the indices of the scenarios it covers; the first
    bare ArithmeticError, in order, ends the call.  Spin scenarios of one family
    on one frame run as a batch: diverging rows run again apart, and a batch
    that raises, point by point."""
    groups: dict = {}
    for i, sc in enumerate(scenarios):
        key = (sc.family, sc.split, sc.j, sc.theta0, sc.muB, sc.tol) if sc.j is not None else i
        groups.setdefault(key, []).append(i)
    outcomes: list = []
    for key, group in groups.items():
        try:
            frame, pending = (spin_frame(*key[2:]) if isinstance(key, tuple) else None), [group]
        except AlgebraError as exc:  # each of the frame's points gets the error row
            outcomes += [([i], exc.with_traceback(None)) for i in group]
            continue
        while pending:
            rows = pending.pop()
            points = [scenarios[i] for i in rows]
            batch = points[0] if len(rows) == 1 else dataclasses.replace(points[0], **{
                name: [getattr(sc, name) for sc in points]
                for name in _BATCHED if getattr(points[0], name) is not None
            })
            try:
                outcomes.append((rows, run_verify(batch, frame)[0]))
            except (Diverged, AlgebraError, ArithmeticError) as exc:
                if len(rows) > 1:
                    apart = exc.args[0] if isinstance(exc, Diverged) else [True] * len(rows)
                    rest = [i for i, alone in zip(rows, apart) if not alone]
                    pending += [[i] for i, alone in zip(rows, apart) if alone] + [rest] * bool(rest)
                    continue
                outcomes.append((rows, exc.with_traceback(None)))  # its frames would hold a cycle
    raised = [rows[0] for rows, outcome in outcomes if isinstance(outcome, ArithmeticError)]
    if raised:
        run_verify(scenarios[min(raised)])  # raised again, traceback and all
    return outcomes
