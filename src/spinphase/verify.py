"""Build a scenario and run its family's check suite (the verify/sweep commands).

The suites live with the families (``families.FAMILY_TABLE``); a relation a
builder already verified is reported from its residual, not recomputed.  A
violated relation in the scenario's own builder raises ``ArithmeticError``,
not a typed error.  The casimir and polar suites record a failed
reconstruction as a failed check.

A spin scenario's phase checks and U's equation of motion come from its
phase frame (``families.spin_frame``), which reads only j, theta0, muB and
tol: J+~ = U G, and only the diagonal weight G reads the deformation.
``verify_points`` builds that frame once and runs the scenarios sharing it as
one *batch*: a deformation parameter is a list over the points, an operator
reading G holds one row per point and each check is one numpy operation
(``operators``).  Norms stay dense, one per row, so a batch's report holds,
check by check, a column of its points' lone residuals, bit for bit; rows
that branch or raise apart run alone (``operators.Diverged``).
"""

from __future__ import annotations

import dataclasses

from .families import FAMILY_TABLE, SpinFrame, spin_frame
from .operators import AlgebraError, Diverged, NegativeNormError, SplitError
from .report import CheckReport
from .scenarios import FamilyBundle, Scenario, build_bundle

__all__ = ["run_verify", "collect_checks", "verify_points"]

# the Scenario fields a batch of one frame may vary, a list over its points
_BATCHED = ("q", "q_phase", "r", "f_coeff")


def collect_checks(bundle: FamilyBundle) -> CheckReport:
    """Run the full invariant suite for an already-built bundle."""
    report = CheckReport()
    FAMILY_TABLE[bundle.scenario.family].check(report, bundle)
    return report


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
        report = CheckReport()
        report.add("construction", float("inf"), sc.tol.abs_tol, detail=str(exc))
        return report, None
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
        frame, pending = (spin_frame(*key[2:]) if isinstance(key, tuple) else None), [group]
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
