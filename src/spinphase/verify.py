"""Build a scenario and run its family's check suite (the verify/sweep commands).

The suites live with the families (``families.FAMILY_TABLE``); a relation a
builder already verified is reported from its residual, not recomputed, and
no suite raises.  A violated relation in the scenario's own builder still
raises ``ArithmeticError``, not a typed error, so such a scenario ends in a
traceback instead of a failed check.
"""

from __future__ import annotations

from .families import FAMILY_TABLE
from .operators import NegativeNormError, SplitError
from .report import CheckReport
from .scenarios import FamilyBundle, Scenario, build_bundle

__all__ = ["run_verify", "collect_checks"]


def collect_checks(bundle: FamilyBundle) -> CheckReport:
    """Run the full invariant suite for an already-built bundle."""
    report = CheckReport()
    FAMILY_TABLE[bundle.scenario.family].check(report, bundle)
    return report


def run_verify(sc: Scenario) -> tuple[CheckReport, FamilyBundle | None]:
    """Build the scenario and run its checks.

    Mathematical impossibilities during construction (negative norm, an
    impossible split) come back as a failed check instead of an exception,
    so the CLI can exit 1 with a report; genuine parameter errors propagate.
    A violated defining relation inside the scenario's own builder also
    propagates, as the builder's ``ArithmeticError``.
    """
    try:
        bundle = build_bundle(sc)
    except (NegativeNormError, SplitError) as exc:
        report = CheckReport()
        report.add(
            "construction",
            float("inf"),
            sc.tol.abs_tol,
            detail=str(exc),
        )
        return report, None
    return collect_checks(bundle), bundle
