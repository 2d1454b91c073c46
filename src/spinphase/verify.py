"""Build a scenario and run its family's check suite (the verify/sweep commands).

The suites live with the families (``families.FAMILY_TABLE``); a relation a
builder already verified is reported from its residual, not recomputed.  A
violated relation in the scenario's own builder raises ``ArithmeticError``,
not a typed error, and so do two suites: ``su2.casimir`` (the orderings or
the scalar) and ``phase.polar_decompose`` (a reconstruction).  Such a
scenario ends in a traceback instead of a failed check, for example
``verify --family su2 --j 1 --tol 0``.

A spin scenario's phase checks and U's equation of motion come from its
phase frame (``families.spin_frame``), which reads only j, theta0, muB and
tol: J+~ = U G, and only the diagonal weight G reads the deformation.
``verify`` builds one frame; ``sweep`` passes ``run_verify`` a memo, so
the points of a grid that share those four values share one frame and its
checks are reported, not recomputed, at every such point.
"""

from __future__ import annotations

from .families import FAMILY_TABLE, FrameSource
from .operators import NegativeNormError, SplitError
from .report import CheckReport
from .scenarios import FamilyBundle, Scenario, build_bundle

__all__ = ["run_verify", "collect_checks"]


def collect_checks(bundle: FamilyBundle) -> CheckReport:
    """Run the full invariant suite for an already-built bundle."""
    report = CheckReport()
    FAMILY_TABLE[bundle.scenario.family].check(report, bundle)
    return report


def run_verify(
    sc: Scenario, frames: FrameSource | None = None
) -> tuple[CheckReport, FamilyBundle | None]:
    """Build the scenario (its spin frame from ``frames``; see build_bundle)
    and run its checks.

    Mathematical impossibilities during construction (negative norm, an
    impossible split) come back as a failed check instead of an exception,
    so the CLI can exit 1 with a report; genuine parameter errors propagate.
    A violated defining relation inside the scenario's own builder, or in
    the casimir or polar suite, also propagates as ``ArithmeticError``.
    """
    try:
        bundle = build_bundle(sc, frames)
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
