"""Named residual checks with tolerances and pass/fail verdicts, made by
``checks.evaluate``; a batch's report is read as columns: a check holds a
residual per point, or one value every point shares (a phase frame's)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["CheckResult", "CheckReport"]


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its residual, the tolerance it was held to,
    and the verdict.

    ``mode`` is "le" for ordinary checks (pass iff residual <= tol) and "ge"
    for negative controls (pass iff residual >= tol, i.e. the identity is
    *supposed* to fail by at least that much).  ``category`` groups checks
    for sweep summaries; neither field is serialized.  In a batch's report
    residual and tol may be arrays and passed a list, one entry per point.
    """

    name: str
    residual: float
    tol: float
    passed: bool
    detail: str = ""
    category: str = "algebra"
    mode: str = "le"

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """An ordered collection of CheckResults."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(
        self,
        name: str,
        res: float,
        tol: float,
        detail: str = "",
        category: str = "algebra",
        mode: str = "le",
    ) -> CheckResult:
        if not isinstance(res, np.ndarray):  # else a row per point of a batch
            res, tol = float(res), float(tol)
        passed = res <= tol if mode == "le" else res >= tol
        passed = passed.tolist() if isinstance(passed, np.ndarray) else passed  # plain bools
        result = CheckResult(name, res, tol, passed, detail, category, mode)
        self.checks.append(result)
        return result

    def extend(self, other: Iterable[CheckResult]) -> None:
        self.checks.extend(other)

    def named(self, *names: str) -> list[CheckResult]:
        """The checks called names, in that order; a name no check has is skipped."""
        by_name = {c.name: c for c in self.checks}
        return [by_name[name] for name in names if name in by_name]

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def failures(self) -> list[CheckResult]:
        """The checks that failed; a batch's check fails if it fails at any point."""
        return [c for c in self.checks if not (c.passed is True or c.passed and all(c.passed))]

    def to_jsonable(self) -> list[dict]:
        return [c.to_jsonable() for c in self.checks]

    def __len__(self) -> int:
        return len(self.checks)

    def __iter__(self):
        return iter(self.checks)
