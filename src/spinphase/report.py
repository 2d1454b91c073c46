"""Named residual checks with tolerances and pass/fail verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["CheckResult", "CheckReport"]


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its residual, the tolerance it was held to,
    and the verdict.

    ``mode`` is "le" for ordinary checks (pass iff residual <= tol) and "ge"
    for negative controls (pass iff residual >= tol, i.e. the identity is
    *supposed* to fail by at least that much).  ``category`` groups checks
    for sweep summaries; neither field is serialized.
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
        passed = res <= tol if mode == "le" else res >= tol
        result = CheckResult(name, float(res), float(tol), passed, detail, category, mode)
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
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_jsonable(self) -> list[dict]:
        return [c.to_jsonable() for c in self.checks]

    def __len__(self) -> int:
        return len(self.checks)

    def __iter__(self):
        return iter(self.checks)
