"""Check records and verification reports, one row per identity with one
writer (`VerificationReport.worst`, called by the suites), rendered by the CLI.
A row passes when its residual is within its tolerance, else it fails."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _excess(residual: float, tolerance: float) -> float:
    """residual / tolerance, the order in which `worst` ranks the calls under
    one name; a NaN residual, or a positive one against a zero tolerance,
    ranks above every finite ratio."""
    if math.isnan(residual):
        return math.inf
    if tolerance > 0.0:
        return residual / tolerance
    return math.inf if residual > tolerance else 0.0


@dataclass
class Check:
    """One verified identity: its residual against the pinned tolerance."""

    name: str
    identity: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "identity": self.identity,
            "status": self.status,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


@dataclass
class VerificationReport:
    _rows: dict[str, Check] = field(default_factory=dict, init=False)  # by name, first-call order
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def checks(self) -> list[Check]:
        return list(self._rows.values())

    def worst(self, name: str, identity: str, residual: float, tolerance: float) -> Check:
        """Record a check under `name`: the first call adds its row, and each
        call is judged against its own tolerance, so the row keeps the
        residual and tolerance of the call with the largest
        residual / tolerance."""
        residual, tolerance = float(residual), float(tolerance)
        check = self._rows.get(name)
        if check is None:
            check = self._rows[name] = Check(name, identity, residual, tolerance)
        elif _excess(residual, tolerance) > _excess(check.residual, check.tolerance):
            check.residual, check.tolerance = residual, tolerance
        return check

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self) -> dict:
        passed = sum(c.passed for c in self.checks)
        return {"pass": passed, "fail": len(self._rows) - passed}

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "notes": list(self.notes),
            "meta": dict(self.meta),
            "summary": self.counts(),
            "ok": self.ok,
        }

    def table(self) -> str:
        name_w = max([len(c.name) for c in self.checks], default=4)
        lines = [f"{'check'.ljust(name_w)}  {'status':9}  {'residual':>12}  "
                 f"{'tolerance':>12}  identity"]
        lines.append("-" * (name_w + 9 + 12 + 12 + 40))
        for c in self.checks:
            lines.append(
                f"{c.name.ljust(name_w)}  {c.status:9}  {c.residual:12.3e}  "
                f"{c.tolerance:12.3e}  {c.identity}")
        counts = self.counts()
        lines.append("-" * (name_w + 9 + 12 + 12 + 40))
        lines.append(f"{counts['pass']} passed, {counts['fail']} failed")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
