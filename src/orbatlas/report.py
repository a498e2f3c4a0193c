"""Report objects returned by the validators and law suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Named pass/fail checks plus free-form warnings."""

    title: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def extend(self, other: Report) -> None:
        for name, ok, detail in other.checks:
            self.checks.append((f"{other.title}: {name}", ok, detail))
        self.warnings.extend(f"{other.title}: {w}" for w in other.warnings)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def lines(self, strict: bool = False) -> list[str]:
        out = [f"== {self.title}"]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            out.append(f"  [{mark}] {name}" + (f" -- {detail}" if detail else ""))
        for w in self.warnings:
            out.append(f"  [WARN] {w}")
        verdict = self.ok and not (strict and self.warnings)
        out.append(f"verdict: {'pass' if verdict else 'fail'}")
        return out
