"""Check reports, and ModelLimit: a limit of the finite model, not bad input."""

from dataclasses import dataclass, field


class ModelLimit(ValueError):
    """The finite model is too shallow to decide the requested check."""


@dataclass
class CheckItem:
    name: str
    passed: bool
    witness: object = None


@dataclass
class Report:
    checks: list[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None):
        self.checks.append(CheckItem(name, bool(passed), witness))

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None
