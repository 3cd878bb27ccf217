"""Check verdicts and reports, and ModelLimit: a limit of the finite model,
not bad input.

A ``CheckItem`` is one verdict; its ``detail`` stays out of its ``repr``,
which the golden reports print for nested verdicts.  ``Report.nest`` adds a
sub-check's verdict as one check and keeps the sub-check in ``parts``, so a
caller reads it there instead of running it again.
"""

from dataclasses import dataclass, field


class ModelLimit(ValueError):
    """The finite model is too shallow to decide the requested check."""


@dataclass
class CheckItem:
    name: str
    passed: bool
    witness: object = None
    detail: str = field(default="", repr=False)


@dataclass
class Report:
    checks: list[CheckItem] = field(default_factory=list)
    parts: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None):
        self.checks.append(CheckItem(name, bool(passed), witness))

    def nest(self, name, part):
        """One check with ``part``'s verdict; ``part`` is kept as ``parts[name]``."""
        witness = part.first_failure() if isinstance(part, Report) else part.witness
        self.add(name, part.passed, witness)
        self.parts[name] = part

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None
