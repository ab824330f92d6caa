"""Structured results for the verification sweeps."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


class IdentityError(Exception):
    """An identity the theory guarantees failed to hold in a computation.

    Raised explicitly rather than by assert, so the check also runs
    under python -O."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 6),
            "details": self.details,
        }


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def merged(self, other: "Report") -> "Report":
        return Report(self.checks + other.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def timed(name: str, run: Callable[[], tuple[bool, dict]]) -> Check:
    """The check `name` whose `passed` and `details` are what `run()`
    returns, with the time `run()` took; an exception from `run` propagates."""
    start = time.perf_counter()
    passed, details = run()
    return Check(name, passed, time.perf_counter() - start, details)
