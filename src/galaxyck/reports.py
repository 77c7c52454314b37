"""Deterministic pass/fail reports shared by the library checks and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


def jsonable(value: Any) -> Any:
    """Render a payload as JSON-native data with a stable ordering.

    Fractions become ``"num/den"`` strings, sets become sorted lists, and any
    other non-native object falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        rendered = [jsonable(v) for v in value]
        return sorted(rendered, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


@dataclass
class CaseResult:
    """One checked case: what was asked, what was expected, what happened."""

    input: Any
    expected: Any
    actual: Any
    passed: bool

    def to_dict(self) -> dict:
        return {
            "input": jsonable(self.input),
            "expected": jsonable(self.expected),
            "actual": jsonable(self.actual),
            "pass": bool(self.passed),
        }


@dataclass
class CheckReport:
    """A named check over a list of cases; passes when every case does."""

    check: str
    params: dict = field(default_factory=dict)
    cases: list = field(default_factory=list)

    def add(self, case_input: Any, expected: Any, actual: Any, passed: bool) -> CaseResult:
        case = CaseResult(case_input, expected, actual, bool(passed))
        self.cases.append(case)
        return case

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": jsonable(self.params),
            "cases": [case.to_dict() for case in self.cases],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"check: {self.check}"]
        for key, value in self.params.items():
            lines.append(f"  {key} = {json.dumps(jsonable(value), sort_keys=True)}")
        for case in self.cases:
            mark = "PASS" if case.passed else "FAIL"
            left = json.dumps(jsonable(case.input), sort_keys=True)
            right = json.dumps(jsonable(case.actual), sort_keys=True)
            lines.append(f"[{mark}] {left} -> {right}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
