"""Deterministic pass/fail reports shared by the library checks and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

__all__ = ["CaseResult", "CheckReport", "jsonable"]

# A string's JSON text, escaped to ASCII: the stdlib's C routine, which
# rejects anything but a str with TypeError.
_encode_str = json.encoder.encode_basestring_ascii

# Canonical JSON text, the sort key of set members and the values of a text
# report: one encoder, where ``json.dumps(..., sort_keys=True)`` builds one per
# call.  For a string it is _encode_str, by which _write sorts one-type sets.
_canonical_json = json.JSONEncoder(sort_keys=True).encode

# Types with a branch of their own in jsonable; any other value renders by str.
_NOT_BY_STR = (type(None), str, int, float, dict, set, frozenset, list, tuple, Fraction)

# The keys of CheckReport.to_dict(), which extras may not repeat.
_REPORT_KEYS = frozenset({"check", "params", "cases", "pass"})

# The line starts of a report's keys, of its cases and of a case's keys.
_NL1, _NL2, _NL3 = "\n  ", "\n    ", "\n      "


def _one_str_type(members) -> bool:
    """Do the members of a set share one type that jsonable renders by str?"""
    kinds = set(map(type, members))
    return len(kinds) == 1 and not issubclass(kinds.pop(), _NOT_BY_STR)


def jsonable(value: Any) -> Any:
    """Render a payload as JSON-native data with a stable ordering.

    Fractions become ``"num/den"`` strings, sets become lists sorted by the
    JSON text of their members, and any other non-native object falls back
    to ``str``.
    """
    if value is None or isinstance(value, (str, int, float)):  # bool is an int
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(map(jsonable, value), key=_canonical_json)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    # Fraction last: it derives from an abstract base class, so isinstance
    # against it costs more than the tests above for every other type.
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _write(value: Any, newline: str) -> str:
    """The text of ``json.dumps(jsonable(value), indent=2)``, nested lines
    starting with ``newline`` plus two spaces.  The shapes reports carry
    (exact str and int, bools, non-empty lists, tuples and dicts, sets of
    one type that jsonable renders by str, and Fractions) are written in one
    pass, escaped with the stdlib's C routine; every other value is written
    by that reference and re-indented."""
    if type(value) is str:
        return _encode_str(value)
    if type(value) is int:  # not bool, whose repr is not its JSON text
        return repr(value)
    if isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        items = [_write(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict) and value:
        inner = newline + "  "
        # Keys through str first: two keys with one text keep the last value,
        # as in jsonable.
        items = [
            f"{_encode_str(k)}: {_write(v, inner)}"
            for k, v in {str(k): v for k, v in value.items()}.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (set, frozenset)) and _one_str_type(value):
        # Each label escaped once, and sorted by that text, as jsonable sorts.
        inner = newline + "  "
        return f"[{inner}{(',' + inner).join(sorted(map(_encode_str, map(str, value))))}{newline}]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    # Fraction last: it derives from an abstract base class, so isinstance
    # against it costs more than the tests above.
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    # An encoded string holds no raw newline, so this only re-indents.
    return json.dumps(jsonable(value), indent=2).replace("\n", newline)


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

    def to_json(self, extras: Optional[dict] = None) -> str:
        """The text of ``json.dumps(self.to_dict(), indent=2)``, with the
        keys of ``jsonable(extras)`` after the report's own, written in one
        pass from the cases.  ``to_dict()``, ``jsonable`` and the standard
        library's ``json.dumps(..., indent=2)`` are its reference.  An extra
        key that repeats one of the report's own keys raises ValueError."""
        rows = [
            f'{{{_NL3}"input": {_write(case.input, _NL3)},'
            f'{_NL3}"expected": {_write(case.expected, _NL3)},'
            f'{_NL3}"actual": {_write(case.actual, _NL3)},'
            f'{_NL3}"pass": {"true" if case.passed else "false"}{_NL2}}}'
            for case in self.cases
        ]
        cases = f"[{_NL2}{(',' + _NL2).join(rows)}{_NL1}]" if rows else "[]"
        fields = [
            f'"check": {_write(self.check, _NL1)}',
            f'"params": {_write(self.params, _NL1)}',
            f'"cases": {cases}',
            f'"pass": {"true" if self.passed else "false"}',
        ]
        if extras:
            extras = {str(k): v for k, v in extras.items()}
            clash = _REPORT_KEYS.intersection(extras)
            if clash:
                raise ValueError(f"extra keys {sorted(clash)} repeat the report's own keys")
            fields += [f"{_encode_str(k)}: {_write(v, _NL1)}" for k, v in extras.items()]
        return f"{{{_NL1}{(',' + _NL1).join(fields)}\n}}"

    def to_text(self) -> str:
        lines = [f"check: {self.check}"]
        for key, value in self.params.items():
            lines.append(f"  {key} = {_canonical_json(jsonable(value))}")
        for case in self.cases:
            mark = "PASS" if case.passed else "FAIL"
            left, right = (_canonical_json(jsonable(v)) for v in (case.input, case.actual))
            lines.append(f"[{mark}] {left} -> {right}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
