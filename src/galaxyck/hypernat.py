"""Exact arithmetic over a two-tier number line: finite and huge naturals.

A value is ``c*w + k`` where ``w`` is a symbolic anchor sitting above every
ordinary natural.  ``c == 0`` gives the finite tier (``k >= 0``); ``c >= 1``
gives the huge tier, where ``k`` may be negative because a huge value minus
any finite amount is still huge.  The huge tier deliberately has no least
element.  Ordering is lexicographic on ``(c, k)``, hence total and decidable,
and all arithmetic is exact over Python's big integers.

Multiplication is only by nonnegative integer scalars; nothing in this
library ever needs the product of two huge values.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from functools import total_ordering
from typing import Optional, Union

__all__ = ["HyperNat", "finite", "huge", "parse_hypernat", "gap"]

_GRAMMAR = re.compile(
    r"""^\s*(?:
        (?P<fin>\d+)
        |
        (?:(?P<coeff>\d+)\s*\*\s*)?w\s*(?:(?P<sign>[+-])\s*(?P<off>\d+))?
    )\s*$""",
    re.VERBOSE,
)


def _coerce(value: Union["HyperNat", int]) -> Optional["HyperNat"]:
    if isinstance(value, HyperNat):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        # Negative ints go through finite() for its error.
        return _make(0, value) if value >= 0 else finite(value)
    return None


@total_ordering
class HyperNat:
    """A natural number that is either finite or huge.

    ``omega_coeff`` counts multiples of the anchor, ``offset`` is the finite
    displacement.  Instances are immutable and hashable; a finite value
    hashes as its int, so it is interchangeable with that int in sets and
    dict keys.  Plain nonnegative ints mix freely on either side of
    arithmetic and comparisons and are treated as finite values.
    """

    __slots__ = ("omega_coeff", "offset")

    def __init__(self, omega_coeff: int, offset: int) -> None:
        if not isinstance(omega_coeff, int) or not isinstance(offset, int):
            raise TypeError("HyperNat components must be plain ints")
        if omega_coeff < 0:
            raise ValueError("anchor coefficient must be nonnegative")
        if omega_coeff == 0 and offset < 0:
            raise ValueError("finite naturals are nonnegative")
        _set_coeff(self, omega_coeff)
        _set_offset(self, offset)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (HyperNat, (self.omega_coeff, self.offset))

    @property
    def is_finite(self) -> bool:
        return self.omega_coeff == 0

    @property
    def is_huge(self) -> bool:
        return self.omega_coeff > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HyperNat):
            return self.offset == other.offset and self.omega_coeff == other.omega_coeff
        if isinstance(other, int) and not isinstance(other, bool):
            return self.omega_coeff == 0 and self.offset == other  # never a negative int
        return NotImplemented

    def __hash__(self) -> int:
        if self.omega_coeff == 0:
            return hash(self.offset)
        return hash((self.omega_coeff, self.offset))

    def __lt__(self, other: Union["HyperNat", int]) -> bool:
        o = other if isinstance(other, HyperNat) else _coerce(other)
        if o is None:
            return NotImplemented
        c, oc = self.omega_coeff, o.omega_coeff
        return c < oc or (c == oc and self.offset < o.offset)

    def __add__(self, other: Union["HyperNat", int]) -> "HyperNat":
        o = other if isinstance(other, HyperNat) else _coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.omega_coeff + o.omega_coeff, self.offset + o.offset)

    __radd__ = __add__

    def __sub__(self, other: Union["HyperNat", int]) -> "HyperNat":
        o = other if isinstance(other, HyperNat) else _coerce(other)
        if o is None:
            return NotImplemented
        coeff = self.omega_coeff - o.omega_coeff
        off = self.offset - o.offset
        if coeff < 0 or (coeff == 0 and off < 0):
            raise ValueError(f"subtraction underflow: {self} - {o}")
        return _make(coeff, off)

    def __rsub__(self, other: int) -> "HyperNat":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: int) -> "HyperNat":
        if not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        if other < 0:
            raise ValueError("scale factor must be nonnegative")
        return _make(self.omega_coeff * other, self.offset * other)

    __rmul__ = __mul__

    def __int__(self) -> int:
        if self.is_huge:
            raise ValueError(f"{self} is huge and has no integer value")
        return self.offset

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.offset)
        head = "w" if self.omega_coeff == 1 else f"{self.omega_coeff}*w"
        return f"{head}{self.offset:+d}"

    def __repr__(self) -> str:
        return f"HyperNat({str(self)!r})"


_set_coeff = HyperNat.omega_coeff.__set__  # type: ignore[attr-defined]
_set_offset = HyperNat.offset.__set__  # type: ignore[attr-defined]


def _make(omega_coeff: int, offset: int) -> HyperNat:
    """Unchecked constructor for results that are valid by construction:
    sums, checked differences, nonnegative multiples and gaps of valid
    values."""
    value = object.__new__(HyperNat)
    _set_coeff(value, omega_coeff)
    _set_offset(value, offset)
    return value


def finite(k: int) -> HyperNat:
    """The ordinary natural ``k``."""
    return HyperNat(0, k)


def huge(coeff: int, offset: int = 0) -> HyperNat:
    """The huge value ``coeff*w + offset``; ``coeff`` must be positive."""
    if coeff < 1:
        raise ValueError("huge values need a positive anchor coefficient")
    return HyperNat(coeff, offset)


def parse_hypernat(text: str) -> HyperNat:
    """Parse ``k``, ``w+k``, ``w-k``, ``c*w+k`` or ``c*w-k`` (bare ``w`` allowed)."""
    if not isinstance(text, str):
        raise TypeError("expected a string")
    m = _GRAMMAR.match(text)
    if m is None:
        raise ValueError(f"cannot parse {text!r} as a hyper-natural (try 7, w+0, w-5 or 2*w+0)")
    if m.group("fin") is not None:
        return finite(int(m.group("fin")))
    coeff = int(m.group("coeff")) if m.group("coeff") else 1
    off = int(m.group("off")) if m.group("off") else 0
    if m.group("sign") == "-":
        off = -off
    return huge(coeff, off)


def gap(x: Union[HyperNat, int], y: Union[HyperNat, int]) -> HyperNat:
    """Absolute difference, the standard chain distance."""
    a, b = _coerce(x), _coerce(y)
    if a is None or b is None:
        raise TypeError("gap expects HyperNat or int endpoints")
    coeff, off = a.omega_coeff - b.omega_coeff, a.offset - b.offset
    if coeff < 0 or (coeff == 0 and off < 0):
        coeff, off = -coeff, -off
    return _make(coeff, off)
