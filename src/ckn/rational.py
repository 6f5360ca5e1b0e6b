"""Exact rational scalars and the extended line with +infinity.

All decision logic in this package is exact: values enter and leave as
`fractions.Fraction` (arbitrary precision, always in lowest terms with
positive denominator), and the exact core computes on Python ints in
between, comparing (num, den) pairs by cross products.  Floating point
never enters a classification: boundary cases such as c landing
exactly on an endpoint, or the two weight slopes coinciding, must be
decidable.

The canonical wire format is "num/den" with an optional sign, integers
written without the denominator ("5", "-3/4").  Decimal input is rejected
on purpose; "0.5" silently rounding to a nearby rational would move
parameters across classification boundaries.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Tuple, Union

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class _PositiveInfinity:
    """Singleton +infinity that compares totally against Fraction and int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _PositiveInfinity)

    def __hash__(self):
        return hash("ckn-positive-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PositiveInfinity)

    def __gt__(self, other):
        if isinstance(other, _PositiveInfinity):
            return False
        if isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_PositiveInfinity, Fraction, int)):
            return True
        return NotImplemented

    def __float__(self):
        return float("inf")


INF = _PositiveInfinity()

ExtRational = Union[Fraction, _PositiveInfinity]

# num/den with den > 0, not necessarily in lowest terms
Pair = Tuple[int, int]


def is_infinite(x: ExtRational) -> bool:
    return isinstance(x, _PositiveInfinity)


def ext_le(x: ExtRational, y: ExtRational) -> bool:
    """x <= y on the extended rational line."""
    if is_infinite(x):
        return is_infinite(y)
    if is_infinite(y):
        return True
    return x <= y


def ext_max(x: ExtRational, y: ExtRational) -> ExtRational:
    return y if ext_le(x, y) else x


def ext_min(x: ExtRational, y: ExtRational) -> ExtRational:
    return x if ext_le(x, y) else y


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def reduced(num: int, den: int) -> Pair:
    """num/den (den != 0) in lowest terms, den > 0."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def compare(x: Pair, y: Pair) -> int:
    """Sign of x - y, by one cross product."""
    return sign(x[0] * y[1] - y[0] * x[1])


def parse_rational(text: str, name: str = "value") -> Fraction:
    """Parse the canonical "num/den" form, rejecting decimals and floats.

    Raises ValueError naming the offending field; the hint steers users
    toward exact input.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"{name}: expected a rational string like '-3/4', got {text!r}"
        )
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(
            f"{name}: {s!r} is not a canonical rational; "
            "use 'num/den' (e.g. '-3/4') or an integer string"
        )
    if "/" in s and int(s.split("/")[1]) == 0:
        raise ValueError(f"{name}: zero denominator in {s!r}")
    return Fraction(s)


def format_rational(x: ExtRational) -> str:
    """Canonical string: lowest terms, '-3/4', integers as '5', infinity as 'inf'."""
    if is_infinite(x):
        return "inf"
    return str(x)


def format_optional(x) -> Union[str, None]:
    return None if x is None else format_rational(x)


def holder_conjugate(k: Fraction) -> ExtRational:
    """Hoelder conjugate k' with 1/k + 1/k' = 1; k = 1 maps to +infinity."""
    if k < 1:
        raise ValueError(f"holder_conjugate requires k >= 1, got {k}")
    if k == 1:
        return INF
    return k / (k - 1)
