"""Test functions: a radial profile with an angular structure.

Three angular modes:

  * RADIAL:          u(x) = f(|x|)
  * FIRST_HARMONIC:  u(x) = f(|x|) x_1/|x|, whose spherical mean vanishes
                     identically (odd in the first angular coordinate)
  * TRANSLATED:      u(x) = f(|x - x0|) with |x0| = offset, f the ball bump
                     (1 - t^2)^2 or a dilation of it

Dilation acts exactly: (dilate(u, lam))(x) = u(lam x).  The Kelvin action
replaces the profile by t -> f(1/t) and reflects the parameters; it is a
norm isometry against the reflected parameters, which the quadrature
module checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .profiles import BallBump, InvertedProfile, RadialProfile, ScaledProfile


class Angular(str, Enum):
    RADIAL = "radial"
    FIRST_HARMONIC = "first_harmonic"
    TRANSLATED = "translated"


@dataclass(frozen=True)
class TestFunction:
    __test__ = False  # not a pytest test class

    profile: RadialProfile
    angular: Angular = Angular.RADIAL
    offset: Optional[float] = None  # |x0| for TRANSLATED

    def __post_init__(self):
        if self.angular is Angular.TRANSLATED:
            if self.offset is None or self.offset <= 0:
                raise ValueError("translated test functions need a positive offset")
            inner = self.profile.inner if isinstance(self.profile, ScaledProfile) else self.profile
            if not isinstance(inner, BallBump):
                raise ValueError("a translated profile is a BallBump or a dilation of one")
            if self.profile.support[1] >= self.offset:
                raise ValueError(
                    "translated profile support must stay away from the origin"
                )
        elif self.offset is not None:
            raise ValueError("offset only applies to translated test functions")

    def descriptor(self) -> dict:
        out = {"angular": self.angular.value, "profile": self.profile.descriptor()}
        if self.offset is not None:
            out["offset"] = self.offset
        return out


def radial(profile: RadialProfile) -> TestFunction:
    return TestFunction(profile, Angular.RADIAL)


def first_harmonic(profile: RadialProfile) -> TestFunction:
    return TestFunction(profile, Angular.FIRST_HARMONIC)


def translated(profile: RadialProfile, offset: float) -> TestFunction:
    return TestFunction(profile, Angular.TRANSLATED, offset)


def dilate(u: TestFunction, lam: float) -> TestFunction:
    """u(lam x), exactly: profiles rescale, translated offsets shrink."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    if u.angular is Angular.TRANSLATED:
        return TestFunction(u.profile.scaled(lam), u.angular, u.offset / lam)
    return TestFunction(u.profile.scaled(lam), u.angular)


def kelvin_function(u: TestFunction) -> TestFunction:
    """u composed with the inversion x -> x/|x|^2 (profile t -> f(1/t))."""
    if u.angular is Angular.TRANSLATED:
        raise ValueError("Kelvin transform of a translated profile is not supported")
    if isinstance(u.profile, InvertedProfile):
        return TestFunction(u.profile.inner, u.angular)
    return TestFunction(InvertedProfile(u.profile), u.angular)
