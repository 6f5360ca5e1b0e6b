"""Radial profile catalog: evaluable f(t), analytic f'(t), and exact
asymptotic metadata.

Every profile knows, besides pointwise values, its support and seam
points (quadrature panels are split there), and states its behaviour at
each end, 0 and infinity, once, as an edge record (`Edge`), or None when
f vanishes near that end identically or faster than any power.  A record
holds:

  * the leading term f(t) ~ coef t^power, coef != 0.  The exact power
    drives the exact divergence test of the weighted norms;
  * either the region where f is exactly coef t^power (t < exact at 0,
    t > exact at infinity), whose norm contribution is a closed-form
    integral;
  * or a stated bound on the next-order term (`Bound`), and the record of
    f' stated alike (`slope`).  The profile that knows the formula states
    both, so no bound is made by differentiating an expansion; the norms
    integrate the leading power in closed form near the end and add the
    bound's integral to their error.

Catalog classes declare only `edges()`.  Three generic rules derive every
other record:

  * derivative: on an exact region C t^k gives k C t^(k-1) on the same
    region, and an exact constant gives None, an exact zero; elsewhere it
    is the stated slope;
  * inversion t -> f(1/t): the ends swap, powers change sign, regions and
    reaches invert, bounds stay, and the slope is -f'(1/t) / t^2;
  * modulation t^-eps f(t): powers shift by -eps, bounds stay, and the
    slope t^-eps (f' - eps f / t) is bounded by the two records it adds.

Every dilation is the ScaledProfile that `RadialProfile.scaled` returns,
which states no edge records: the quadrature reads it through a view
(base, reading, lam), its inner profile read at lam t, and its norm plans
read the base's records once at lam = 1 and move their closed pieces to
each lam by the scaling law.  `derivative_profile` is f' as a profile,
built once per profile object, only where f' has a closed form
(PiecewisePower, TruncatedPrimitive, LogModulated), and None for every
other profile; the default `derivative()` reads it as values.

Exact powers on bands (the indicator band and the vanishing-exponent
power of the r-endpoint constructions, the derivative of a truncated
primitive) are one class, `PiecewisePower`, whose bands are bounded in
ln t.  A band far out keeps its width where its bounds in t would round
to one float, or to 0 or infinity; only an infinite log bound reaches an
end.

The compact bumps are power bumps t^-alpha (1 - t^g)^m on [0, 1), whose
norms are Beta integrals in t^g: a cutoff witness is one, t^-alpha (1 -
t^g)^2, and so is the ball bump PowerBump(0, 2, 2) = (1 - t^2)^2 that the
translated witnesses read.  Every cutoff at infinity is the Kelvin
inversion of one at 0, t^-alpha (1 - t^-g)^2 for t > 1 being
InvertedProfile(PowerBump(-alpha, g, 2)).  The log-window bump is the
fixed exp(-1/(1-v^2)) on (-1, 1), so that quadrature outputs are
reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# the fixed bump of the log windows
# ---------------------------------------------------------------------------

def bump(v: np.ndarray) -> np.ndarray:
    """exp(-1/(1-v^2)) on (-1, 1), zero outside."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = np.exp(-1.0 / (1.0 - vi**2))
    return out


def bump_prime(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = np.exp(-1.0 / (1.0 - vi**2)) * (-2.0 * vi) / (1.0 - vi**2) ** 2
    return out


def _fpow(t: np.ndarray, e) -> np.ndarray:
    return np.power(np.asarray(t, dtype=float), float(e))


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# edge records
# ---------------------------------------------------------------------------

class Bound(NamedTuple):
    """|f / (coef t^power) - 1| <= k t^delta for t <= reach at 0, and <= k
    t^-delta for t >= reach at infinity."""

    k: float
    delta: float
    reach: float


def merge_bounds(bounds, at_zero: bool, total=sum) -> Bound:
    """One bound on the region common to bounds, at least the total (sum or
    max) of theirs: k t^d <= k reach^(d - delta) t^delta for t <= reach."""
    reach, delta = (min if at_zero else max)(b.reach for b in bounds), min(b.delta for b in bounds)
    sign = 1.0 if at_zero else -1.0
    return Bound(total(b.k * reach ** (sign * (b.delta - delta)) for b in bounds), delta, reach)


@dataclass(frozen=True)
class Edge:
    """f(t) ~ coef t^power at one end; see the module docstring."""

    coef: float
    power: Fraction
    exact: Optional[float] = None  # f == coef t^power from here to the end
    bound: Optional[Bound] = None  # on the next-order term, where not exact
    slope: Optional["Edge"] = None  # the bounded record of f', where not exact

    def derivative(self) -> Optional["Edge"]:
        if self.exact is None or self.power == 0:  # the stated slope, or None for an exact constant
            return self.slope
        return Edge(self.coef * float(self.power), self.power - 1, self.exact)

    def inverted(self) -> "Edge":
        exact = None if self.exact is None else _reciprocal(self.exact)
        bound = None if self.bound is None else self.bound._replace(reach=1.0 / self.bound.reach)
        slope = self.slope and Edge(-self.slope.coef, -self.slope.power - 2, bound=self.slope.inverted().bound)
        return Edge(self.coef, -self.power, exact, bound, slope)

    def modulated(self, eps: Fraction, at_zero: bool) -> "Edge":
        slope = self.slope and Edge(self.slope.coef, self.slope.power - eps, bound=self.slope.bound).plus(
            Edge(-float(eps) * self.coef, self.power - eps - 1, bound=self.bound), at_zero)
        return Edge(self.coef, self.power - eps, self.exact, self.bound, slope)

    def plus(self, other: "Edge", at_zero: bool) -> Optional["Edge"]:
        """The bounded record of the sum of two functions with bounded records
        at one end, or None where their leading terms cancel.  A term of
        lower order adds its ratio to the leading term, at most |c'/c| t^gap
        (1 + its bound at its reach), to the bound."""
        if self.power == other.power:
            coef = self.coef + other.coef
            if coef == 0.0:
                return None
            parts = [e.bound._replace(k=e.bound.k * abs(e.coef / coef)) for e in (self, other)]
            return Edge(coef, self.power, bound=merge_bounds(parts, at_zero))
        major, minor = (self, other) if (self.power < other.power) == at_zero else (other, self)
        k, delta, reach = minor.bound
        ratio = abs(minor.coef / major.coef) * (1.0 + k * reach ** (delta if at_zero else -delta))
        lower = Bound(ratio, float(abs(minor.power - major.power)), reach)
        return Edge(major.coef, major.power, bound=merge_bounds([major.bound, lower], at_zero))


Edges = Tuple[Optional[Edge], Optional[Edge]]  # (at 0, at infinity)


def _reciprocal(x: float) -> float:
    return math.inf if x == 0.0 else 1.0 / x


# ---------------------------------------------------------------------------
# profile protocol
# ---------------------------------------------------------------------------

class RadialProfile:
    """Base class; subclasses override values and asymptotic metadata."""

    kind = "abstract"

    def value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """f'(t): derivative_profile read as values, where it exists."""
        closed = self.derivative_profile
        if closed is None:
            raise NotImplementedError
        return closed.value(t)

    # support and seams -----------------------------------------------------
    @property
    def support(self) -> Tuple[float, float]:
        return (0.0, math.inf)

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return ()

    # exact asymptotics -----------------------------------------------------
    def edges(self) -> Edges:
        """Edge records of f at 0 and infinity; the default declares none."""
        return (None, None)

    # f' as a profile where it has a closed form, else None
    derivative_profile: Optional["RadialProfile"] = None

    # transforms ------------------------------------------------------------
    def scaled(self, lam: float) -> "RadialProfile":
        """Profile of t -> f(lam t)."""
        return ScaledProfile(self, lam)

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()})"


class PowerBump(RadialProfile):
    """t^-alpha (1 - t^g)^m on [0, 1), 0 beyond, g > 0 and m >= 2, so that f
    is C^1: a power -alpha at 0 and a compact support.  With v = t^g its
    norms are Beta integrals in v (quadrature._beta_arguments), and so are
    those of its inversion.  The ball bump (1 - t^2)^2, which translated
    members read, is PowerBump(0, 2, 2), and the cutoff witnesses are (alpha,
    g, 2) and their inversions (witnesses._cutoff_family)."""

    kind = "power_bump"

    def __init__(self, alpha, g, m):
        self.alpha, self.g, self.m = Fraction(alpha), Fraction(g), Fraction(m)
        if self.g <= 0 or self.m < 2:
            raise ValueError("a power bump needs g > 0 and m >= 2")
        # floats for value() and derivative(), as PowerTail keeps them
        self._a, self._head, self._g = float(self.alpha), float(-self.alpha), float(self.g)
        self._m, self._mg = float(self.m), float(self.m * self.g)

    def value(self, t):
        t = np.minimum(np.asarray(t, dtype=float), 1.0)
        return np.power(t, self._head) * np.power(1.0 - np.power(t, self._g), self._m)

    def derivative(self, t):
        # t^(-alpha-1) (1 - v)^(m-1) (-alpha - (mg - alpha) v), v = t^g
        t = np.minimum(np.asarray(t, dtype=float), 1.0)
        v = np.power(t, self._g)
        return np.power(t, self._head - 1.0) * np.power(1.0 - v, self._m - 1.0) * (-self._a - (self._mg - self._a) * v)

    @property
    def support(self):
        return (0.0, 1.0)

    def edges(self):
        # for v = t^g <= 1, |(1 - v)^m - 1| <= m v; f' is -alpha t^(-alpha-1)
        # (1 - v)^(m-1) (1 + q v), q = (mg - alpha) / alpha, within (m - 1) v
        # (1 + |q|) + |q| v of its first term, and for alpha = 0 it is -mg
        # t^(g-1) (1 - v)^(m-1), within (m - 1) v
        a, g, m = self.alpha, self.g, self.m
        if a != 0:
            q = abs(float((m * g - a) / a))
            slope = Edge(-float(a), -a - 1, bound=Bound(float(m - 1) * (1.0 + q) + q, float(g), 0.5))
        else:
            slope = Edge(-float(m * g), g - 1, bound=Bound(float(m - 1), float(g), 0.5))
        return (Edge(1.0, -a, bound=Bound(float(m), float(g), 0.5), slope=slope), None)

    def descriptor(self):
        return {"kind": self.kind, "alpha": str(self.alpha), "g": str(self.g), "m": str(self.m)}


class PowerTail(RadialProfile):
    """t^{-alpha} (1+t)^{alpha-beta}: power -alpha near 0, -beta near infinity."""

    kind = "power_tail"

    def __init__(self, alpha, beta):
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        # floats for value() and derivative(), which are called once per
        # integrand evaluation: Fraction arithmetic there is measurable
        self._a, self._b = float(self.alpha), float(self.beta)
        self._head, self._gap = float(-self.alpha), float(self.alpha - self.beta)
        self._dhead = float(-self.alpha - 1)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(t, self._head) * np.power(1.0 + t, self._gap)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return (
            np.power(t, self._dhead)
            * np.power(1.0 + t, self._gap - 1.0)
            * (-self._a - self._b * t)
        )

    def edges(self):
        # a pure power t^-alpha when alpha == beta
        a, b = self.alpha, self.beta
        if a == b:
            return (Edge(1.0, -a, exact=math.inf), Edge(1.0, -b, exact=0.0))
        return (_power_tail_edge(a, b, True), _power_tail_edge(b, a, False))

    def descriptor(self):
        return {"kind": self.kind, "alpha": str(self.alpha), "beta": str(self.beta)}


def _binomial(g: float, q: float) -> float:
    """k with |(1 + x)^g (1 + q x) - 1| <= k x for 0 <= x <= 1/2: the mean
    value bound |(1 + x)^g - 1| <= |g| x max(1, 1.5^(g - 1)), times 1 + |q|/2,
    plus |q|."""
    return abs(g) * max(1.0, 1.5 ** (g - 1.0)) * (1.0 + abs(q) / 2.0) + abs(q)


def _power_tail_edge(own: Fraction, other: Fraction, at_zero: bool) -> Edge:
    """The record of t^-alpha (1+t)^(alpha-beta) at one end, with x = t and
    own = alpha at 0, x = 1/t and own = beta at infinity: f = t^-own (1 +
    x)^g and f' = t^(-own-1) (1 + x)^(g-1) (-own - other x), g = alpha -
    beta, each bounded where x <= 1/2.  With own = 0, f' is -other x t^-1 (1
    + x)^(g-1)."""
    g, reach = float(own - other if at_zero else other - own), 0.5 if at_zero else 2.0
    if own != 0:
        slope = Edge(-float(own), -own - 1, bound=Bound(_binomial(g - 1.0, float(other / own)), 1.0, reach))
    else:
        slope = Edge(-float(other), Fraction(0 if at_zero else -2), bound=Bound(_binomial(g - 1.0, 0.0), 1.0, reach))
    return Edge(1.0, -own, bound=Bound(_binomial(g, 0.0), 1.0, reach), slope=slope)


class LogModulated(RadialProfile):
    """t^{-m} * W(loglam ln t), W the standard bump.

    The window W lives on (-1, 1); the profile occupies an interval of the
    log axis of width 2/loglam.  Weighted norms of these profiles are
    computed in the log variable (see quadrature), because for small
    loglam the support in t overflows floating point; a dilation is a
    ScaledProfile, whose norms follow from the undilated ones by the
    scaling law.
    """

    kind = "log_modulated"

    def __init__(self, m, loglam: float, window_combo: Optional[Tuple[float, float]] = None):
        self.m = Fraction(m)
        self.loglam = float(loglam)
        # (c0, c1): effective window c0*W + c1*W'; None means plain W
        self.window_combo = window_combo

    def window_values(self, v: np.ndarray) -> np.ndarray:
        if self.window_combo is None:
            return bump(v)
        c0, c1 = self.window_combo
        return c0 * bump(v) + c1 * bump_prime(v)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            w = np.log(t)
        return _fpow(t, -self.m) * self.window_values(self.loglam * w)

    @cached_property
    def derivative_profile(self) -> "LogModulated":
        """f' as a log-modulated profile with power m+1 and combined window."""
        if self.window_combo is not None:
            raise NotImplementedError("second derivatives of log windows are not needed")
        return LogModulated(self.m + 1, self.loglam, window_combo=(-float(self.m), self.loglam))

    @property
    def support(self):
        half = 1.0 / self.loglam
        return (_safe_exp(-half), _safe_exp(half))

    def descriptor(self):
        return {
            "kind": self.kind,
            "m": str(self.m),
            "loglam": self.loglam,
            "window": "bump",
            "combo": self.window_combo,
        }


class PiecewisePower(RadialProfile):
    """Finitely many disjoint pieces coef * t^expo, each on a band of ln t.

    A piece is (coef, expo, log_lo, log_hi); log_lo = -inf means the band
    starts at 0 and log_hi = inf that it runs to infinity.  Weighted norms
    are exact closed-form piece integrals in log space, so a band may sit
    so far out that its bounds round to one float, or to 0 or infinity, in
    t, and keep its width.  No pieces is the zero profile.
    """

    kind = "piecewise_power"

    def __init__(self, pieces: Sequence[Tuple[float, Fraction, float, float]]):
        cleaned = []
        for coef, expo, log_lo, log_hi in pieces:
            if not log_lo < log_hi:
                raise ValueError("empty band")
            if coef != 0.0:
                cleaned.append((float(coef), Fraction(expo), float(log_lo), float(log_hi)))
        self.pieces = tuple(sorted(cleaned, key=lambda piece: piece[2]))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        with np.errstate(divide="ignore"):
            logs = np.log(t)
        for coef, expo, log_lo, log_hi in self.pieces:
            mask = (logs > log_lo) & (logs < log_hi)
            if np.any(mask):
                out[mask] = coef * _fpow(t[mask], expo)
        return out

    @cached_property
    def derivative_profile(self) -> "PiecewisePower":
        return PiecewisePower(
            [(coef * float(expo), expo - 1, lo, hi) for coef, expo, lo, hi in self.pieces if expo != 0]
        )

    @property
    def support(self):
        if not self.pieces:
            return (1.0, 1.0)
        return (_safe_exp(self.pieces[0][2]), _safe_exp(self.pieces[-1][3]))

    @property
    def breakpoints(self):
        points = {_safe_exp(bound) for piece in self.pieces for bound in piece[2:]}
        return tuple(sorted(x for x in points if 0.0 < x < math.inf))

    def edges(self):
        # only infinite log bounds reach the ends: a far finite bound may
        # round to 0 or inf in t while f still vanishes beyond it
        head = tail = None
        if self.pieces and self.pieces[0][2] == -math.inf:
            coef, expo, _, log_hi = self.pieces[0]
            head = Edge(coef, expo, exact=_safe_exp(log_hi))
        if self.pieces and self.pieces[-1][3] == math.inf:
            coef, expo, log_lo, _ = self.pieces[-1]
            tail = Edge(coef, expo, exact=_safe_exp(log_lo))
        return (head, tail)

    def descriptor(self):
        return {
            "kind": self.kind,
            "pieces": [
                {"coef": coef, "expo": str(expo), "log_lo": lo, "log_hi": hi}
                for coef, expo, lo, hi in self.pieces
            ],
        }


class TruncatedPrimitive(RadialProfile):
    """f(t) = integral over (0, t) of s^{-beta} on the band (1, n).

    Vanishes on (0, 1], grows like the primitive of t^{-beta} on [1, n],
    and is exactly constant beyond n.  The band upper end is supplied as
    log_n, so the family index can push n far beyond 1/eps without losing
    the closed forms (values are computed with expm1/log1p).
    """

    kind = "truncated_primitive"

    def __init__(self, beta, log_n: float):
        self.beta = Fraction(beta)
        if log_n <= 0:
            raise ValueError("log_n must be positive")
        if log_n > 260.0:
            raise ValueError("log_n beyond float range of n")
        self.log_n = float(log_n)
        self.n = math.exp(self.log_n)

    def _primitive(self, t: np.ndarray) -> np.ndarray:
        """F(t) = (t^{1-beta} - 1)/(1-beta), or ln t when beta = 1."""
        t = np.asarray(t, dtype=float)
        logs = np.log(np.maximum(t, 1e-300))
        if self.beta == 1:
            return logs
        g = 1.0 - float(self.beta)
        return np.expm1(g * logs) / g

    def plateau(self) -> float:
        if self.beta == 1:
            return self.log_n
        g = 1.0 - float(self.beta)
        return math.expm1(g * self.log_n) / g

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        band = (t > 1.0) & (t < self.n)
        out[band] = self._primitive(t[band])
        out[t >= self.n] = self.plateau()
        return out

    @property
    def support(self):
        return (1.0, math.inf)

    @property
    def breakpoints(self):
        return (1.0, self.n)

    def edges(self):
        return (None, Edge(self.plateau(), Fraction(0), exact=self.n))

    @cached_property
    def derivative_profile(self) -> PiecewisePower:
        return PiecewisePower([(1.0, -self.beta, 0.0, self.log_n)])

    def descriptor(self):
        return {"kind": self.kind, "beta": str(self.beta), "log_n": self.log_n}


class PowerModulated(RadialProfile):
    """t^{-eps} * inner(t), the vanishing-exponent tail modification."""

    kind = "power_modulated"

    def __init__(self, inner: RadialProfile, eps: float):
        self.inner = inner
        self.eps = float(eps)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(np.maximum(t, 1e-300), -self.eps) * self.inner.value(t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 1e-300)
        return np.power(tt, -self.eps) * (
            self.inner.derivative(t) - self.eps * self.inner.value(t) / tt
        )

    @property
    def support(self):
        return self.inner.support

    @property
    def breakpoints(self):
        return self.inner.breakpoints

    def edges(self):
        eps = Fraction(self.eps)  # the float's exact value
        return tuple(None if e is None else e.modulated(eps, end == 0) for end, e in enumerate(self.inner.edges()))

    def descriptor(self):
        return {"kind": self.kind, "eps": self.eps, "inner": self.inner.descriptor()}


class ScaledProfile(RadialProfile):
    """t -> inner(lam t)."""

    kind = "scaled"

    def __init__(self, inner: RadialProfile, lam: float):
        if lam <= 0:
            raise ValueError("scale must be positive")
        if isinstance(inner, ScaledProfile):
            inner, lam = inner.inner, lam * inner.lam
        self.inner = inner
        self.lam = float(lam)

    def value(self, t):
        return self.inner.value(np.asarray(t, dtype=float) * self.lam)

    def derivative(self, t):
        return self.lam * self.inner.derivative(np.asarray(t, dtype=float) * self.lam)

    @property
    def support(self):
        lo, hi = self.inner.support
        return (lo / self.lam, hi / self.lam if hi != math.inf else math.inf)

    @property
    def breakpoints(self):
        return tuple(x / self.lam for x in self.inner.breakpoints)

    def descriptor(self):
        return {"kind": self.kind, "lam": self.lam, "inner": self.inner.descriptor()}


class InvertedProfile(RadialProfile):
    """t -> inner(1/t), the radial action of the Kelvin transform."""

    kind = "inverted"

    def __init__(self, inner: RadialProfile):
        if isinstance(inner, InvertedProfile):
            raise ValueError("flatten double inversion at the call site")
        if isinstance(inner, ScaledProfile):
            raise ValueError("invert the inner profile and dilate the inversion")
        self.inner = inner

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return self.inner.value(1.0 / np.maximum(t, 1e-300))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 1e-300)
        with np.errstate(divide="ignore", over="ignore"):
            return -self.inner.derivative(1.0 / tt) / tt**2

    @property
    def support(self):
        lo, hi = self.inner.support
        new_lo = 0.0 if hi == math.inf else 1.0 / hi
        new_hi = math.inf if lo == 0.0 else 1.0 / lo
        return (new_lo, new_hi)

    @property
    def breakpoints(self):
        return tuple(sorted(1.0 / x for x in self.inner.breakpoints if x > 0))

    def edges(self):
        return tuple(None if e is None else e.inverted() for e in self.inner.edges()[::-1])

    def descriptor(self):
        return {"kind": self.kind, "inner": self.inner.descriptor()}
