"""Radial profile catalog: evaluable f(t), analytic f'(t), and exact
asymptotic metadata.

Every profile knows, besides pointwise values, its support and seam
points (quadrature panels are split there), and states its behaviour at
each end, 0 and infinity, once, as an edge record (`Edge`), or None when
f vanishes identically near that end.  A record holds:

  * the leading term f(t) ~ coef t^power, coef != 0.  The exact power
    drives the exact divergence test of the weighted norms;
  * optionally, the region where f is exactly coef t^power (t < exact at
    0, t > exact at infinity), so the norm contribution there is a
    closed-form integral rather than a panel sum (essential for
    near-critical tails whose panel sums converge geometrically slowly);
  * when the leading power is 0 and f is not exactly constant there, the
    next-order term (coef, power): f' follows that term, not the constant.

Catalog classes declare only `edges()`.  Four generic rules derive every
other record:

  * derivative: C t^k gives k C t^(k-1) on the same exact region; a
    leading power 0 moves to the next-order term; an exact constant gives
    None;
  * dilation t -> f(lam t): powers stay, coefficients scale by lam^k and
    regions by 1/lam;
  * inversion t -> f(1/t): the ends swap, powers change sign and regions
    invert;
  * modulation t^-eps f(t): powers shift by -eps.

Every dilation is the ScaledProfile that `RadialProfile.scaled` returns;
no profile dilates itself.  The quadrature reads every profile through a
view (base, reading, lam): a ScaledProfile is its inner profile read at
lam t, and the reading is the value, the derivative lam f'(lam t) or a
first-harmonic gradient.  Its norm plans read the base's edge records,
derived by `Edge.derivative` for a derivative, once at lam = 1, and move
their closed pieces to each lam by the scaling law.  `derivative_profile`
is f' as a profile, built once per profile object, only where f' has a
closed form (PiecewisePower, TruncatedPrimitive, LogModulated), and None
for every other profile; the default `derivative()` reads it as values.

Exact powers on bands (the indicator band and the vanishing-exponent
power of the r-endpoint constructions, the derivative of a truncated
primitive) are one class, `PiecewisePower`, whose bands are bounded in
ln t.  A band far out keeps its width where its bounds in t would round
to one float, or to 0 or infinity; only an infinite log bound reaches an
end.

The smooth cutoff is fixed once and for all: zeta = PowerCutoffInner(0),
1 for t <= 1/2, 0 for t >= 1, bridged by the standard exp-based mollifier
step h(1-w) / (h(w) + h(1-w)), h(x) = exp(-1/x), at w = 2t - 1; the
log-window bump is exp(-1/(1-v^2)) on (-1, 1).  Fixing both makes
quadrature outputs reproducible across runs.  The translated witnesses
read the ball bump (1 - t^2)^2 on [0, 1), whose moments are Beta
integrals.  Every cutoff at infinity is the Kelvin inversion of one at
0: t^-alpha zeta(1/t) is InvertedProfile(PowerCutoffInner(-alpha)).  The step is evaluated in its
logistic form: with z = 1/(1-w) - 1/w it is 1/(1 + e^z), and its slope is
-(1/w^2 + 1/(1-w)^2) / (4 cosh^2(z/2)), both from the one exponential
e^(z/2), with no masks.  The cutoff keeps its exponents as floats, so a
call is a handful of ufuncs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# fixed smooth cutoff and bump
# ---------------------------------------------------------------------------

# the step is exactly 1 below w = _STEP_END and exactly 0 above 1 - _STEP_END:
# there e^(-1/w), the step's distance from 1 or 0 and its slope (at most
# 2^20 e^-1023) are all below the least subnormal float
_STEP_END = 2.0 ** -10


def _step_halves(w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, a, twocosh): w clamped to [_STEP_END, 1 - _STEP_END], a =
    e^(-z/2) and twocosh = 2 cosh(z/2) = a + e^(z/2) for z = 1/(1-w) - 1/w.
    The step 1/(1 + e^z) is then a / twocosh; the clamp keeps both inside
    the float range."""
    w = np.clip(np.asarray(w, dtype=float), _STEP_END, 1.0 - _STEP_END)
    b = np.exp(0.5 / (1.0 - w) - 0.5 / w)
    a = 1.0 / b
    return w, a, a + b


def _step_slope(w: np.ndarray, twocosh: np.ndarray) -> np.ndarray:
    """d/dw of 1/(1 + e^z) = -z'(w) / (4 cosh^2(z/2)), with twocosh of
    _step_halves divided out twice so that the slope underflows gradually
    and nothing overflows."""
    v = 1.0 - w
    return -((1.0 / (w * w) + 1.0 / (v * v)) / twocosh) / twocosh


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

@dataclass(frozen=True)
class Edge:
    """f(t) ~ coef t^power at one end; see the module docstring."""

    coef: float
    power: Fraction
    exact: Optional[float] = None  # f == coef t^power from here to the end
    next: Optional[Tuple[float, Fraction]] = None  # only when power == 0

    def _map(self, term: Callable, region: Callable) -> "Edge":
        coef, power = term(self.coef, self.power)
        nxt = term(*self.next) if self.next is not None and power == 0 else None
        return Edge(coef, power, None if self.exact is None else region(self.exact), nxt)

    def derivative(self) -> Optional["Edge"]:
        if self.power != 0:
            return Edge(self.coef * float(self.power), self.power - 1, self.exact)
        if self.exact is not None:
            return None
        if self.next is None:
            raise ValueError("a non-constant edge of power 0 needs its next-order term")
        coef, power = self.next
        return Edge(coef * float(power), power - 1)

    def dilated(self, lam: float) -> "Edge":
        return self._map(lambda c, k: (c * lam ** float(k), k), lambda x: x / lam)

    def inverted(self) -> "Edge":
        return self._map(lambda c, k: (c, -k), _reciprocal)

    def modulated(self, eps: Fraction) -> "Edge":
        return self._map(lambda c, k: (c, k - eps), lambda x: x)


Edges = Tuple[Optional[Edge], Optional[Edge]]  # (at 0, at infinity)


def _each(edges: Edges, rule: Callable) -> Edges:
    return tuple(None if e is None else rule(e) for e in edges)


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


class PowerCutoffInner(RadialProfile):
    """t^{-alpha} zeta(t): a pure power near 0, cut off beyond t = 1.  Its
    inversion t^{alpha} zeta(1/t) is the cutoff at infinity."""

    kind = "power_cutoff_inner"

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        # floats for value() and derivative(), as PowerTail keeps them
        self._a, self._head, self._dhead = float(self.alpha), float(-self.alpha), float(-self.alpha - 1)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        _, a, twocosh = _step_halves(2.0 * t - 1.0)
        return np.power(t, self._head) * (a / twocosh)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        w, a, twocosh = _step_halves(2.0 * t - 1.0)
        out = np.power(t, self._head) * (2.0 * _step_slope(w, twocosh))
        if self._a != 0.0:
            out = out - self._a * np.power(t, self._dhead) * (a / twocosh)
        return out

    @property
    def support(self):
        return (0.0, 1.0)

    @property
    def breakpoints(self):
        return (0.5, 1.0)

    def edges(self):
        return (Edge(1.0, -self.alpha, exact=0.5), None)

    def descriptor(self):
        return {"kind": self.kind, "alpha": str(self.alpha)}


class SmoothBump(RadialProfile):
    """bump((t - center)/width); center = 0 gives a ball bump at the origin."""

    kind = "smooth_bump"

    def __init__(self, center: float, width: float):
        if width <= 0:
            raise ValueError("bump width must be positive")
        self.center = float(center)
        self.width = float(width)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return bump((t - self.center) / self.width)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return bump_prime((t - self.center) / self.width) / self.width

    @property
    def support(self):
        return (max(0.0, self.center - self.width), self.center + self.width)

    def edges(self):
        # f(0) != 0 only when the bump straddles the origin; f'(0) = 0 for
        # a centred bump, whose next term is -f(0) (t/width)^2
        if abs(self.center) >= self.width:
            return (None, None)
        # bump and bump_prime at v0, in scalars, read once per norm plan
        v0 = -self.center / self.width
        gap = 1.0 - v0 * v0
        f0 = math.exp(-1.0 / gap)
        slope = f0 * (-2.0 * v0) / gap**2 / self.width
        nxt = (slope, Fraction(1)) if self.center != 0 else (-f0 / self.width**2, Fraction(2))
        return (Edge(f0, Fraction(0), next=nxt), None)

    def descriptor(self):
        return {"kind": self.kind, "center": self.center, "width": self.width}


class BallBump(RadialProfile):
    """(1 - t^2)^2 on [0, 1), 0 beyond: a C^1 ball bump whose moments are
    Beta integrals, so that its translated norms are hypergeometric series
    (quadrature._translated_norm)."""

    kind = "ball_bump"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, (1.0 - t * t) ** 2, 0.0)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, -4.0 * t * (1.0 - t * t), 0.0)

    @property
    def support(self):
        return (0.0, 1.0)

    def edges(self):
        # 1 - 2 t^2 + t^4 at 0
        return (Edge(1.0, Fraction(0), next=(-2.0, Fraction(2))), None)


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
        # t^-alpha (1 + (alpha-beta) t + ...) at 0, t^-beta (1 + (alpha-beta)/t + ...)
        # at infinity; a pure power t^-alpha when alpha == beta
        a, b = self.alpha, self.beta
        if a == b:
            return (Edge(1.0, -a, exact=math.inf), Edge(1.0, -b, exact=0.0))
        second = float(a - b)
        return (
            Edge(1.0, -a, next=(second, Fraction(1)) if a == 0 else None),
            Edge(1.0, -b, next=(second, Fraction(-1)) if b == 0 else None),
        )

    def descriptor(self):
        return {"kind": self.kind, "alpha": str(self.alpha), "beta": str(self.beta)}


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
        return _each(self.inner.edges(), lambda e: e.modulated(eps))

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

    def edges(self):
        return _each(self.inner.edges(), lambda e: e.dilated(self.lam))

    def descriptor(self):
        return {"kind": self.kind, "lam": self.lam, "inner": self.inner.descriptor()}


class InvertedProfile(RadialProfile):
    """t -> inner(1/t), the radial action of the Kelvin transform."""

    kind = "inverted"

    def __init__(self, inner: RadialProfile):
        if isinstance(inner, InvertedProfile):
            raise ValueError("flatten double inversion at the call site")
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
        return _each(self.inner.edges()[::-1], Edge.inverted)

    def descriptor(self):
        return {"kind": self.kind, "inner": self.inner.descriptor()}
