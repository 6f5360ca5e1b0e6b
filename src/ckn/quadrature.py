"""Weighted norms of the test-function catalog.

The radial workhorse computes

    || f ||_{d,s}  =  ( N omega_N  *  integral t^{d+N-1} |f(t)|^s dt )^{1/s}

over (0, infinity) as the log integrals of closed pieces plus at most
one range left to geometric panels [2^k, 2^(k+1)] with adaptive
Gauss-Legendre inside each panel; panels split at the profile's seam
points.  Singular ends are handled in three tiers:

  1. Divergence is certified, never guessed: the exact power pi of the
     profile's edge record at the singular end decides d + N + s*pi <= 0
     (at zero) or >= 0 (at infinity) in rational arithmetic.  Quadrature
     growth is only a cross-check.
  2. Where the read edge record declares F exactly a power C t^m
     (indicator pieces, truncated-primitive tails), that end is a
     closed piece, an integral evaluated in log space, and the range stops
     at its bound.  Where F is the derivative of an exact constant it is
     an exact zero, and the range stops there with no piece.
  3. Otherwise the record states a bound on its next-order term: the
     leading power is a closed piece from a cut to the end, placed from the
     bound and rel_tol alone, and the bound's integral there, at most
     rel_tol / 100 of the norm, is added to the norm's error.  A cut past
     2^-+830 (about 1e-+250), or a record with no bound, fails the norm
     with its reason.  An end with no record vanishes faster than any
     power: the range starts at 0, or stops where F is 0 in floats.  So
     every panel range is finite.

One integrator serves every radial norm: a session of `panels.integrate`
shared by every panel integral of a `weighted_norms` call, so the norms
of a first-harmonic `verify` instance (6 members x 5 scales x 3 norms)
take about 2 integrand calls, and a radial one none.  Its one integrand
is t^w |F(t)|^s e^l, where F is a view (base, reading, lam) of a profile
(`_view`): a base profile read at lam t as its value base(lam t), its
derivative lam base'(lam t), a first-harmonic gradient, or the window
W(ln x) of a log window, one profile call per base and run of points,
and l is 0 but for log windows.  `_norm` takes the view first and
chooses the reading of its base once: a radial gradient reads the base's
derivative_profile as values where that closed form exists, adding ln
lam to the log norm (|| grad (f o lam) || = lam || f' o lam ||), else
the base's derivative, and a log window read as values is read by its
window.

Each (d, s, N) is read once (`_Exponents`, kept across calls by the
types and integer (numerator, denominator) pairs of d and s), into the
pairs and the floats its norms share.  Divergence certificates, closed
pieces and the range are settled before the session, in a norm plan
(`_NormPlan`) per (base profile, reading, d, s, N) that all dilations of
a member share, and moved to each dilation by the exact scaling law, in
one step where the plan is closed pieces alone; only the norms of plans
with a range reach the session as generators, others as values.  The
range of a dilation by lam = m 2^k, m in [1, 2), is integrated at m and
moved alike, so the dyadic dilations of a member share one panel
integral.  A log window's norm fails where the weight's peak is too
narrow for the panels.

A `PowerTail` f = t^-alpha (1+t)^(alpha-beta) or a `PowerBump` f =
t^-alpha (1 - t^g)^m on [0, 1) read as values or as its derivative is
all closed pieces, with no range: in u = t/(1+t), resp. u = t^g, each is
the one Euler integral of u^(x-1) (1-u)^(y-1) |a + (b-a) u|^s over (0,
1), a Beta value or 2F1s (`hypergeometric._euler_pieces`).  So
is the inversion f(1/t) of a `PowerBump`, the cutoff witness at
infinity: t -> 1/t makes its norm that of the bump at -d - 2N, and its
gradient norm that of the bump's at -d - 2N + 2s, with the ends swapped.
The Beta arguments are read in integers from the pairs of d, s and the
profile's exponents, and decide divergence by their signs
(`_beta_arguments`); each float handed to lgamma or a 2F1 is one int/int
division, rounded once, so a plan makes no Fraction.  Each 2F1 is read
with its relative error by `hypergeometric.Hyp2F1`, as is the angular
factor of first-harmonic gradients, which stay on the panels.

Translated profiles f(|x - x0|), |x0| = R, reduce to one radial integral
around the translation point,

    R^d |S^{N-1}|  integral t^{N-1} |f(t)|^s M(t/R) dt,

where M(x) = 2F1(-d/2, 1 - N/2 - d/2; N/2; x^2) is the mean of the weight
|e + x w|^d over w in S^{N-1} (Funk-Hecke; A&S 15.1.1 for the series),
and the gradient norm has the same form with f'.  The one translated
profile is the ball bump PowerBump(0, 2, 2), dilated, whose moments are Beta
integrals, so the integral is one hypergeometric series in (1/(lam R))^2
(a 2F1 for values, a 3F2 for gradients) with no panels, cut where its
tail is below 1e-17 of its least value (`_translated_norm`); huge offsets
and dilations stay in range through logs.

First-harmonic functions u = f(t) x1/|x| reduce to a radial norm times a
closed-form angular moment, and their gradients, with |grad u|^2 =
f'(t)^2 cos^2 + (f/t)^2 sin^2 of the polar angle, to a radial norm whose
reading carries the angular integral in closed form, a 2F1 of the ratio
of the two squares (`_FirstHarmonicGradient`).  At each end that reading
is a power too, bounded by the records of f' and f/t (`edge` there).

Norm values are carried with their logarithm so that ratio probes remain
meaningful when a norm overflows or underflows the double range.

All decision logic stays upstream and exact; this module only corroborates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .hypergeometric import MEAN_TERMS, Hyp2F1, _euler_pieces, _mean_series, translated_series
from .panels import DEFAULT_CONFIG, Integral, QuadratureConfig, QuadratureError, integrate
from .profiles import (Edge, InvertedProfile, LogModulated, PiecewisePower, PowerBump, PowerTail, RadialProfile,
                       ScaledProfile, merge_bounds)
from .testfunctions import Angular, TestFunction


class NormStatus(str, Enum):
    FINITE = "Finite"
    DIVERGENT = "Divergent"
    FAILED = "Failed"


@dataclass(frozen=True)
class NormValue:
    value: float
    log_value: float
    status: NormStatus
    error: float = 0.0
    detail: str = ""

    @property
    def finite(self) -> bool:
        return self.status is NormStatus.FINITE

    @classmethod
    def divergent(cls, detail: str) -> "NormValue":
        return cls(math.inf, math.inf, NormStatus.DIVERGENT, detail=detail)

    @classmethod
    def failed(cls, detail: str) -> "NormValue":
        return cls(math.nan, math.nan, NormStatus.FAILED, detail=detail)

    @classmethod
    def from_log(cls, log_value: float, error: float = 0.0) -> "NormValue":
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
        return cls(value, log_value, NormStatus.FINITE, error)

    def moved(self, correction: float) -> "NormValue":
        """This norm with correction added to its log, if it is finite."""
        moved = correction != 0.0 and self.finite
        return self.from_log(self.log_value + correction, self.error) if moved else self

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "log_value": self.log_value,
            "status": self.status.value,
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# small numerics helpers
# ---------------------------------------------------------------------------

def _logsumexp(terms) -> float:
    terms = [t for t in terms if t != -math.inf]
    if not terms:
        return -math.inf
    m = max(terms)
    if m == math.inf:
        return math.inf
    return m + math.log(sum(math.exp(t - m) for t in terms))


def surface_area(n: int) -> float:
    """|S^{n-1}| = N omega_N."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@lru_cache(maxsize=None)
def _log_area(n: int) -> float:
    """log |S^{n-1}|, computed once per n."""
    return math.log(surface_area(n))


def log_angular_moment(s: float, n: int) -> float:
    """log of the integral of |sigma_1|^s over the unit sphere S^{n-1}."""
    if n == 1:
        return math.log(2.0)
    # |S^{n-2}| * B((s+1)/2, (n-1)/2)
    return (_log_area(n - 1) + math.lgamma((s + 1.0) / 2.0) + math.lgamma((n - 1.0) / 2.0)
            - math.lgamma((s + n) / 2.0))


def log_power_integral(exponent: float, log_lo: Optional[float], log_hi: Optional[float]) -> float:
    """log of the integral of t^exponent over (lo, hi), bounds given as logs.

    log_lo = None means lo = 0, log_hi = None means hi = infinity.  Raises
    QuadratureError when the integral diverges (callers pre-check).
    """
    e1 = exponent + 1.0
    if log_lo is None and log_hi is None:
        raise QuadratureError("power integral over all of (0, inf) diverges")
    if log_lo is None:  # (0, hi): needs e1 > 0
        if e1 <= 0:
            raise QuadratureError("divergent power head")
        return e1 * log_hi - math.log(e1)
    if log_hi is None:  # (lo, inf): needs e1 < 0
        if e1 >= 0:
            raise QuadratureError("divergent power tail")
        return e1 * log_lo - math.log(-e1)
    if log_hi <= log_lo:
        return -math.inf
    if e1 == 0.0:
        return math.log(log_hi - log_lo)
    if e1 > 0:
        # hi^e1 (1 - (lo/hi)^e1) / e1
        return e1 * log_hi + _log1mexp(e1 * (log_lo - log_hi)) - math.log(e1)
    return e1 * log_lo + _log1mexp(e1 * (log_hi - log_lo)) - math.log(-e1)


def _log_power_piece(coef: float, expo: float, log_lo, log_hi, wexp: float, s: float) -> float:
    """log of the integral of t^wexp |coef t^expo|^s over (lo, hi), bounds
    as in log_power_integral."""
    if coef == 0.0:
        return -math.inf
    return s * math.log(abs(coef)) + log_power_integral(wexp + s * expo, log_lo, log_hi)


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x < 0, keeping its digits when x is near 0 (a narrow band)."""
    return math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


# ---------------------------------------------------------------------------
# readings of a base profile: values, derivatives, first-harmonic gradients
# ---------------------------------------------------------------------------

def _read_value(base: RadialProfile, x: np.ndarray, lam) -> np.ndarray:
    """f(t) = base(lam t) at x = lam t."""
    return base.value(x)


def _read_derivative(base: RadialProfile, x: np.ndarray, lam) -> np.ndarray:
    """f'(t) = lam base'(lam t) at x = lam t."""
    return lam * base.derivative(x)


def _read_window(base: LogModulated, x: np.ndarray, lam) -> np.ndarray:
    """W(ln x), the window of a log window at x = e^v, v = loglam ln t: its
    integrals live on (1/e, e) at every loglam (_NormPlan)."""
    return base.window_values(np.log(x))


class _FirstHarmonicGradient:
    """The reading m H^(1/p) of a base profile whose radial L^p norm on R^n
    is that of the gradient of u = f(|x|) x1/|x|: over the sphere of radius
    t, |grad u|^p integrates to t^(n-1) |S^(n-1)| m^p H (Euler's integral
    of 2F1), for m = max(|f'|, |f/t|), rho the smaller square over the
    larger and H = 2F1(-p/2, beta; n/2; 1 - rho), beta = (n-1)/2 where
    |f'| >= |f/t|, else 1/2.  A dilation by lam reads lam m(lam t) and
    rho(lam t).  error bounds the relative error of H (Hyp2F1.bound)."""

    def __init__(self, n: int, p: float):
        # a = -p/2 and b, e = (n-1)/2, 1/2 are exact, and each g = e - a is one rounding of its sum
        self.p, self.root, a = p, 1.0 / p, -p / 2.0
        self.branches = (Hyp2F1(a, (n - 1) / 2, 0.5, 0.5 + p / 2.0), Hyp2F1(a, 0.5, (n - 1) / 2, (n - 1 + p) / 2.0))
        self.error = max(branch.bound() for branch in self.branches)

    def __call__(self, base: RadialProfile, x: np.ndarray, lam) -> np.ndarray:
        return self.combine(base.derivative(x), base.value(x) / x, lam)

    def combine(self, fp: np.ndarray, ft: np.ndarray, lam=1.0) -> np.ndarray:
        """lam m H^(1/p) of f' = fp and f/t = ft, elementwise."""
        fp, ft = np.abs(fp), np.abs(ft)
        m = np.maximum(fp, ft)
        rho = (np.minimum(fp, ft) / np.where(m > 0, m, 1.0)) ** 2
        first, h = fp >= ft, np.empty_like(rho)
        h[first] = self.branches[0](rho[first])
        h[~first] = self.branches[1](rho[~first])
        return lam * m * h**self.root

    def _lead(self, fp: float, ft: float) -> float:
        return float(self.combine(np.array([fp]), np.array([ft]))[0])

    def edge(self, edge: Edge, at_zero: bool) -> Optional[Edge]:
        """The record of this reading at one end, from the record of f there,
        or None where it has no bound.  On an exact region f' and f/t are
        exact powers, and so is the reading.  Elsewhere, where f' and f/t are
        of one order and each within a factor 1 +- r of its leading term,
        |grad u|^2 is within (1 +- r)^2 of its leading term at every angle,
        and the reading within 1 +- r of its own.  Otherwise the reading lies
        between that of the leading one of them alone and that plus the
        reading of the other alone (Minkowski's inequality over the sphere,
        for p >= 1), a sum of two records."""
        slope, over_t = edge.derivative(), Edge(edge.coef, edge.power - 1, bound=edge.bound)
        if edge.exact is not None:
            return Edge(self._lead(0.0 if slope is None else slope.coef, edge.coef), over_t.power, exact=edge.exact)
        if slope is None or edge.bound is None:
            return None
        if slope.power == over_t.power:
            return Edge(self._lead(slope.coef, edge.coef), over_t.power,
                        bound=merge_bounds([slope.bound, edge.bound], at_zero, max))
        if self.p < 1.0:
            return None
        alone = Edge(abs(edge.coef) * self._lead(0.0, 1.0), over_t.power, bound=edge.bound)
        return alone.plus(Edge(abs(slope.coef) * self._lead(1.0, 0.0), slope.power, bound=slope.bound), at_zero)


@lru_cache(maxsize=16)
def _first_harmonic_gradient(n: int, p: float) -> _FirstHarmonicGradient:
    """The reading of (n, p), one object that a session groups rows by."""
    return _FirstHarmonicGradient(n, p)


# ---------------------------------------------------------------------------
# PowerTail and PowerBump norms in closed form
# ---------------------------------------------------------------------------

class _Exponents:
    """One (d, s, n) of a weighted_norms call, read once for all its norms:
    d and s as given, as exact integer (numerator, denominator) pairs (the
    caller's pairs, if given) and as floats, log |S^(n-1)|, and the floats
    that every plan of them reads, each one int/int division of its exact
    value: the weight's exponent d + n - 1 and the degrees d + n and d + n
    - s of the scaling law."""

    __slots__ = ("d", "s", "n", "d_pair", "s_pair", "df", "sf", "wexp", "degrees", "log_area")

    def __init__(self, d, s, n: int, pairs=None):
        self.d, self.s, self.n = d, s, n
        (dn, dd), (sn, sd) = self.d_pair, self.s_pair = pairs or (d.as_integer_ratio(), s.as_integer_ratio())
        self.df, self.sf, self.wexp = dn / dd, sn / sd, (dn + (n - 1) * dd) / dd
        self.degrees = ((dn + n * dd) / dd, ((dn + n * dd) * sd - sn * dd) / (dd * sd))  # values, gradients
        self.log_area = _log_area(n)


def _beta_arguments(inner, exps: _Exponents, gradient: bool, inverted: bool) -> tuple:
    """(X, Y, S, D, a, b), in integers from the pairs of d, s and the
    profile's exponents: the integral of t^(d+n-1) |F|^s over (0, inf), F =
    f or, for gradient, f', is that of _euler_pieces at x = X/D, y = Y/D
    and s = S/D, D > 0, with end coefficients a and b, pairs, times 1/g for
    a PowerBump.  For t^-alpha (1+t)^(alpha-beta), alpha != beta, x = d + n
    - alpha s, less s for f', and y = (beta - alpha) s - x; for t^-alpha (1
    - t^g)^m, x = (d + n - alpha s) / g, less s/g for f', and y = m s + 1,
    less s for f'.  Values read a = b = 1, and f' a = alpha and b = beta,
    resp. mg, counting the u^s or (1-u)^s of an end coefficient 0 in x or
    y.  It converges iff x, y > 0.  t -> 1/t takes t^(d+n-1) dt to
    t^(-d-n-1) dt, and f' gains a factor t^-2, so the inversion f(1/t) of a
    PowerBump reads -(d + n), plus 2s for f', for d + n."""
    (dn, dd), (sn, sd), n = exps.d_pair, exps.s_pair, exps.n
    an, ad = inner.alpha.numerator, inner.alpha.denominator
    # d + n - (alpha + gradient) s = head / (dd sd ad)
    head = (dn + n * dd) * sd * ad
    if inverted:
        head = 2 * gradient * sn * dd * ad - head
    head -= (an + gradient * ad) * sn * dd
    if isinstance(inner, PowerBump):
        (gn, gd), (mn, md) = (inner.g.numerator, inner.g.denominator), (inner.m.numerator, inner.m.denominator)
        X, Y = head * gd * md, ((mn - gradient * md) * sn + md * sd) * dd * ad * gn
        S, D, b = sn * dd * ad * gn * md, dd * sd * ad * gn * md, (mn * gn, md * gd)
    else:
        b = bn, bd = inner.beta.numerator, inner.beta.denominator
        X = head * bd
        Y = (bn * ad - an * bd) * sn * dd - X
        S, D = sn * dd * ad * bd, dd * sd * ad * bd
    if not gradient:
        return X, Y, S, D, (1, 1), (1, 1)
    return X + S * (an == 0), Y + S * (b[0] == 0), S, D, (an, ad), b


# ---------------------------------------------------------------------------
# norm plans: what the dilations of one member share
# ---------------------------------------------------------------------------

def _diverges_at_zero(d, s, n, powers) -> bool:
    return any(d + n + s * power <= 0 for power in powers)


def _diverges_at_inf(d, s, n, powers) -> bool:
    return any(d + n + s * power >= 0 for power in powers)


class _NormPlan:
    """What the norms || f ||_{d,s} on R^n of every dilation of one base
    profile share, for one reading of it (values f(t) = base(lam t),
    derivatives lam base'(lam t), _FirstHarmonicGradient or _read_window):
    dilation moves support, seams, coefficients and exact regions, but no
    end of the support to or from 0 or infinity and no power of an edge
    record.

    So the plan holds the exact divergence verdicts and, for a norm that
    converges, its reading at lam = 1: its closed pieces, each a log
    integral and its relative error, summed once (closed), and the one
    finite range left to the panels, or None.  A PiecewisePower read as
    values is all pieces, and so is a PowerTail, PowerBump or inverted
    PowerBump read as values or derivatives, whose Beta arguments decide
    its verdicts with no edge record (_beta_arguments, _euler_pieces).
    Otherwise each end of the support at 0 or infinity is a piece of the
    read edge record there (_close), and the range stops at its cut; it
    stops there with no piece where a derivative reads an exact constant.
    With no record at 0, f vanishes there faster than any power, and the
    range starts at 0; with none at infinity, it stops at the power of 2
    past the last one of the grid 2^k, k <= 830, at which F is not 0.
    The dilation by lam moves the pieces by -degree ln lam, degree = d + n,
    less s for a gradient reading, and the range too, integrated at the
    mantissa of lam (_radial_norm).  The base's edge records are read only
    where its support reaches 0 or infinity.

    A log window t^-m W(loglam ln t) is read by its window in x = e^v, v =
    loglam ln t: with K = d + n - m s its integral is 1 / loglam times
    that of x^(K/loglam - 1) |W(ln x)|^s over (1/e, e), with no seams or
    edges, its range at every dilation.  The log factor -|K|/loglam keeps
    the weight x^(K/loglam - 1) e^(-|K|/loglam) at most e at any rate, and
    log_area takes it back.
    """

    def __init__(self, base: RadialProfile, reading, exps: _Exponents, rel_tol: float):
        if exps.s_pair[0] <= 0:
            raise ValueError("norm exponent must be positive")
        d, s, n = exps.d, exps.s, exps.n
        self.base, self.reading = base, reading
        window = reading is _read_window
        lo, hi = self.support = (1.0 / math.e, math.e) if window else base.support
        self.breakpoints = () if window else base.breakpoints
        # the relative error of |F|^s that the reading reports
        self.reading_error = getattr(reading, "error", 0.0)
        self.wexp, self.sf, self.log_factor, self.log_area = exps.wexp, exps.sf, 0.0, exps.log_area
        self.degree = exps.degrees[reading not in (_read_value, _read_window)]
        if window:
            k, rate = float(d + n - base.m * s), base.loglam
            self.wexp, self.log_factor = k / rate - 1.0, -abs(k) / rate
            self.log_area += abs(k) / rate - math.log(rate)
        # the reading at lam = 1, or why a closed piece failed
        self.pieces, self.range, self.failure = [], None, None
        inverted = isinstance(base, InvertedProfile) and isinstance(base.inner, PowerBump)
        inner = base.inner if inverted else base
        bump = isinstance(inner, PowerBump)
        if reading in (_read_value, _read_derivative) and (
                bump or isinstance(inner, PowerTail) and inner.alpha != inner.beta):
            X, Y, S, D, a, b = _beta_arguments(inner, exps, reading is _read_derivative, inverted)
            self.diverges_at_zero, self.diverges_at_inf = (Y <= 0, X <= 0) if inverted else (X <= 0, Y <= 0)
            if X > 0 < Y:  # the 1/g of u = t^g
                self.pieces = _euler_pieces(X, Y, S, D, a, b, [-math.log(inner.g)] if bump else [])
        else:
            edges = base.edges() if lo == 0.0 or hi == math.inf else (None, None)
            edges = (edges[0] if lo == 0.0 else None, edges[1] if hi == math.inf else None)
            ends = edges if reading is _read_value else tuple(None if e is None else e.derivative() for e in edges)
            powers = [[] if end is None else [end.power] for end in ends]
            if isinstance(reading, _FirstHarmonicGradient):
                # as singular as the worse of f' and f/t, whether or not the reading's record is bounded
                powers = [own + [edge.power - 1] if edge is not None else own for own, edge in zip(powers, edges)]
                ends = tuple(None if e is None else reading.edge(e, end == 0) for end, e in enumerate(edges))
            self.diverges_at_zero = lo == 0.0 and _diverges_at_zero(d, s, n, powers[0])
            self.diverges_at_inf = hi == math.inf and _diverges_at_inf(d, s, n, powers[1])
            if not (self.diverges_at_zero or self.diverges_at_inf):
                try:
                    self._read_at_one(edges, ends, rel_tol)
                except QuadratureError as exc:  # a float exponent past the exact verdict, or an end left open
                    self.failure = str(exc)
        # every dilation moves all pieces by one shift: their sum, (log, relative error), if not 0
        log = _logsumexp(piece for piece, _ in self.pieces)
        self.closed = [] if log == -math.inf else [(log, sum(e * math.exp(p - log) for p, e in self.pieces))]

    def _read_at_one(self, edges, ends, rel_tol: float) -> None:
        """The pieces and the range of a convergent plan, from the base's
        edge records and the read ones (see the class docstring)."""
        base, reading, wexp, sf = self.base, self.reading, self.wexp, self.sf
        if reading is _read_value and isinstance(base, PiecewisePower):
            self.pieces = [(_log_power_piece(coef, float(expo), None if lo == -math.inf else lo,
                                             None if hi == math.inf else hi, wexp, sf), 0.0)
                           for coef, expo, lo, hi in base.pieces]
            return
        bounds = list(self.support)
        for end, (edge, read) in enumerate(zip(edges, ends)):
            if edge is None:
                if bounds[end] == math.inf:  # F vanishes faster than any power: stop where it is 0 in floats
                    grid = np.ldexp(1.0, np.arange(-830, 831))
                    grid = grid[grid > bounds[0]]
                    with np.errstate(all="ignore"):
                        alive = np.flatnonzero(np.abs(reading(base, grid, 1.0)) > 0.0)
                    if alive.size and alive[-1] == grid.size - 1:
                        raise QuadratureError("no edge record at infinity, and F is not 0 at 2^830")
                    bounds[end] = float(grid[alive[-1] + 1 if alive.size else 0])
            elif reading is _read_derivative and read is None and edge.exact is not None:
                bounds[end] = edge.exact  # the derivative of an exact constant
            elif read is None or read.exact is None and read.bound is None:
                raise QuadratureError(f"no bound on the edge record at {('0', 'infinity')[end]}")
            else:
                bounds[end] = self._close(read, end == 0, rel_tol)
        if bounds[0] < bounds[1]:
            self.range = tuple(bounds)

    def _close(self, read: Edge, at_zero: bool, rel_tol: float) -> float:
        """Append the piece of the read record c t^power from its cut to the
        end, and return the cut: an exact region's bound, with no error, or
        the cut of its bound, with the bound's integral.  With |F / (c
        t^power) - 1| <= k x^delta, x = t at 0 and 1/t at infinity, the
        piece is |c|^s X^sigma / sigma up to the cut X, sigma = +-(wexp + s
        power + 1) > 0.  Where k x^delta <= u0, |F|^s is within a factor 2 of
        its leading term and within 2 s k x^delta of it, relatively, so the
        piece is within 2 s k X^delta sigma / (sigma + delta) of its part of
        the norm.  The cut is the largest power of 2 at which that is at most
        rel_tol / 100 of the leading integral over that whole region: the
        panels' test of rel_tol per panel leaves them far more accurate
        than rel_tol, and so the closed ends cost the norm no digits."""
        sf, sign, error = self.sf, 1.0 if at_zero else -1.0, 0.0
        cut = read.exact
        if cut is None:
            k, delta, reach = read.bound
            sigma = sign * (self.wexp + sf * float(read.power) + 1.0)
            if sigma <= 0.0:  # a float exponent past the exact verdict
                raise QuadratureError("divergent power head" if at_zero else "divergent power tail")
            u0 = min(0.5, 2.0 ** (1.0 / sf) - 1.0, 1.0 - 2.0 ** (-1.0 / sf))
            log_k = math.log(2.0 * sf * k) if k > 0.0 else -math.inf
            log_region = min(sign * math.log(reach), (math.log(2.0 * sf * u0) - log_k) / delta)
            log_cut = (math.log(rel_tol / 100.0) + sigma * log_region - math.log(sigma / (sigma + delta))
                       - log_k) / (sigma + delta)
            power = math.floor(min(log_cut, log_region) / math.log(2.0))
            if power < -830:  # 2^830 is about 1e250
                raise QuadratureError("the bound at 0 puts its cut below 2^-830" if at_zero
                                      else "the bound at infinity puts its cut past 2^830")
            cut = math.ldexp(1.0, int(sign) * power)
            error = math.exp(log_k + delta * power * math.log(2.0)) * sigma / (sigma + delta)
        log_cut = math.log(cut)
        log_bounds = (None, log_cut) if at_zero else (log_cut, None)
        self.pieces.append((_log_power_piece(read.coef, float(read.power), *log_bounds, self.wexp, sf), error))
        return cut


def _view(profile: RadialProfile, reading) -> Tuple[RadialProfile, object, float]:
    """(base, reading, lam): profile, read by reading, is base read by
    reading at lam t (lam is 1 but for a ScaledProfile)."""
    if isinstance(profile, ScaledProfile):
        return profile.inner, reading, profile.lam
    return profile, reading, 1.0


def _plan(plans: dict, view, exps: _Exponents, rel_tol: float) -> _NormPlan:
    """The plan of the norms || f ||_{d,s} on R^n of the view (base,
    reading, lam) of f, shared through plans by every norm of the same base
    object, reading and (d, s, n) values, which share rel_tol; exps is the
    one _Exponents of those values (weighted_norms).  Each plan holds its
    base, so the base's id stays unique while the plans dict lives."""
    base, reading, _ = view
    key = (id(base), reading, exps)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _NormPlan(base, reading, exps, rel_tol)
    return plan


# ---------------------------------------------------------------------------
# integrands of the panel sessions
# ---------------------------------------------------------------------------

def _radial_integrand(views, group, wexp, s, log_factor):
    """The integrand t^wexp[i] |F_i(t)|^s[i] e^log_factor[i] of integral i,
    where views[i] = (base, reading, lam) gives F_i(t) = reading(base, lam
    t, lam), and group[i] numbers the (base profile, reading) that F_i
    reads.

    Each call reads each group once per run of consecutive rows in it; the
    per-row parameters are repeated per point, so that all arithmetic is on
    flat arrays, and a call whose rows all belong to one integral uses its
    parameters as scalars.
    """
    group, table = np.array(group), np.array([[view[2] for view in views], wexp, s, log_factor])

    def g(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        i = owner[0]
        if i == owner[-1]:  # rows come in order of owner: all of integral i
            base, reading, scale = views[i]
            wexp, s, factor = table[1:, i]
            fv = reading(base, t * scale, scale)
        else:
            per_row = t.size // owner.size
            runs, (scale, wexp, s, factor) = group[owner], table[:, owner].repeat(per_row, axis=1)
            x, fv = t * scale, np.empty_like(t)
            cuts = [0, *((runs[1:] != runs[:-1]).nonzero()[0] + 1).tolist(), owner.size]
            for a, b in zip(cuts, cuts[1:]):
                base, reading, _ = views[owner[a]]
                points = slice(a * per_row, b * per_row)
                fv[points] = reading(base, x[points], scale[points])
        fv = np.abs(fv)
        # 0 where F vanishes (or is nan)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(fv > 0, np.exp(wexp * np.log(t) + s * np.log(fv) + factor), 0.0)

    return g


def _session(norms, cfg: QuadratureConfig) -> list:
    """The values of norms as _norm returns them: a NormValue, taken as it
    is, or a generator that yields a list of requests (view, wexp, s,
    log_factor, Integral) for the panel integrals it needs, with view the
    (base, reading, lam) of its plan, and is sent their results: (value,
    error), or a QuadratureError, "panel sum overflowed" for a sum that is
    not finite.

    Every panel integral they ask for shares one session, the package's
    only one, ordered so that the rows of each (base, reading) are
    consecutive; equal requests, such as those of the dilations of one
    member by one class m 2^k of scales (_radial_norm), are integrated once.
    """
    out, waiting, asks = [], [], []
    for norm in norms:
        if isinstance(norm, NormValue):
            out.append(norm)
            continue
        ask = next(norm)
        waiting.append((len(out), norm, len(asks), len(asks) + len(ask)))
        out.append(None)
        asks += ask
    if not waiting:
        return out
    index = {}
    slot = [index.setdefault((id(base), reading, lam, *rest), len(index)) for (base, reading, lam), *rest in asks]
    unique = list(dict(zip(slot, asks)).values())
    keys = {}
    group = [keys.setdefault((id(base), reading), len(keys)) for (base, reading, _), *_ in unique]
    order = sorted(range(len(unique)), key=group.__getitem__)
    views, wexp, s, log_factor, integrals = zip(*(unique[k] for k in order))
    g = _radial_integrand(views, [group[k] for k in order], wexp, s, log_factor)
    results = [None] * len(unique)
    for k, result in zip(order, integrate(g, integrals, cfg)):
        if not math.isfinite(result[0]):
            result = QuadratureError("panel sum overflowed")
        results[k] = result
    results = [results[k] for k in slot]
    for i, norm, start, stop in waiting:
        try:
            norm.send(results[start:stop])
        except StopIteration as done:
            out[i] = done.value
    return out


# ---------------------------------------------------------------------------
# public norms
# ---------------------------------------------------------------------------

def _radial_norm(view, exps: _Exponents, plans: dict, rel_tol: float, correction: float = 0.0):
    """The radial norm || F ||_{d,s} on R^n of the view (base, reading, lam)
    of F, its log moved by correction: a generator for _session where the
    plan has a range (_ranged_norm), else a NormValue, the plan's closed sum
    moved by -degree ln lam, read in one step: t + log 1 = t, bit for bit."""
    plan, lam = _plan(plans, view, exps, rel_tol), view[2]
    if plan.diverges_at_zero:
        return NormValue.divergent("non-integrable at zero")
    if plan.diverges_at_inf:
        return NormValue.divergent("non-integrable at infinity")
    if plan.failure is not None:
        return NormValue.failed(plan.failure)
    shift = plan.degree * math.log(lam)
    if plan.range is not None:
        return _ranged_norm(plan, lam, shift, correction)
    if not plan.closed:  # every piece is 0
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    (log, error), = plan.closed
    norm = NormValue.from_log((plan.log_area + (log - shift)) / plan.sf, error + plan.reading_error)
    return norm.moved(correction)


def _ranged_norm(plan: _NormPlan, lam: float, shift: float, correction: float):
    """_radial_norm where the plan has a range, a generator for _session:
    the closed sum moved by -degree ln lam, plus the range integrated at m
    and moved by -degree ln(lam / m), m = 1 for a window, else the mantissa
    lam 2^-k in [1, 2), which maps the grid, seams and Gauss nodes at lam
    exactly onto those at m, so every lam of one class asks for one
    integral.  Its error sums each part's relative error by its share."""
    parts = [(log - shift, error) for log, error in plan.closed]
    m = 1.0 if plan.reading is _read_window else 2.0 * math.frexp(lam)[0]
    (result,) = yield [((plan.base, plan.reading, m), plan.wexp, plan.sf, plan.log_factor,
                        Integral(*(x / m for x in plan.range), tuple(x / m for x in plan.breakpoints)))]
    if isinstance(result, QuadratureError):
        return NormValue.failed(str(result))
    middle, err = result
    if middle > 0:
        parts.append((math.log(middle) - plan.degree * math.log(lam / m), err / middle))
    log_integral = _logsumexp(part for part, _ in parts)
    if log_integral == -math.inf:
        if plan.reading is _read_window:  # a window's integral is positive: its peak fell between the nodes
            return NormValue.failed("log-window integral underflowed")
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    rel_err = sum(error * math.exp(part - log_integral) for part, error in parts)
    norm = NormValue.from_log((plan.log_area + log_integral) / plan.sf, rel_err + plan.reading_error)
    return norm.moved(correction)


def _translated_norm(u: TestFunction, exps: _Exponents, gradient: bool) -> NormValue:
    """|| u ||_{d,s} of a translated u, or || grad u ||_{d,s} when gradient,
    for u the ball bump f(t) = (1 - t^2)^2 dilated by lam, at distance R:
    R^d |S^(n-1)| times the integral of t^(n-1) |f(lam t)|^s M(t/R), lam^s
    |f'(lam t)|^s for gradient, with M(x) = 2F1(a, b; n/2; x^2), a = -d/2
    and b = 1 - n/2 - d/2, the mean of |e + x w|^d over w in S^(n-1)
    (Funk-Hecke; A&S 15.1.1 for the series).

    The moments of the bump are Beta integrals, so with y = (1/(lam R))^2
    the integral is lam^-n 1/2 B(n/2, 2s + 1) 2F1(a, b; n/2 + 2s + 1; y),
    and for gradient (4 lam)^s lam^-n 1/2 B(e, s + 1) 3F2(a, b, e; n/2, e +
    s + 1; y), e = (n + s)/2, each read once per (n, d, s, reading) with its
    Beta lgammas (hypergeometric.translated_series).  Each series is a
    weighted mean of M over [0, 1/(lam R)], so it is at least 1 where |x|^d
    is subharmonic, d (d + n - 2) >= 0, else the least of (1 +- x)^d
    (_mean_series).  Huge offsets and dilations stay in range through logs."""
    profile, offset = u.profile, u.offset
    lam = profile.lam if isinstance(profile, ScaledProfile) else 1.0
    if 1.0 / lam >= offset:
        raise ValueError("translated support must stay away from the origin")
    x, df, sf, n = 1.0 / (lam * offset), exps.df, exps.sf, exps.n
    terms, log_beta = translated_series(n, df, sf, gradient)
    if gradient:
        log_beta += sf * math.log(4.0 * lam)
    least = 1.0 if df * (df + n - 2) >= 0 else min((1.0 + x) ** df, (1.0 - x) ** df)
    series = _mean_series(terms, x, least)
    if series is None:
        return NormValue.failed(f"angular series needs more than {MEAN_TERMS} terms at x = {x:.6g}")
    total, error = series
    log_integral = (df * math.log(offset) + exps.log_area - n * math.log(lam) - math.log(2.0)
                    + log_beta + math.log(total))
    return NormValue.from_log(log_integral / sf, error)


def _norm(u: TestFunction, exps: _Exponents, gradient: bool, plans: dict, rel_tol: float):
    """|| grad u ||_{d,s} when gradient, else || u ||_{d,s}, with exps the
    (d, s, n) of its weighted_norms call and the norm plans there: a
    NormValue, or a generator for _session where the norm needs a panel
    integral (_radial_norm)."""
    n = exps.n
    if u.angular is Angular.TRANSLATED:
        return _translated_norm(u, exps, gradient)
    harmonic = u.angular is Angular.FIRST_HARMONIC
    if harmonic and n < 2:
        raise ValueError("first harmonics need dimension >= 2")
    reading, correction, sf = _read_value, 0.0, exps.sf
    if gradient:
        reading = _first_harmonic_gradient(n, sf) if harmonic else _read_derivative
    elif harmonic:
        # the function's angular moment in place of the sphere's area
        correction = (log_angular_moment(sf, n) - exps.log_area) / sf
    base, reading, lam = _view(u.profile, reading)
    closed = base.derivative_profile if reading is _read_derivative else None
    if closed is not None:
        # || grad (f o lam) || = lam || f' o lam ||, with f' read as values
        base, reading, correction = closed, _read_value, math.log(lam)
    if reading is _read_value and isinstance(base, LogModulated):
        reading = _read_window
    return _radial_norm((base, reading, lam), exps, plans, rel_tol, correction)


_EXPONENTS = {}  # the _Exponents of the latest calls, such as the members of one walk


def weighted_norms(norms, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """The norm of each (u, d, s, n, gradient) of norms: || grad u ||_{d,s}
    when gradient, else || u ||_{d,s}.  Every panel integral among them
    shares one session, and the radial norms of one base profile, reading
    and (d, s, n) one norm plan, whatever their dilations; a translated
    norm is a closed-form series and asks for no panel integral.

    Each (d, s, n) is read once, into an _Exponents found by the ids of d
    and s, else by their pairs, so that no lookup hashes a Fraction; value-
    equal ints, Fractions and floats share it, and _EXPONENTS keeps those
    of the latest calls by the types and pairs on which alone they depend.
    by_id holds d and s, so their ids stay unique."""
    if len(_EXPONENTS) > 64:
        _EXPONENTS.clear()
    plans, by_pairs, by_id, jobs = {}, {}, {}, []
    for u, d, s, n, gradient in norms:
        key = id(d), id(s), n
        if key not in by_id:
            pairs = d.as_integer_ratio(), s.as_integer_ratio(), n
            if pairs not in by_pairs:
                typed = type(d), type(s), pairs
                if typed not in _EXPONENTS:
                    _EXPONENTS[typed] = _Exponents(d, s, n, pairs[:2])
                by_pairs[pairs] = _EXPONENTS[typed]
            by_id[key] = by_pairs[pairs], d, s
        jobs.append(_norm(u, by_id[key][0], gradient, plans, cfg.rel_tol))
    return _session(jobs, cfg)


def weighted_norm(u: TestFunction, d: Fraction, s: Fraction, n: int,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormValue:
    """|| u ||_{d,s} for any catalog test function."""
    return weighted_norms([(u, d, s, n, False)], cfg)[0]


def weighted_norm_gradient(u: TestFunction, b: Fraction, p: Fraction, n: int,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormValue:
    """|| grad u ||_{b,p} (for radial u this is the radial-derivative norm)."""
    return weighted_norms([(u, b, p, n, True)], cfg)[0]
