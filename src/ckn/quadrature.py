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
  2. Where the read edge record declares F exactly a power C t^m (cutoff
     plateaus, indicator pieces, truncated-primitive tails), that end is a
     closed piece, an integral evaluated in log space, and the range stops
     at its bound; this is what keeps near-critical tails (exponent
     -1-epsilon) accurate without millions of panels.  Where F is the
     derivative of an exact constant it is an exact zero, and the range
     stops there with no piece.
  3. Otherwise the range reaches the singular end, and panels walk toward
     it until their contribution falls below the relative tolerance;
     failure to converge within the panel budget is an explicit error,
     never a silent value.

One integrator serves every radial norm: a session of `panels.integrate`
shared by every panel integral of a `weighted_norms` call, so the norms
of a whole `verify` instance (8 members x 5 scales x 3 norms) take about
15 integrand calls.  Its one integrand is t^w |F(t)|^s e^l, where F is a
view (base, reading, lam) of a profile (`_view`): a base profile read at
lam t as its value base(lam t), its derivative lam base'(lam t), a
first-harmonic gradient, or the window W(ln x) of a log window, one
profile call per base and run of points, and l is 0 but for log windows.
`_norm` takes the view first and chooses the reading of its base once: a
radial gradient reads the base's derivative_profile as values where that
closed form exists, adding ln lam to the log norm (|| grad (f o lam) || =
lam || f' o lam ||), else the base's derivative, and a log window read as
values is read by its window.

Divergence certificates and closed pieces are settled before the
session, in a norm plan (`_NormPlan`) per (base profile, reading, d, s,
N) that all dilations of a member share: the plan reads the norm at lam =
1 as its closed pieces plus its one range, or none.  Every dilation moves
the pieces by the exact scaling law, the integral at lam being
lam^-degree times the one at lam = 1, degree = d + N, less s for a
derivative reading, and integrates the range at its own scale (a log
window's at 1, moved alike).  A log window's integral in t is one over
(1/e, e) in x = e^v, v = loglam ln t, at every loglam; its norm fails
where the weight's peak is too narrow for the panels.

Translated profiles f(|x - x0|), |x0| = R, reduce to one radial integral
around the translation point,

    R^d |S^{N-1}|  integral t^{N-1} |f(t)|^s M(t/R) dt,

where M(x) = 2F1(-d/2, 1 - N/2 - d/2; N/2; x^2) is the mean of the weight
|e + x w|^d over w in S^{N-1} (Funk-Hecke; A&S 15.1.1 for the series),
and the gradient norm has the same form with f'.  The one translated
profile is the ball bump (1 - t^2)^2, dilated, whose moments are Beta
integrals, so the integral is one hypergeometric series in (1/(lam R))^2
(a 2F1 for values, a 3F2 for gradients) with no panels, cut where its
tail is below 1e-17 of its least value (`_translated_norm`); huge offsets
and dilations stay in range through logs.

First-harmonic functions u = f(t) x1/|x| reduce to a radial norm times a
closed-form angular moment, and their gradients, with |grad u|^2 =
f'(t)^2 cos^2 + (f/t)^2 sin^2 of the polar angle, to a radial norm whose
reading carries the angular integral in closed form, a 2F1 of the ratio
of the two squares (`_FirstHarmonicGradient`).

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

from .panels import ABS_TOL, DEFAULT_CONFIG, Integral, QuadratureConfig, QuadratureError, integrate
from .profiles import LogModulated, PiecewisePower, RadialProfile, ScaledProfile
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


def log_angular_moment(s: float, n: int) -> float:
    """log of the integral of |sigma_1|^s over the unit sphere S^{n-1}."""
    if n == 1:
        return math.log(2.0)
    # |S^{n-2}| * B((s+1)/2, (n-1)/2)
    return (math.log(surface_area(n - 1)) + math.lgamma((s + 1.0) / 2.0) + math.lgamma((n - 1.0) / 2.0)
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
# hypergeometric series
# ---------------------------------------------------------------------------

class _Terms:
    """The coefficients scale prod_i (ups_i)_k / (prod_j (downs_j)_k k!) of
    scale pFq(ups; downs; z), p = q + 1, each computed once by the term
    recurrence, and a bound on the tail of the series at any z."""

    def __init__(self, ups, downs, scale: float = 1.0):
        # each up is paired with a down, the last with the 1 of k!
        self.ups, self.downs, self.coefs = tuple(ups), (*downs, 1.0), [scale]

    def __getitem__(self, k: int) -> float:
        while len(self.coefs) <= k:
            self._extend()
        return self.coefs[k]

    def _extend(self) -> None:
        """Append the next coefficient by the recurrence."""
        k, coef = len(self.coefs), self.coefs[-1]
        for u in self.ups:
            coef *= u + k - 1
        self.coefs.append(coef / math.prod(v + k - 1 for v in self.downs))

    def tail(self, k: int, z: float) -> float:
        """A bound on the absolute terms from term k on at z, or inf: past k
        >= -up and k > -down each factor (up+j)/(down+j) of the term ratio
        is monotone in j, so r = z prod max(1, (up+k)/(down+k)) bounds it,
        and the tail is at most |term k| / (1 - r)."""
        if any(k < -u for u in self.ups) or any(k <= -v for v in self.downs):
            return math.inf
        r = z
        for u, v in zip(self.ups, self.downs):
            r *= max(1.0, (k + u) / (k + v))
        return abs(self[k]) * z**k / (1.0 - r) if r < 1.0 else math.inf


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


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 16, then the asymptotic
    series, whose first dropped term is below 1e-16 there."""
    shift = 0.0
    while x < 16.0:
        shift -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y / 132))))


def _gamma_ratio(up, down) -> float:
    """The product of Gamma over up divided by that over down, none of them
    a pole, through lgamma and the signs of Gamma at negative points."""
    sign = math.prod(-1.0 if x < 0 and math.floor(x) % 2 else 1.0 for x in (*up, *down))
    return sign * math.exp(sum(map(math.lgamma, up)) - sum(map(math.lgamma, down)))


def _series(a, b, c, scale: float = 1.0) -> list:
    """The coefficients of scale 2F1(a, b; c; x): all of a polynomial, else
    up to a term from which the tail at x = 1/2 is at most 1e-17 of the
    sum of the absolute terms before it."""
    terms, total, k = _Terms((a, b), (c,), scale), abs(scale), 1
    while terms[k] != 0.0 and terms.tail(k, 0.5) > 1e-17 * total:
        total += abs(terms[k]) * 0.5**k
        k += 1
    return terms.coefs[:k]


class _Hypergeometric:
    """2F1(a, b; c; 1 - rho) for 0 <= rho <= 1, g = c - a - b > 0 and c > b
    > 0 > a: its series in 1 - rho where rho >= 1/2 or a is a non-positive
    integer (a polynomial), else head(rho) + rho^g (rest(rho) + log(rho)
    log_part(rho)), the connection formula of A&S 15.3.6, or of 15.3.11 for
    an integer g (the finite head and the digamma weights of rest).  rho =
    0 reads rho^g log(rho) as 0.

    Near an integer g the two terms of 15.3.6 grow as 1/|g - m| and cancel:
    error, 64 eps times their absolute sums at rho = 1/2 over head(0), the
    least value, bounds the relative error (33 eps times it at most against
    30-digit values, for n up to 24 and p near 1, 3, 5 and 7)."""

    def __init__(self, a: float, b: float, c: float):
        self.near, self.head, self.error = _series(a, b, c), None, 0.0
        if a <= 0 and a == int(a):
            return
        self.g = g = c - a - b
        if g != int(g):
            self.head = _series(a, b, 1 - g, _gamma_ratio([c, g], [c - a, c - b]))
            self.rest = _series(c - a, c - b, 1 + g, _gamma_ratio([c, -g], [a, b]))
            self.log_part = [0.0]
            terms = sum(abs(x) * 0.5**k for k, x in enumerate(self.head)) + 0.5**g * sum(
                abs(x) * 0.5**k for k, x in enumerate(self.rest))
            self.error = 64 * np.finfo(float).eps * terms / self.head[0]
            return
        m = int(g)
        head = _Terms((a, b), (1 - m,), _gamma_ratio([m, c], [c - a, c - b]))
        self.head = [head[n] for n in range(m)]
        self.log_part = _series(a + m, b + m, m + 1, -(-1) ** m * _gamma_ratio([c], [a, b, m + 1]))
        self.rest = [coef * (_digamma(a + n + m) + _digamma(b + n + m) - _digamma(n + 1) - _digamma(n + m + 1))
                     for n, coef in enumerate(self.log_part)]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        polyval = np.polynomial.polynomial.polyval  # loaded on first use
        if self.head is None:
            return polyval(1.0 - rho, self.near)
        out, near = np.empty_like(rho), rho >= 0.5
        out[near] = polyval(1.0 - rho[near], self.near)
        rho = rho[~near]
        tail = polyval(rho, self.rest) + np.log(np.where(rho > 0.0, rho, 1.0)) * polyval(rho, self.log_part)
        out[~near] = polyval(rho, self.head) + rho**self.g * tail
        return out


class _FirstHarmonicGradient:
    """The reading m H^(1/p) of a base profile whose radial L^p norm on R^n
    is that of the gradient of u = f(|x|) x1/|x|: over the sphere of radius
    t, |grad u|^p integrates to t^(n-1) |S^(n-1)| m^p H (Euler's integral
    of 2F1), for m = max(|f'|, |f/t|), rho the smaller square over the
    larger and H = 2F1(-p/2, beta; n/2; 1 - rho), beta = (n-1)/2 where
    |f'| >= |f/t|, else 1/2.  A dilation by lam reads lam m(lam t) and
    rho(lam t).  error bounds the relative error of H (_Hypergeometric)."""

    def __init__(self, n: int, p: float):
        self.root = 1.0 / p
        self.branches = (_Hypergeometric(-p / 2.0, (n - 1) / 2.0, n / 2.0), _Hypergeometric(-p / 2.0, 0.5, n / 2.0))
        self.error = max(branch.error for branch in self.branches)

    def __call__(self, base: RadialProfile, x: np.ndarray, lam) -> np.ndarray:
        fp, ft = np.abs(base.derivative(x)), np.abs(base.value(x) / x)
        m = np.maximum(fp, ft)
        rho = (np.minimum(fp, ft) / np.where(m > 0, m, 1.0)) ** 2
        first, h = fp >= ft, np.empty_like(rho)
        h[first] = self.branches[0](rho[first])
        h[~first] = self.branches[1](rho[~first])
        return lam * m * h**self.root


@lru_cache(maxsize=16)
def _first_harmonic_gradient(n: int, p: float) -> _FirstHarmonicGradient:
    """The reading of (n, p), one object that a session groups rows by."""
    return _FirstHarmonicGradient(n, p)


# ---------------------------------------------------------------------------
# exact divergence tests
# ---------------------------------------------------------------------------

def _diverges_at_zero(d, s, n, powers) -> bool:
    return any(d + n + s * power <= 0 for power in powers)


def _diverges_at_inf(d, s, n, powers) -> bool:
    return any(d + n + s * power >= 0 for power in powers)


# ---------------------------------------------------------------------------
# norm plans: what the dilations of one member share
# ---------------------------------------------------------------------------

class _NormPlan:
    """What the norms || f ||_{d,s} on R^n of every dilation of one base
    profile share, for one reading of it (values f(t) = base(lam t),
    derivatives lam base'(lam t), _FirstHarmonicGradient or _read_window):
    dilation moves support, seams, coefficients and exact regions, but no
    end of the support to or from 0 or infinity and no power of an edge
    record.

    So the plan holds the exact divergence verdicts and, for a norm that
    converges, its reading at lam = 1: the log integrals of its closed
    pieces and the one range left to the panels, or None.  A PiecewisePower
    read as values is all pieces.  Otherwise an end of the support at 0 or
    infinity whose read edge record has an exact region is a piece, and the
    range stops at its bound; it stops there too, with no piece, where a
    derivative reads an exact constant, an exact zero.  The dilation by lam
    moves each piece by -degree ln lam, degree = d + n, less s for a
    derivative reading, and integrates the range at lam (_radial_norm).
    The base's edge records are read only where its support reaches 0 or
    infinity.

    A log window t^-m W(loglam ln t) is read by its window in x = e^v, v =
    loglam ln t: with K = d + n - m s its integral is 1 / loglam times
    that of x^(K/loglam - 1) |W(ln x)|^s over (1/e, e), with no seams or
    edges, its range at every dilation.  The log factor -|K|/loglam keeps
    the weight x^(K/loglam - 1) e^(-|K|/loglam) at most e at any rate, and
    log_area takes it back.
    """

    def __init__(self, base: RadialProfile, reading, d, s, n: int):
        if s <= 0:
            raise ValueError("norm exponent must be positive")
        self.base, self.reading = base, reading
        window = reading is _read_window
        lo, hi = self.support = (1.0 / math.e, math.e) if window else base.support
        self.breakpoints = () if window else base.breakpoints
        edges = base.edges() if lo == 0.0 or hi == math.inf else (None, None)
        edges = (edges[0] if lo == 0.0 else None, edges[1] if hi == math.inf else None)
        ends = edges if reading is _read_value else tuple(None if e is None else e.derivative() for e in edges)
        powers = [[] if end is None else [end.power] for end in ends]
        if isinstance(reading, _FirstHarmonicGradient):
            # as singular as the worse of f' and f/t, with no exact edge terms
            powers = [own + [edge.power - 1] if edge is not None else own for own, edge in zip(powers, edges)]
            ends = (None, None)
        # the relative error of |F|^s that the reading reports
        self.reading_error = getattr(reading, "error", 0.0)
        self.diverges_at_zero = lo == 0.0 and _diverges_at_zero(d, s, n, powers[0])
        self.diverges_at_inf = hi == math.inf and _diverges_at_inf(d, s, n, powers[1])
        self.wexp, self.sf, self.log_factor = float(d + n - 1), float(s), 0.0
        self.log_area = math.log(surface_area(n))
        self.degree = float(d + n - s if reading is _read_derivative else d + n)
        if window:
            k, rate = float(d + n - base.m * s), base.loglam
            self.wexp, self.log_factor = k / rate - 1.0, -abs(k) / rate
            self.log_area += abs(k) / rate - math.log(rate)
        # the reading at lam = 1, or why a closed piece failed
        self.pieces, self.range, self.failure = [], None, None
        if not (self.diverges_at_zero or self.diverges_at_inf):
            try:
                self._read_at_one(edges, ends)
            except QuadratureError as exc:  # a float exponent past the exact verdict
                self.failure = str(exc)

    def _read_at_one(self, edges, ends) -> None:
        """The pieces and the range of a convergent plan, from the base's
        edge records and the read ones (see the class docstring)."""
        base, reading, wexp, sf = self.base, self.reading, self.wexp, self.sf
        if reading is _read_value and isinstance(base, PiecewisePower):
            self.pieces = [_log_power_piece(coef, float(expo), None if lo == -math.inf else lo,
                                            None if hi == math.inf else hi, wexp, sf)
                           for coef, expo, lo, hi in base.pieces]
            return
        bounds = list(self.support)
        for end, (edge, read) in enumerate(zip(edges, ends)):
            if read is not None and read.exact is not None:
                log_exact = math.log(read.exact)
                log_bounds = (None, log_exact) if end == 0 else (log_exact, None)
                self.pieces.append(_log_power_piece(read.coef, float(read.power), *log_bounds, wexp, sf))
                bounds[end] = read.exact
            elif reading is _read_derivative and edge is not None and edge.exact is not None:
                bounds[end] = edge.exact  # the derivative of an exact constant
        if bounds[0] < bounds[1]:
            self.range = tuple(bounds)


def _view(profile: RadialProfile, reading) -> Tuple[RadialProfile, object, float]:
    """(base, reading, lam): profile, read by reading, is base read by
    reading at lam t (lam is 1 but for a ScaledProfile)."""
    if isinstance(profile, ScaledProfile):
        return profile.inner, reading, profile.lam
    return profile, reading, 1.0


def _plan(plans: dict, view, d, s, n: int) -> _NormPlan:
    """The plan of the norms || f ||_{d,s} on R^n of the view (base,
    reading, lam) of f, shared through plans by every norm of the same base
    object, reading and (d, s, n) values.  Each plan holds its base, so the
    base's id stays unique while the plans dict lives."""
    base, reading, _ = view
    key = (id(base), reading, d, s, n)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _NormPlan(base, reading, d, s, n)
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
    """The values of norm generators such as _norm, each of which yields a
    list of requests (view, wexp, s, log_factor, Integral) for the panel
    integrals it needs, if any, with view the (base, reading, lam) of its
    plan, and is sent their results: (value, error), or a QuadratureError,
    "panel sum overflowed" for a sum that is not finite.

    Every panel integral they ask for shares one session, the package's
    only one, ordered so that the rows of each (base, reading) are
    consecutive; equal requests, such as the lam = 1 integrals of the
    dilations of one log window, are integrated once.
    """
    out, waiting, asks = [], [], []
    for norm in norms:
        try:
            ask = next(norm)
        except StopIteration as done:
            out.append(done.value)
            continue
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
        if not isinstance(result, QuadratureError) and not math.isfinite(result[0]):
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

def _radial_norm(view, d, s, n: int, plans: dict):
    """The radial norm || F ||_{d,s} on R^n of the view (base, reading, lam)
    of F, as a generator for _session that asks for the panel integral of
    its plan's range, if any, and returns the norm: the plan's pieces, each
    moved by -degree ln lam, plus the range at lam, a window's at 1 and
    moved alike (_NormPlan).  A walk starts past every seam of the range."""
    plan, lam = _plan(plans, view, d, s, n), view[2]
    if plan.diverges_at_zero:
        return NormValue.divergent("non-integrable at zero")
    if plan.diverges_at_inf:
        return NormValue.divergent("non-integrable at infinity")
    if plan.failure is not None:
        return NormValue.failed(plan.failure)
    shift = plan.degree * math.log(lam)
    log_parts, rel_err = [piece - shift for piece in plan.pieces], 0.0
    if plan.range is not None:
        window = plan.reading is _read_window
        scale = 1.0 if window else lam
        lo, hi = (x / scale for x in plan.range)
        breakpoints = tuple(x / scale for x in plan.breakpoints)
        seams = [x for x in breakpoints if lo < x < hi]
        anchor_lo = min([0.5 if hi == math.inf else min(hi / 4.0, 1.0), *seams]) if lo == 0.0 else lo
        anchor_hi = max([2.0 if lo == 0.0 else max(lo * 4.0, 1.0), *seams]) if hi == math.inf else hi
        (result,) = yield [((plan.base, plan.reading, scale), plan.wexp, plan.sf, plan.log_factor, Integral(
            anchor_lo, anchor_hi, breakpoints, down=lo == 0.0, up=hi == math.inf))]
        if isinstance(result, QuadratureError):
            return NormValue.failed(str(result))
        middle, err = result
        rel_err = err / max(middle + sum(math.exp(x) for x in log_parts if x < 700), ABS_TOL)
        if middle > 0:
            log_parts.append(math.log(middle) - (shift if window else 0.0))
    log_integral = _logsumexp(log_parts)
    if log_integral == -math.inf:
        if plan.reading is _read_window:  # a window's integral is positive: its peak fell between the nodes
            return NormValue.failed("log-window integral underflowed")
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((plan.log_area + log_integral) / plan.sf, rel_err + plan.reading_error)


# the series tail allowed, relative to the least value of its sum, and the
# most terms it may take: enough for x up to about 0.998 at moderate d
MEAN_TOL = 1e-17
MEAN_TERMS = 10_000


def _mean_series(terms: _Terms, x: float, least: float):
    """(sum, relative error) of the series of terms at z = x^2, a weighted
    mean of M over [0, x], or None past MEAN_TERMS terms.

    It is cut where the tail bound (_Terms.tail) is at most MEAN_TOL of a
    floor of the sum: the partial sum while no term is negative, else
    least, the least value of M on [0, x].  The error is the tail over the
    floor plus 64 eps times the sum of the absolute terms over the sum."""
    z, total, absolute, power, positive = x * x, 1.0, 1.0, 1.0, True
    for k in range(1, MEAN_TERMS + 1):
        coef = terms[k]
        positive = positive and coef > 0.0
        tail = 0.0 if coef == 0.0 else terms.tail(k, z)  # 0: an up is a non-positive integer, a polynomial
        floor = total if positive else least
        if tail <= MEAN_TOL * floor:
            return total, tail / floor + 64 * np.finfo(float).eps * absolute / total
        power *= z
        total += coef * power
        absolute += abs(coef) * power
    return None


def _translated_norm(u: TestFunction, d: Fraction, s: Fraction, n: int, gradient: bool) -> NormValue:
    """|| u ||_{d,s} of a translated u, or || grad u ||_{d,s} when gradient,
    for u the ball bump f(t) = (1 - t^2)^2 dilated by lam, at distance R:
    R^d |S^(n-1)| times the integral of t^(n-1) |f(lam t)|^s M(t/R), lam^s
    |f'(lam t)|^s for gradient, with M(x) = 2F1(a, b; n/2; x^2), a = -d/2
    and b = 1 - n/2 - d/2, the mean of |e + x w|^d over w in S^(n-1)
    (Funk-Hecke; A&S 15.1.1 for the series).

    The moments of the bump are Beta integrals, so with y = (1/(lam R))^2
    the integral is lam^-n 1/2 B(n/2, 2s + 1) 2F1(a, b; n/2 + 2s + 1; y),
    and for gradient (4 lam)^s lam^-n 1/2 B(e, s + 1) 3F2(a, b, e; n/2, e +
    s + 1; y), e = (n + s)/2.  Each series is a weighted mean of M over [0,
    1/(lam R)], so it is at least 1 where |x|^d is subharmonic, d (d + n -
    2) >= 0, else the least of (1 +- x)^d (_mean_series).  Huge offsets
    and dilations stay in range through logs."""
    profile, offset = u.profile, u.offset
    lam = profile.lam if isinstance(profile, ScaledProfile) else 1.0
    if 1.0 / lam >= offset:
        raise ValueError("translated support must stay away from the origin")
    x, df, sf = 1.0 / (lam * offset), float(d), float(s)
    a, b = -df / 2.0, 1.0 - n / 2.0 - df / 2.0
    if gradient:
        e = (n + sf) / 2.0
        terms = _Terms((a, e, b), (n / 2.0, e + sf + 1.0))
        log_beta = math.lgamma(e) + math.lgamma(sf + 1.0) - math.lgamma(e + sf + 1.0) + sf * math.log(4.0 * lam)
    else:
        terms = _Terms((a, b), (n / 2.0 + 2.0 * sf + 1.0,))
        log_beta = math.lgamma(n / 2.0) + math.lgamma(2.0 * sf + 1.0) - math.lgamma(n / 2.0 + 2.0 * sf + 1.0)
    least = 1.0 if df * (df + n - 2) >= 0 else min((1.0 + x) ** df, (1.0 - x) ** df)
    series = _mean_series(terms, x, least)
    if series is None:
        return NormValue.failed(f"angular series needs more than {MEAN_TERMS} terms at x = {x:.6g}")
    total, error = series
    log_integral = (df * math.log(offset) + math.log(surface_area(n)) - n * math.log(lam) - math.log(2.0)
                    + log_beta + math.log(total))
    return NormValue.from_log(log_integral / sf, error)


def _norm(u: TestFunction, d: Fraction, s: Fraction, n: int, gradient: bool, plans: dict):
    """|| grad u ||_{d,s} when gradient, else || u ||_{d,s}, as a generator
    for _session, with the norm plans of its weighted_norms call."""
    if u.angular is Angular.TRANSLATED:
        return _translated_norm(u, d, s, n, gradient)
    harmonic = u.angular is Angular.FIRST_HARMONIC
    if harmonic and n < 2:
        raise ValueError("first harmonics need dimension >= 2")
    reading, correction, sf = _read_value, 0.0, float(s)
    if gradient:
        reading = _first_harmonic_gradient(n, sf) if harmonic else _read_derivative
    elif harmonic:
        # the function's angular moment in place of the sphere's area
        correction = (log_angular_moment(sf, n) - math.log(surface_area(n))) / sf
    base, reading, lam = _view(u.profile, reading)
    closed = base.derivative_profile if reading is _read_derivative else None
    if closed is not None:
        # || grad (f o lam) || = lam || f' o lam ||, with f' read as values
        base, reading, correction = closed, _read_value, math.log(lam)
    if reading is _read_value and isinstance(base, LogModulated):
        reading = _read_window
    norm = yield from _radial_norm((base, reading, lam), d, s, n, plans)
    if correction == 0.0 or not norm.finite:
        return norm
    return NormValue.from_log(norm.log_value + correction, norm.error)


def weighted_norms(norms, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """The norm of each (u, d, s, n, gradient) of norms: || grad u ||_{d,s}
    when gradient, else || u ||_{d,s}.  Every panel integral among them
    shares one session, and the radial norms of one base profile, reading
    and (d, s, n) one norm plan, whatever their dilations; a translated
    norm is a closed-form series and asks for no panel integral."""
    plans = {}
    return _session([_norm(u, d, s, n, gradient, plans) for u, d, s, n, gradient in norms], cfg)


def weighted_norm(
    u: TestFunction,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """|| u ||_{d,s} for any catalog test function."""
    return weighted_norms([(u, d, s, n, False)], cfg)[0]


def weighted_norm_gradient(
    u: TestFunction,
    b: Fraction,
    p: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """|| grad u ||_{b,p} (for radial u this is the radial-derivative norm)."""
    return weighted_norms([(u, b, p, n, True)], cfg)[0]
