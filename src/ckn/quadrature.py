"""Weighted norms of the test-function catalog.

The radial workhorse computes

    || f ||_{d,s}  =  ( N omega_N  *  integral t^{d+N-1} |f(t)|^s dt )^{1/s}

over (0, infinity) by geometric panels [2^k, 2^(k+1)] with adaptive
Gauss-Legendre inside each panel; panels split at the profile's seam
points.  Singular ends are handled in three tiers:

  1. Divergence is certified, never guessed: the exact power pi of the
     profile's edge record at the singular end decides d + N + s*pi <= 0
     (at zero) or >= 0 (at infinity) in rational arithmetic.  Quadrature
     growth is only a cross-check.
  2. Where the edge record declares f exactly a power C t^m (cutoff
     plateaus, indicator pieces, truncated-primitive tails), the
     contribution is a closed-form integral evaluated in log space; this
     is what keeps near-critical tails (exponent -1-epsilon) accurate
     without millions of panels.
  3. Otherwise panels extend toward the singular end until their
     contribution falls below the relative tolerance; failure to converge
     within the panel budget is an explicit error, never a silent value.

One integrator serves every panel path: a session of `panels.integrate`,
which bisects the pending panels of all its integrals breadth first, one
integrand call per depth, and walks them toward 0 and infinity in
lockstep blocks, each integral with its own tests, walks and budget.
Every radial panel integral of a `weighted_norms` call shares one
session, so the norms of a whole `verify` instance (8 members x 5 scales
x 3 norms) take about 15 integrand calls instead of about 600.  Its
integrand reads a
dilated profile f(lam t) or its gradient view lam f'(lam t) as
base.value(lam t) or lam base.derivative(lam t), one profile call per
base and run of points.

Divergence certificates and closed forms settle their norms before the
session, from a norm plan (`_NormPlan`) per (base profile, value or
derivative, d, s, N) of the call: dilation changes no power of an edge
record, so the exact verdicts, the closed-form branch, the base's edge
records and the float constants are decided once for all dilations of a
member.  A dilated norm then only scales support, seams and exact edge
terms by lam, in floats; it is still integrated, never inferred from the
scaling law.  A caller may keep the plans across calls: a `falsify` walk
keeps one dict for all its members.

Translated profiles f(|x - x0|), |x0| = R, reduce to one radial integral
around the translation point,

    R^d |S^{N-1}|  integral t^{N-1} |f(t)|^s M(t/R) dt,

where M(x) = 2F1(-d/2, 1 - N/2 - d/2; N/2; x^2) is the mean of the weight
|e + x w|^d over w in S^{N-1} (Funk-Hecke; A&S 15.1.1 for the series),
and the gradient norm has the same form with f'.  The series
M = sum_k c_k x^(2k) is cut once per norm, from x_max = hi/R, where its
tail is below 1e-17 of M.  A series of at most MOMENT_TERMS terms, as
every witness member needs, makes the integral the sum

    sum_k c_k (lam R)^(-2k) mu_k,   mu_k = integral t^(N-1+2k) |f(t)|^s dt,

for f the dilation by lam of a base profile: the moments mu_k of the base
depend only on the base, value or derivative, s and N, so they fill a
table of its d = 0 norm plan, integrated once and shared by every d,
offset and dilation (a dilation scales them by lam^-(N+2k), times lam^s
for f').  A longer series, needed only near the sphere, adds log M to the
exponent of the integrand at each point instead; sessions without such
norms never evaluate it.  Huge offsets stay in range through R^d, which
is carried in log space.  Near t = 0 the weight is R^d M(0) = R^d, so
divergence there is certified as for a radial norm with d = 0, from the
edge record of f, or of f' for the gradient.

First-harmonic functions u = f(t) x1/|x| reduce to one radial integral
times a closed-form angular moment (for the function) and to a 2D
(t, angle) integral for the gradient, using |grad u|^2 = f'(t)^2 cos^2 +
(f/t)^2 sin^2 of the polar angle.  That 2D integrand gets a session of
its own and is evaluated in slices of 256 points, which bounds its
matrices.

Norm values are carried with their logarithm so that ratio probes remain
meaningful when a norm overflows or underflows the double range.

All decision logic stays upstream and exact; this module only corroborates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .panels import DEFAULT_CONFIG, Integral, QuadratureConfig, QuadratureError, gauss_legendre, integrate
from .profiles import DerivView, LogModulated, PiecewisePower, RadialProfile, ScaledProfile
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


def sub_sphere_area(n: int) -> float:
    """|S^{n-2}| for n >= 2 (equals 2 when n = 2)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)


def log_angular_moment(s: float, n: int) -> float:
    """log of the integral of |sigma_1|^s over the unit sphere S^{n-1}."""
    if n == 1:
        return math.log(2.0)
    # |S^{n-2}| * B((s+1)/2, (n-1)/2)
    return (
        math.log(sub_sphere_area(n))
        + math.lgamma((s + 1.0) / 2.0)
        + math.lgamma((n - 1.0) / 2.0)
        - math.lgamma((s + n) / 2.0)
    )


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


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x < 0, keeping its digits when x is near 0 (a narrow band)."""
    return math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


# ---------------------------------------------------------------------------
# the spherical mean of the weight around a translation point
# ---------------------------------------------------------------------------

# the series tail allowed, relative to M, and the most terms it may take:
# enough for x_max up to about 0.998 at moderate d
MEAN_TOL = 1e-17
MEAN_TERMS = 10_000
# the longest series a translated norm sums over moment tables; witness
# members (x_max <= 1/16) need at most about 12 terms, while x_max = 0.99
# needs thousands, one moment integral each
MOMENT_TERMS = 16


@dataclass(frozen=True)
class SphericalMean:
    """M(x), the mean of |e + x w|^d over w in S^{n-1} (|e| = 1), as the
    first terms of its series in x^2, for 0 <= x <= x_max < 1:

        M(x) = 2F1(-d/2, 1 - n/2 - d/2; n/2; x^2) = sum_k coefs[k] x^(2k)

    error bounds the dropped tail relative to M(x) on all of [0, x_max].
    """

    coefs: np.ndarray
    error: float

    @classmethod
    def series(cls, n: int, d, x_max: float) -> Optional["SphericalMean"]:
        """The shortest series whose tail is at most MEAN_TOL of M on [0, x_max],
        or None if that takes more than MEAN_TERMS terms.

        Past K >= max(-a, -b) the term ratio (a+k)(b+k)/((c+k)(k+1)) z has
        both factors monotone in k, so rho = z max(1, (K+a)/(K+c))
        max(1, (K+b)/(K+1)) bounds it, and the tail from term K is at most
        |term K| / (1 - rho).  Every term grows with x.  When no term is
        negative, M is at least its partial sum, and the tail's share of M
        grows with x, so the share at x_max bounds it; otherwise M is at
        least 1 where |y|^d is subharmonic, d (d + n - 2) >= 0, else at
        least its least value on the sphere.
        """
        d = float(d)
        a, b, c, z = -d / 2.0, 1.0 - n / 2.0 - d / 2.0, n / 2.0, x_max * x_max
        least = 1.0 if d * (d + n - 2) >= 0 else min((1.0 + x_max) ** d, (1.0 - x_max) ** d)
        coefs, head, positive = [1.0], 1.0, True  # head: the partial sum at x_max
        for k in range(1, MEAN_TERMS + 1):
            coef = coefs[-1] * (a + k - 1) * (b + k - 1) / ((c + k - 1) * k)
            if coef == 0.0:  # a or b a non-positive integer: M is a polynomial
                return cls(np.array(coefs), 0.0)
            positive = positive and coef > 0.0
            if k >= -a and k >= -b:
                rho = z * max(1.0, (k + a) / (k + c)) * max(1.0, (k + b) / (k + 1))
                tail = abs(coef) * z**k / (1.0 - rho) if rho < 1.0 else math.inf
                floor = head if positive else least
                if tail <= MEAN_TOL * floor:
                    return cls(np.array(coefs), tail / floor)
            coefs.append(coef)
            head += coef * z**k
        return None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """M(x) by Horner's rule in x^2."""
        z = x * x
        out = np.full_like(z, self.coefs[-1])
        for coef in self.coefs[-2::-1]:
            out *= z
            out += coef
        return out


# ---------------------------------------------------------------------------
# exact divergence tests
# ---------------------------------------------------------------------------

def _powers(*shifted) -> list:
    """Powers of the declared edges among (edge, shift) pairs, shifted."""
    return [edge.power + shift for edge, shift in shifted if edge is not None]


def _diverges_at_zero(d, s, n, powers) -> bool:
    return any(d + n + s * power <= 0 for power in powers)


def _diverges_at_inf(d, s, n, powers) -> bool:
    return any(d + n + s * power >= 0 for power in powers)


# ---------------------------------------------------------------------------
# norm plans: what the dilations of one member share
# ---------------------------------------------------------------------------

class _NormPlan:
    """What the norms || f ||_{d,s} on R^n of every dilation of one base
    profile share, read as values f(t) = base(lam t) or as derivatives
    f(t) = lam base'(lam t): dilation moves support, seams, coefficients
    and exact regions, but no end of the support to or from 0 or infinity
    and no power of an edge record.

    So the plan holds the exact divergence verdicts, the closed-form
    branch, the base's support, seams and exact edge terms, and the float
    constants; a dilated norm does float work only.  The base's edge
    records are read only where its support reaches 0 or infinity.  The
    d = 0 plan of a translated norm also holds the moment table of the
    base (`moment_table`).

    The plan holds its base and its d and s, the objects whose ids key it
    in a plans dict (`_plan`), so that no other object takes one of those
    ids while the dict lives.
    """

    def __init__(self, base: RadialProfile, derivative: bool, d, s, n: int):
        if s <= 0:
            raise ValueError("norm exponent must be positive")
        self.base, self.derivative, self.d, self.s = base, derivative, d, s
        lo, hi = self.support = base.support
        self.breakpoints = base.breakpoints
        edges = base.edges() if lo == 0.0 or hi == math.inf else (None, None)
        ends = tuple(None if e is None else e.derivative() for e in edges) if derivative else edges
        powers = [[] if end is None else [end.power] for end in ends]
        self.diverges_at_zero = lo == 0.0 and _diverges_at_zero(d, s, n, powers[0])
        self.diverges_at_inf = hi == math.inf and _diverges_at_inf(d, s, n, powers[1])
        # (coef, power, power read, exact) of each base edge whose read edge
        # has an exact region: the read edge of a dilation is the base edge
        # dilated, then derived when derivative, as Edge.dilated and
        # Edge.derivative make it
        self.terms = [None if end is None or end.exact is None
                      else (edge.coef, float(edge.power), float(end.power), edge.exact)
                      for edge, end in zip(edges, ends)]
        self.wexp, self.sf = float(d + n - 1), float(s)
        self.log_area = math.log(surface_area(n))
        # (mu_k, panel error) of the moments integrated so far
        self.moments = []
        # the closed form of the base read as values, used when the norm's
        # profile is the base itself
        self.closed = None
        if not derivative and isinstance(base, PiecewisePower):
            self.closed = lambda cfg: _piecewise_log_integral(base, self.wexp, self.sf)
        elif not derivative and isinstance(base, LogModulated):
            self.closed = lambda cfg: _log_modulated_log_integral(base, d, s, n, cfg)

    def term(self, end: int, lam: float) -> Optional[Tuple[float, float, float]]:
        """(coef, power, exact) of the exact region at end (0 at zero, 1 at
        infinity) of the dilation by lam, or None."""
        if self.terms[end] is None:
            return None
        coef, power, read, exact = self.terms[end]
        coef = coef * lam ** power
        return (coef * power if self.derivative else coef), read, exact / lam

    def moment_table(self, count: int, cfg: QuadratureConfig):
        """The first count moments mu_k = integral t^(wexp+2k) |f(t)|^s dt
        of the base read as values or derivatives (f = base or base'), as
        (value, panel error) pairs, or the QuadratureError that stopped the
        table short of count.  A short table is extended by one session
        that integrates all its missing moments; a moment whose sum is not
        finite stops it as "panel sum overflowed"."""
        have = len(self.moments)
        if have < count:
            lo, hi = self.support
            integral = Integral(lo if lo > 0 else hi / 512.0, hi, self.breakpoints, down=lo == 0.0)
            more = count - have
            g = _radial_integrand([(self.base, self.derivative, 1.0)] * more, [0] * more,
                                  [self.wexp + 2.0 * k for k in range(have, count)], [self.sf] * more,
                                  [None] * more)
            for result in integrate(g, [integral] * more, cfg):
                if not isinstance(result, QuadratureError) and not math.isfinite(result[0]):
                    result = QuadratureError("panel sum overflowed")
                if isinstance(result, QuadratureError):
                    return result
                self.moments.append(result)
        return self.moments[:count]


def _plan(plans: dict, profile: RadialProfile, d, s, n: int) -> Tuple[_NormPlan, float]:
    """(plan, lam) of the norm || profile ||_{d,s} on R^n, the plan shared
    through plans by every norm of the same base, reading and (d, s, n)
    objects.  Keys are identities: no Fraction is hashed per norm.  Each
    plan holds the objects of its key, so a plans dict may serve many
    weighted_norms calls, as one falsify walk does, and its keys stay
    unique while it lives; it must serve one QuadratureConfig, which fills
    its moment tables."""
    base, derivative, lam = _dilation(profile)
    key = (id(base), derivative, id(d), id(s), n)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _NormPlan(base, derivative, d, s, n)
    return plan, lam


# ---------------------------------------------------------------------------
# integrands of the panel sessions
# ---------------------------------------------------------------------------

# points per evaluation of a 2-D integrand, whose points x angles matrices
# would otherwise grow with the chunks of the integrator
_SLICE = 256


def _sliced(g):
    """The integrand g(t) of a one-integral session, evaluated at most
    _SLICE points at a time."""
    return lambda t, _owner: np.concatenate([g(t[i:i + _SLICE]) for i in range(0, t.size, _SLICE)])


def _dilation(profile: RadialProfile) -> Tuple[RadialProfile, bool, float]:
    """(base, derivative, lam): the values of profile are base.value(lam t),
    or lam base.derivative(lam t) when derivative, as ScaledProfile and
    DerivView compute them."""
    derivative = isinstance(profile, DerivView)
    if derivative:
        profile = profile.base
    if isinstance(profile, ScaledProfile):
        return profile.inner, derivative, profile.lam
    return profile, derivative, 1.0


def _radial_integrand(views, group, wexp, s, angular):
    """The integrand t^wexp[i] |f_i(t)|^s[i] M_i(t/R_i) of integral i, where
    views[i] = _dilation(f_i), group[i] numbers the (base profile, value
    or derivative) that f_i reads, and angular[i] is the (SphericalMean
    M_i, offset R_i) of a translated norm, or None for M_i = 1.

    Each call reads each group once per run of consecutive rows in it; the
    per-row parameters are repeated per point, so that all arithmetic is on
    flat arrays, and a call whose rows all belong to one integral uses its
    parameters as scalars.  log M_i joins the exponent, once per run of
    rows of a translated integral; a session without one never looks.
    """
    group, table = np.array(group), np.array([[view[2] for view in views], wexp, s])
    translated = any(angular)

    def g(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        i = owner[0]
        if i == owner[-1]:  # rows come in order of owner: all of integral i
            base, derivative, scale = views[i]
            wexp, s = table[1, i], table[2, i]
            x = t * scale
            fv = scale * base.derivative(x) if derivative else base.value(x)
        else:
            per_row = t.size // owner.size
            runs, (scale, wexp, s) = group[owner], table[:, owner].repeat(per_row, axis=1)
            x, fv = t * scale, np.empty_like(t)
            cuts = [0, *((runs[1:] != runs[:-1]).nonzero()[0] + 1).tolist(), owner.size]
            for a, b in zip(cuts, cuts[1:]):
                base, derivative, _ = views[owner[a]]
                points = slice(a * per_row, b * per_row)
                fv[points] = scale[points] * base.derivative(x[points]) if derivative else base.value(x[points])
        fv = np.abs(fv)
        # 0 where f vanishes (or is nan)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            exponent = wexp * np.log(t) + s * np.log(fv)
            if translated:
                _add_log_means(exponent, t, owner, angular)
            return np.where(fv > 0, np.exp(exponent), 0.0)

    return g


def _add_log_means(exponent: np.ndarray, t: np.ndarray, owner: np.ndarray, angular) -> None:
    """Add log M_i(t/R_i) to the exponent at the rows of each translated
    integral i among owner."""
    per_row = t.size // owner.size
    cuts = [0, *((owner[1:] != owner[:-1]).nonzero()[0] + 1).tolist(), owner.size]
    for a, b in zip(cuts, cuts[1:]):
        if angular[owner[a]] is not None:
            mean, offset = angular[owner[a]]
            points = slice(a * per_row, b * per_row)
            exponent[points] += np.log(mean(t[points] / offset))


def _session(norms, cfg: QuadratureConfig) -> list:
    """The values of norm generators such as _radial_norm, _translated_norm
    and _norm, each of which yields (view, wexp, s, Integral, angular) for
    the panel integral it needs, if any, with view the (base, derivative,
    lam) of _dilation, and is sent its (value, error) or thrown its
    QuadratureError.

    Every panel integral they ask for shares one session, ordered so that
    the rows of each (base profile, value or derivative) are consecutive.
    """
    out, waiting = [], []
    for norm in norms:
        try:
            waiting.append((len(out), norm, next(norm)))
            out.append(None)
        except StopIteration as done:
            out.append(done.value)
    if not waiting:
        return out
    views = [ask[0] for _, _, ask in waiting]
    keys = {}
    group = [keys.setdefault((id(base), derivative), len(keys)) for base, derivative, _ in views]
    order = sorted(range(len(waiting)), key=group.__getitem__)
    _, wexp, s, integrals, angular = zip(*(waiting[k][2] for k in order))
    g = _radial_integrand([views[k] for k in order], [group[k] for k in order], wexp, s, angular)
    for k, result in zip(order, integrate(g, integrals, cfg)):
        i, norm, _ = waiting[k]
        try:
            (norm.throw if isinstance(result, QuadratureError) else norm.send)(result)
        except StopIteration as done:
            out[i] = done.value
    return out


def _radial_log_integral(plan: _NormPlan, lam: float, lo: float, hi: float, cfg: QuadratureConfig):
    """log of the integral of t^wexp |f(t)|^s over the support (lo, hi) of
    the dilation by lam that plan reads, as a generator: it yields
    ((base, derivative, lam), wexp, s, Integral, None) for the panel
    integral it needs and is sent that integral's (value, error).

    Divergence must have been excluded by the caller.  Returns
    (log_integral, relative error estimate).
    """
    if hi <= lo:
        return -math.inf, 0.0

    wexp, s = plan.wexp, plan.sf
    log_parts = []
    lo_eff, hi_eff = lo, hi
    head = plan.term(0, lam) if lo == 0.0 else None
    if head is not None:
        coef, power, exact = head
        log_parts.append(_log_power_piece(coef, power, None, math.log(exact), wexp, s))
        lo_eff = exact
    tail = plan.term(1, lam) if hi == math.inf else None
    if tail is not None:
        coef, power, exact = tail
        log_parts.append(_log_power_piece(coef, power, math.log(exact), None, wexp, s))
        hi_eff = exact

    if hi_eff < lo_eff:
        # exact regions overlap the whole support
        return _logsumexp(log_parts), 0.0

    breakpoints = tuple(x / lam for x in plan.breakpoints)
    hint = sum(math.exp(x) for x in log_parts if x < 700)
    anchor_lo = lo_eff if lo_eff > 0 else None
    anchor_hi = hi_eff if hi_eff < math.inf else None
    if anchor_lo is None and anchor_hi is None:
        anchor_lo, anchor_hi = 0.5, 2.0
        for b in breakpoints:
            if math.isfinite(b) and b > 0:
                anchor_lo = min(anchor_lo, b)
                anchor_hi = max(anchor_hi, b)
    elif anchor_lo is None:
        anchor_lo = min(anchor_hi / 4.0, 1.0)
    elif anchor_hi is None:
        anchor_hi = max(anchor_lo * 4.0, 1.0)

    middle, err = yield (plan.base, plan.derivative, lam), wexp, s, Integral(
        anchor_lo, anchor_hi, breakpoints, down=lo_eff == 0.0, up=hi_eff == math.inf, hint=hint), None
    if not math.isfinite(middle):
        raise QuadratureError("panel sum overflowed")
    if middle > 0:
        log_parts.append(math.log(middle))
    total_log = _logsumexp(log_parts)
    rel_err = err / max(middle + hint, cfg.abs_tol)
    return total_log, rel_err


# ---------------------------------------------------------------------------
# special exact paths
# ---------------------------------------------------------------------------

def _log_power_piece(coef: float, expo: float, log_lo, log_hi, wexp: float, s: float) -> float:
    """log of the integral of t^wexp |coef t^expo|^s over (lo, hi), bounds
    as in log_power_integral."""
    if coef == 0.0:
        return -math.inf
    return s * math.log(abs(coef)) + log_power_integral(wexp + s * expo, log_lo, log_hi)


def _piecewise_log_integral(profile: PiecewisePower, wexp: float, s: float) -> float:
    """Closed-form log integral for piecewise powers; exact in log space."""
    return _logsumexp(
        _log_power_piece(coef, float(expo), None if lo == -math.inf else lo,
                         None if hi == math.inf else hi, wexp, s)
        for coef, expo, lo, hi in profile.pieces
    )


def _log_modulated_log_integral(profile: LogModulated, d: Fraction, s: Fraction, n: int, cfg) -> float:
    """Exact log-variable reduction for log-window profiles.

    With K = d + n - m s the integral equals
    P^s e^{-shift K} / loglam * integral over (-1,1) of e^{v K / loglam} |W(v)|^s dv.
    """
    kf = float(d + n - profile.m * s)
    sf = float(s)
    lam = profile.loglam
    # 32-panel composite GL in v, all panels in one window call, with the
    # exponential weight and each panel's sum handled in log space
    x, w = gauss_legendre(cfg.gauss_nodes)
    edges = np.linspace(-1.0, 1.0, 33)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    v = mid[:, None] + half[:, None] * x
    wv = np.abs(profile.window_values(v.ravel())).reshape(v.shape)
    live = np.any(wv > 0, axis=1)
    if not np.any(live):
        return -math.inf
    v, wv, half = v[live], wv[live], half[live]
    with np.errstate(divide="ignore"):
        terms = kf * v / lam + sf * np.log(wv) + np.log(half[:, None] * w)
    m = np.max(terms, axis=1)
    logs = m + np.log(np.sum(np.exp(terms - m[:, None]), axis=1))
    log_v_integral = _logsumexp(logs.tolist())
    return sf * math.log(abs(profile.prefactor)) - profile.shift * kf - math.log(lam) + log_v_integral


# ---------------------------------------------------------------------------
# public norms
# ---------------------------------------------------------------------------

def _radial_norm(profile: RadialProfile, plan: _NormPlan, lam: float, cfg: QuadratureConfig):
    """weighted_norm_radial of profile, the dilation by lam that plan
    reads, as a generator for _session: it yields what
    _radial_log_integral yields, if anything, and returns the norm."""
    lo, hi = plan.support
    lo, hi = lo / lam, hi / lam
    if lo == 0.0 and plan.diverges_at_zero:
        return NormValue.divergent("non-integrable at zero")
    if hi == math.inf and plan.diverges_at_inf:
        return NormValue.divergent("non-integrable at infinity")

    try:
        if plan.closed is not None and profile is plan.base:
            log_integral, rel_err = plan.closed(cfg), 0.0
        else:
            log_integral, rel_err = yield from _radial_log_integral(plan, lam, lo, hi, cfg)
    except QuadratureError as exc:
        return NormValue.failed(str(exc))

    if log_integral == -math.inf:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((plan.log_area + log_integral) / plan.sf, rel_err)


def weighted_norm_radial(
    profile: RadialProfile,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """(N omega_N integral t^{d+n-1} |f|^s dt)^{1/s} with divergence status."""
    return _session([_radial_norm(profile, *_plan({}, profile, d, s, n), cfg)], cfg)[0]


def _panel_lognorm(log_prefactor: float, s: float, cfg: QuadratureConfig, g, integral: Integral) -> NormValue:
    """(prefactor * integral of g)^(1/s), the integral by a session of its own."""
    result = integrate(g, [integral], cfg)[0]
    if isinstance(result, QuadratureError):
        return NormValue.failed(str(result))
    total, err = result
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((log_prefactor + math.log(total)) / s, err / max(total, cfg.abs_tol))


def _first_harmonic_gradient_lognorm(
    profile: RadialProfile, b: Fraction, p: Fraction, n: int, cfg: QuadratureConfig
) -> NormValue:
    """2D (t, polar angle) reduction of the gradient norm of f(t) sigma_1."""
    if n < 2:
        raise ValueError("first harmonics need dimension >= 2")

    lo, hi = profile.support
    # |grad u| is as singular as the worse of f' and f/t at each end
    (g_zero, g_inf), (f_zero, f_inf) = profile.deriv_edges(), profile.edges()
    if lo == 0.0 and _diverges_at_zero(b, p, n, _powers((g_zero, 0), (f_zero, -1))):
        return NormValue.divergent("gradient non-integrable at zero")
    if hi == math.inf and _diverges_at_inf(b, p, n, _powers((g_inf, 0), (f_inf, -1))):
        return NormValue.divergent("gradient non-integrable at infinity")

    pf = float(p)
    wexp = float(b + n - 1)
    # GL nodes of the polar angle on (0, pi), with weights times sin^(n-2)
    psi, angular_weight = gauss_legendre(cfg.angular_nodes)
    psi = 0.5 * math.pi * (psi + 1.0)
    angular_weight = 0.5 * math.pi * angular_weight * np.sin(psi) ** (n - 2)
    cos2 = np.cos(psi) ** 2
    sin2 = np.sin(psi) ** 2

    @_sliced
    def g(t: np.ndarray) -> np.ndarray:
        # f' and f/t are scaled by m = max(|f'|, |f/t|) before they are
        # squared, so the squares neither overflow nor underflow; p log m
        # is added back in log space
        fp, ft = profile.derivative(t), profile.value(t) / t
        m = np.maximum(np.abs(fp), np.abs(ft))
        out = np.zeros_like(t)
        live = m > 0
        if np.any(live):
            m, t = m[live], t[live]
            mag = (fp[live] / m)[:, None] ** 2 * cos2
            mag += (ft[live] / m)[:, None] ** 2 * sin2
            ang = np.power(mag, pf / 2.0, out=mag) @ angular_weight
            with np.errstate(over="ignore"):
                out[live] = np.exp(wexp * np.log(t) + pf * np.log(m) + np.log(ang))
        return out

    anchor_lo = lo if lo > 0 else min(1.0, *(x for x in (*profile.breakpoints, hi, 1.0) if 0 < x < math.inf))
    anchor_hi = hi if hi < math.inf else max(1.0, anchor_lo * 4.0, *(x for x in profile.breakpoints if x < math.inf))
    return _panel_lognorm(math.log(sub_sphere_area(n)), pf, cfg, g, Integral(
        anchor_lo, anchor_hi, profile.breakpoints, down=lo == 0.0, up=hi == math.inf))


def _translated_norm(u: TestFunction, d: Fraction, s: Fraction, n: int, gradient: bool,
                     cfg: QuadratureConfig, plans: dict):
    """|| u ||_{d,s} of a translated u, or || grad u ||_{d,s} when gradient,
    as a generator for _session: R^d |S^{n-1}| times the integral of
    t^(n-1) |f(t)|^s M(t/R), f' for gradient, with R the offset and M the
    SphericalMean of |x|^d around it.

    With f the dilation by lam of a base, M = sum_k c_k x^(2k) of K <=
    MOMENT_TERMS terms and y = (lam R)^-2, the integral is lam^(s - n) for
    gradient, lam^-n else, times sum_k c_k y^k mu_k over the moment table
    of the base (_NormPlan.moment_table), and the norm yields nothing; its
    error is sum_k |c_k| y^k err_k over that sum, which also covers
    cancellation between terms of both signs, plus the series bound.  A
    longer series yields the panel integral of t^(n-1) |f|^s M(t/R).

    Near t = 0 the weight is R^d M(0) = R^d, so the integral diverges
    there exactly when the unweighted radial one does: its plan is the
    radial plan of d = 0."""
    profile, offset = u.profile, u.offset
    plan, lam = _plan(plans, DerivView(profile) if gradient else profile, 0, s, n)
    lo, hi = plan.support
    lo, hi = lo / lam, hi / lam
    if hi >= offset:
        raise ValueError("translated support must stay away from the origin")
    if lo == 0.0 and plan.diverges_at_zero:
        return NormValue.divergent("non-integrable at zero")
    mean = SphericalMean.series(n, d, hi / offset)
    if mean is None:
        return NormValue.failed(f"angular series needs more than {MEAN_TERMS} terms at x = {hi / offset:.6g}")
    log_prefactor = float(d) * math.log(offset) + plan.log_area
    if mean.coefs.size <= MOMENT_TERMS:
        moments = plan.moment_table(mean.coefs.size, cfg)
        if isinstance(moments, QuadratureError):
            return NormValue.failed(str(moments))
        y = (1.0 / (lam * offset)) ** 2
        total = err = 0.0
        power = 1.0  # y^k
        for coef, (moment, moment_err) in zip(mean.coefs.tolist(), moments):
            total += coef * power * moment
            err += abs(coef) * power * moment_err
            power *= y
        log_prefactor += ((plan.sf if gradient else 0.0) - n) * math.log(lam)
    else:
        try:
            total, err = yield (plan.base, plan.derivative, lam), plan.wexp, plan.sf, Integral(
                lo if lo > 0 else hi / 512.0, hi, tuple(x / lam for x in plan.breakpoints),
                down=lo == 0.0), (mean, offset)
        except QuadratureError as exc:
            return NormValue.failed(str(exc))
        if not math.isfinite(total):
            return NormValue.failed("panel sum overflowed")
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((log_prefactor + math.log(total)) / plan.sf,
                              err / max(total, cfg.abs_tol) + mean.error)


def _norm(u: TestFunction, d: Fraction, s: Fraction, n: int, gradient: bool, cfg: QuadratureConfig,
          plans: dict):
    """|| grad u ||_{d,s} when gradient, else || u ||_{d,s}, as a generator
    for _session, with the norm plans of its weighted_norms call; the
    first-harmonic gradient goes through weighted_norm_gradient and yields
    nothing."""
    if u.angular is Angular.RADIAL:
        profile = u.profile.derivative_profile() if gradient else u.profile
        return (yield from _radial_norm(profile, *_plan(plans, profile, d, s, n), cfg))
    if u.angular is Angular.TRANSLATED:
        return (yield from _translated_norm(u, d, s, n, gradient, cfg, plans))
    if gradient:
        return weighted_norm_gradient(u, d, s, n, cfg)
    if n < 2:
        raise ValueError("first harmonics need dimension >= 2")
    plan, lam = _plan(plans, u.profile, d, s, n)
    base = yield from _radial_norm(u.profile, plan, lam, cfg)
    if not base.finite:
        return base
    correction = (log_angular_moment(plan.sf, n) - plan.log_area) / plan.sf
    return NormValue.from_log(base.log_value + correction, base.error)


def weighted_norms(norms, cfg: QuadratureConfig = DEFAULT_CONFIG, plans: Optional[dict] = None) -> list:
    """The norm of each (u, d, s, n, gradient) of norms: || grad u ||_{d,s}
    when gradient, else || u ||_{d,s}.  Every panel integral among them
    shares one session, and the norms of one base profile and (d, s, n)
    one norm plan, whatever their dilations; first-harmonic gradients,
    the one 2-D norm, are computed one at a time.

    plans, if given, holds the norm plans across calls, all with this cfg:
    a caller that asks for the norms of many members of one base, such as
    the translated witness members of a falsify walk, then decides its
    exact facts and integrates its moment tables once (see _plan)."""
    plans = {} if plans is None else plans
    return _session([_norm(u, d, s, n, gradient, cfg, plans) for u, d, s, n, gradient in norms], cfg)


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
    if u.angular is Angular.FIRST_HARMONIC:
        return _first_harmonic_gradient_lognorm(u.profile, b, p, n, cfg)
    return weighted_norms([(u, b, p, n, True)], cfg)[0]
