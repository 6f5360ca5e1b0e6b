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
integrand reads a dilated profile f(lam t) or its gradient view
lam f'(lam t) as base.value(lam t) or lam base.derivative(lam t), one
profile call per base and run of points.  Divergence certificates and
closed forms settle their norms before the session, one norm at a time.
The 2-D integrands below get a session each and are evaluated in slices
of 256 points, which bounds their matrices.

First-harmonic functions u = f(t) x1/|x| reduce to one radial integral
times a closed-form angular moment (for the function) and to a 2D
(t, angle) integral for the gradient, using |grad u|^2 = f'(t)^2 cos^2 +
(f/t)^2 sin^2 of the polar angle.  Translated profiles reduce to a 2D
integral over (t, angle) around the translation point, with the weight
factored as R^d (1 + (t/R)^2 + 2 (t/R) cos)^{d/2} so that huge offsets
stay in floating-point range.

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


def _radial_integrand(views, group, wexp, s):
    """The integrand t^wexp[i] |f_i(t)|^s[i] of integral i, where
    views[i] = _dilation(f_i) and group[i] numbers the (base profile, value
    or derivative) that f_i reads.

    Each call reads each group once per run of consecutive rows in it; the
    per-row parameters are repeated per point, so that all arithmetic is on
    flat arrays, and a call whose rows all belong to one integral uses its
    parameters as scalars.
    """
    group, table = np.array(group), np.array([[view[2] for view in views], wexp, s])

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
            return np.where(fv > 0, np.exp(wexp * np.log(t) + s * np.log(fv)), 0.0)

    return g


def _session(norms, cfg: QuadratureConfig) -> list:
    """The values of the norm generators of _radial_norm and _norm.

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
    views = [_dilation(ask[0]) for _, _, ask in waiting]
    keys = {}
    group = [keys.setdefault((id(base), derivative), len(keys)) for base, derivative, _ in views]
    order = sorted(range(len(waiting)), key=group.__getitem__)
    _, wexp, s, integrals = zip(*(waiting[k][2] for k in order))
    g = _radial_integrand([views[k] for k in order], [group[k] for k in order], wexp, s)
    for k, result in zip(order, integrate(g, integrals, cfg)):
        i, norm, _ = waiting[k]
        try:
            (norm.throw if isinstance(result, QuadratureError) else norm.send)(result)
        except StopIteration as done:
            out[i] = done.value
    return out


def _radial_log_integral(profile: RadialProfile, head, tail, wexp: float, s: float, cfg: QuadratureConfig):
    """log of the integral of t^wexp |f(t)|^s over the profile support, as
    a generator: it yields (profile, wexp, s, Integral) for the panel
    integral it needs and is sent that integral's (value, error).

    Divergence must have been excluded by the caller.  Returns
    (log_integral, relative error estimate).
    """
    lo, hi = profile.support
    if hi <= lo:
        return -math.inf, 0.0

    log_parts = []
    lo_eff, hi_eff = lo, hi
    if head is not None and head.exact is not None and lo == 0.0:
        log_parts.append(_log_power_piece(head.coef, head.power, None, math.log(head.exact), wexp, s))
        lo_eff = head.exact
    if tail is not None and tail.exact is not None and hi == math.inf:
        log_parts.append(_log_power_piece(tail.coef, tail.power, math.log(tail.exact), None, wexp, s))
        hi_eff = tail.exact

    if hi_eff < lo_eff:
        # exact regions overlap the whole support
        return _logsumexp(log_parts), 0.0

    hint = sum(math.exp(x) for x in log_parts if x < 700)
    anchor_lo = lo_eff if lo_eff > 0 else None
    anchor_hi = hi_eff if hi_eff < math.inf else None
    if anchor_lo is None and anchor_hi is None:
        anchor_lo, anchor_hi = 0.5, 2.0
        for b in profile.breakpoints:
            if math.isfinite(b) and b > 0:
                anchor_lo = min(anchor_lo, b)
                anchor_hi = max(anchor_hi, b)
    elif anchor_lo is None:
        anchor_lo = min(anchor_hi / 4.0, 1.0)
    elif anchor_hi is None:
        anchor_hi = max(anchor_lo * 4.0, 1.0)

    middle, err = yield profile, wexp, s, Integral(
        anchor_lo, anchor_hi, profile.breakpoints, down=lo_eff == 0.0, up=hi_eff == math.inf, hint=hint)
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

def _log_power_piece(coef: float, expo: Fraction, log_lo, log_hi, wexp: float, s: float) -> float:
    """log of the integral of t^wexp |coef t^expo|^s over (lo, hi), bounds
    as in log_power_integral."""
    if coef == 0.0:
        return -math.inf
    return s * math.log(abs(coef)) + log_power_integral(wexp + s * float(expo), log_lo, log_hi)


def _piecewise_log_integral(profile: PiecewisePower, wexp: float, s: float) -> float:
    """Closed-form log integral for piecewise powers; exact in log space."""
    return _logsumexp(
        _log_power_piece(coef, expo, None if lo == -math.inf else lo,
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

def _radial_norm(profile: RadialProfile, d: Fraction, s: Fraction, n: int, cfg: QuadratureConfig):
    """weighted_norm_radial as a generator for _session: it yields what
    _radial_log_integral yields, if anything, and returns the norm."""
    if s <= 0:
        raise ValueError("norm exponent must be positive")
    lo, hi = profile.support
    at_zero, at_inf = profile.edges()
    if lo == 0.0 and _diverges_at_zero(d, s, n, _powers((at_zero, 0))):
        return NormValue.divergent("non-integrable at zero")
    if hi == math.inf and _diverges_at_inf(d, s, n, _powers((at_inf, 0))):
        return NormValue.divergent("non-integrable at infinity")

    wexp = float(d + n - 1)
    sf = float(s)
    try:
        if isinstance(profile, PiecewisePower):
            log_integral, rel_err = _piecewise_log_integral(profile, wexp, sf), 0.0
        elif isinstance(profile, LogModulated):
            log_integral, rel_err = _log_modulated_log_integral(profile, d, s, n, cfg), 0.0
        else:
            log_integral, rel_err = yield from _radial_log_integral(profile, at_zero, at_inf, wexp, sf, cfg)
    except QuadratureError as exc:
        return NormValue.failed(str(exc))

    if log_integral == -math.inf:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    log_norm = (math.log(surface_area(n)) + log_integral) / sf
    return NormValue.from_log(log_norm, rel_err)


def weighted_norm_radial(
    profile: RadialProfile,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """(N omega_N integral t^{d+n-1} |f|^s dt)^{1/s} with divergence status."""
    return _session([_radial_norm(profile, d, s, n, cfg)], cfg)[0]


def _panel_lognorm(log_prefactor: float, s: float, cfg: QuadratureConfig, g, integral: Integral) -> NormValue:
    """(prefactor * integral of g)^(1/s), the integral by a session of its own."""
    result = integrate(g, [integral], cfg)[0]
    if isinstance(result, QuadratureError):
        return NormValue.failed(str(result))
    total, err = result
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((log_prefactor + math.log(total)) / s, err / max(total, cfg.abs_tol))


def _polar_nodes(n: int, cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """GL nodes of the polar angle on (0, pi), with weights times sin^(n-2)."""
    psi, wpsi = gauss_legendre(cfg.angular_nodes)
    psi = 0.5 * math.pi * (psi + 1.0)
    return psi, 0.5 * math.pi * wpsi * np.sin(psi) ** (n - 2)


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
    psi, angular_weight = _polar_nodes(n, cfg)
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


def _translated_lognorm(
    profile: RadialProfile,
    d: Fraction,
    s: Fraction,
    n: int,
    offset: float,
    cfg: QuadratureConfig,
    use_derivative: bool,
) -> NormValue:
    """Norm of f(|x - x0|) (or its gradient magnitude |f'(|x - x0|)|).

    The weight is factored as R^d (1 + x^2 + 2 x cos psi)^{d/2}, x = t/R,
    keeping every intermediate in floating-point range for huge R.
    """
    lo, hi = profile.support
    if hi >= offset:
        raise ValueError("translated support must stay away from the origin")
    sf = float(s)
    df = float(d)
    values = profile.derivative if use_derivative else profile.value

    if n >= 2:
        psi, angular_weight = _polar_nodes(n, cfg)
        cospsi = np.cos(psi)
        prefactor_log = math.log(sub_sphere_area(n))
    else:
        cospsi = np.array([1.0, -1.0])
        angular_weight = np.array([1.0, 1.0])
        prefactor_log = 0.0

    @_sliced
    def g(t: np.ndarray) -> np.ndarray:
        x = t / offset
        base = 1.0 + x[:, None] ** 2 + 2.0 * x[:, None] * cospsi[None, :]
        ang = np.power(base, df / 2.0, out=base) @ angular_weight
        fv = np.abs(values(t))
        out = np.zeros_like(t)
        mask = fv > 0
        if np.any(mask):
            out[mask] = np.exp((n - 1) * np.log(t[mask]) + sf * np.log(fv[mask]) + np.log(ang[mask]))
        return out

    anchor_lo = lo if lo > 0 else hi / 512.0
    return _panel_lognorm(df * math.log(offset) + prefactor_log, sf, cfg, g,
                          Integral(anchor_lo, hi, profile.breakpoints, down=lo == 0.0))


def _norm(u: TestFunction, d: Fraction, s: Fraction, n: int, gradient: bool, cfg: QuadratureConfig):
    """|| grad u ||_{d,s} when gradient, else || u ||_{d,s}, as a generator
    for _session; the 2-D norms go through weighted_norm and
    weighted_norm_gradient and yield nothing."""
    if u.angular is Angular.RADIAL:
        return (yield from _radial_norm(u.profile.derivative_profile() if gradient else u.profile, d, s, n, cfg))
    if gradient:
        return weighted_norm_gradient(u, d, s, n, cfg)
    if u.angular is Angular.TRANSLATED:
        return weighted_norm(u, d, s, n, cfg)
    if n < 2:
        raise ValueError("first harmonics need dimension >= 2")
    base = yield from _radial_norm(u.profile, d, s, n, cfg)
    if not base.finite:
        return base
    sf = float(s)
    correction = (log_angular_moment(sf, n) - math.log(surface_area(n))) / sf
    return NormValue.from_log(base.log_value + correction, base.error)


def weighted_norms(norms, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """The norm of each (u, d, s, n, gradient) of norms: || grad u ||_{d,s}
    when gradient, else || u ||_{d,s}.  Every radial panel integral among
    them shares one session; the 2-D norms are computed one at a time."""
    return _session([_norm(u, d, s, n, gradient, cfg) for u, d, s, n, gradient in norms], cfg)


def weighted_norm(
    u: TestFunction,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """|| u ||_{d,s} for any catalog test function."""
    if u.angular is Angular.TRANSLATED:
        return _translated_lognorm(u.profile, d, s, n, u.offset, cfg, use_derivative=False)
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
    if u.angular is Angular.TRANSLATED:
        return _translated_lognorm(u.profile, b, p, n, u.offset, cfg, use_derivative=True)
    return weighted_norms([(u, b, p, n, True)], cfg)[0]
