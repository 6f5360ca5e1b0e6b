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

One integrator serves every panel path, and it is batched.  The adaptive
bisection runs breadth first: all pending panels of one depth share one
integrand call, and each half-panel sum, once computed, is its child's
coarse estimate.  The walks toward 0 and infinity integrate blocks of 16
panels per call, then apply their stopping rules panel by panel, so they
sum the panels a one-at-a-time walk would.  The 2-D integrands below are
evaluated in slices of 256 points, which bounds their matrices.

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
import operator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Tuple

import numpy as np

from .profiles import LogModulated, PiecewisePower, RadialProfile
from .testfunctions import Angular, TestFunction


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-280
    max_subdivisions: int = 12
    max_panels: int = 6000
    gauss_nodes: int = 16
    angular_nodes: int = 48
    divergence_threshold: float = 1e3

    def with_rel_tol(self, rel_tol: float) -> "QuadratureConfig":
        return replace(self, rel_tol=rel_tol)


DEFAULT_CONFIG = QuadratureConfig()


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


class QuadratureError(RuntimeError):
    pass


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


@lru_cache(maxsize=16)
def _gl(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


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
# batched adaptive panel integration
# ---------------------------------------------------------------------------

# panels per integrand call on the walks toward 0 and infinity
_BLOCK = 16
# points per call of a 2-D integrand, whose points x angles matrices would
# otherwise grow with the number of pending panels
_SLICE = 256


def _sliced(g):
    """g evaluated at most _SLICE points at a time."""
    return lambda t: np.concatenate([g(t[i:i + _SLICE]) for i in range(0, t.size, _SLICE)])


def _gauss_sums(g, nodes: int, *panels) -> np.ndarray:
    """Gauss-Legendre sums of g over each pair (x0, x1) of panel arrays, one
    row per pair, from one call of g."""
    x, w = _gl(nodes)
    x0, x1 = (np.concatenate(ends) for ends in zip(*panels))
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    sums = half * (g((mid[:, None] + half[:, None] * x).ravel()).reshape(-1, nodes) @ w)
    return sums.reshape(len(panels), -1)


def _panel_sums(g, x0: np.ndarray, x1: np.ndarray, cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive bisection of every panel [x0[i], x1[i]], breadth first.

    A panel is accepted when the sum of its two halves (fine) agrees with
    its own sum (coarse) to rel_tol, or at depth 0; otherwise its halves
    become panels of the next depth, with their sums already in hand as
    coarse estimates.  All pending panels of one depth share one call of
    g.  Values and errors are then summed bottom-up, left + right.
    """
    if x0.size == 0:
        return x0, x0
    xm = 0.5 * (x0 + x1)
    coarse, left, right = _gauss_sums(g, cfg.gauss_nodes, (x0, x1), (x0, xm), (xm, x1))
    levels, depth = [], cfg.max_subdivisions
    while True:
        fine = left + right
        err = np.abs(fine - coarse)
        accept = (err <= cfg.rel_tol * np.maximum(np.abs(fine), cfg.abs_tol)) | (depth <= 0)
        split = np.flatnonzero(~accept)
        levels.append((fine, err, split))
        if not split.size:
            break
        x0, x1 = np.concatenate([x0[split], xm[split]]), np.concatenate([xm[split], x1[split]])
        coarse, xm = np.concatenate([left[split], right[split]]), 0.5 * (x0 + x1)
        left, right = _gauss_sums(g, cfg.gauss_nodes, (x0, xm), (xm, x1))
        depth -= 1
    value, error, _ = levels.pop()
    while levels:
        fine, err, split = levels.pop()
        fine[split] = value[:split.size] + value[split.size:]
        err[split] = error[:split.size] + error[split.size:]
        value, error = fine, err
    return value, error


def _in_order(values: np.ndarray) -> float:
    """Sum left to right (not pairwise), as the panels are walked."""
    return reduce(operator.add, values.tolist(), 0.0)


def _extend(g, edge: float, factor: float, cfg: QuadratureConfig, hint: float) -> Tuple[float, float]:
    """Panels from edge toward 0 (factor 1/2) or infinity (factor 2).

    Blocks of _BLOCK panels are integrated at once; their results are then
    taken one panel at a time until 8 quiet panels in a row (value below
    rel_tol of the running total plus hint) or the 1e-280 / 1e280 edge.
    """
    down = factor < 1.0
    total, err, quiet = 0.0, 0.0, 0
    for done in range(0, cfg.max_panels, _BLOCK):
        outer = edge * factor ** np.arange(min(_BLOCK, cfg.max_panels - done) + 1)
        past = outer[1:] < 1e-280 if down else outer[1:] > 1e280
        if past.any():
            outer = outer[:np.argmax(past) + 2]
        values, errors = _panel_sums(g, *((outer[1:], outer[:-1]) if down else (outer[:-1], outer[1:])), cfg)
        for val, e, edge in zip(values.tolist(), errors.tolist(), outer[1:].tolist()):
            total, err = total + val, err + e
            quiet = quiet + 1 if val <= cfg.rel_tol * max(total + hint, cfg.abs_tol) else 0
            if quiet >= 8 or (edge < 1e-280 if down else edge > 1e280):
                return total, err
    raise QuadratureError(f"panel budget exhausted extending toward {'zero' if down else 'infinity'}")


def _panel_edges(lo: float, hi: float, breakpoints) -> list:
    """Geometric 2^k grid intersected with [lo, hi], plus seam points."""
    edges = {lo, hi}
    if lo > 0 and hi > lo:
        k0 = math.ceil(math.log2(lo) + 1e-12)
        k1 = math.floor(math.log2(hi) - 1e-12)
        for k in range(k0, k1 + 1):
            edges.add(2.0**k)
    for b in breakpoints:
        if lo < b < hi:
            edges.add(b)
    return sorted(edges)


def _panel_integral(g, lo: float, hi: float, breakpoints, cfg: QuadratureConfig,
                    down: bool = False, up: bool = False, hint: float = 0.0) -> Tuple[float, float]:
    """(integral, summed error estimates) of g over [lo, hi], cut at the 2^k
    grid and the seams, and if asked over (0, lo) and (hi, infinity) by the
    walks of _extend.  hint is what the caller adds to the integral (closed
    forms); the walks judge their panels quiet against it too.
    """
    edges = np.array(_panel_edges(lo, hi, breakpoints))
    total, err = map(_in_order, _panel_sums(g, edges[:-1], edges[1:], cfg))
    for wanted, edge, factor in ((down, lo, 0.5), (up, hi, 2.0)):
        if wanted:
            part, part_err = _extend(g, edge, factor, cfg, total + hint)
            total, err = total + part, err + part_err
    return total, err


def _radial_log_integral(profile: RadialProfile, wexp: float, s: float, cfg: QuadratureConfig) -> Tuple[float, float]:
    """log of the integral of t^wexp |f(t)|^s over the profile support.

    Divergence must have been excluded by the caller.  Returns
    (log_integral, relative error estimate).
    """
    lo, hi = profile.support
    if hi <= lo:
        return -math.inf, 0.0

    def g(t: np.ndarray) -> np.ndarray:
        fv = np.abs(profile.value(t))
        out = np.zeros_like(fv)
        mask = fv > 0
        if np.any(mask):
            with np.errstate(over="ignore"):
                out[mask] = np.exp(wexp * np.log(t[mask]) + s * np.log(fv[mask]))
        return out

    log_parts = []
    lo_eff, hi_eff = lo, hi
    head, tail = profile.edges()
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

    middle, err = _panel_integral(
        g, anchor_lo, anchor_hi, profile.breakpoints, cfg,
        down=lo_eff == 0.0, up=hi_eff == math.inf, hint=hint,
    )
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
    x, w = _gl(cfg.gauss_nodes)
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

def weighted_norm_radial(
    profile: RadialProfile,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """(N omega_N integral t^{d+n-1} |f|^s dt)^{1/s} with divergence status."""
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
            log_integral, rel_err = _radial_log_integral(profile, wexp, sf, cfg)
    except QuadratureError as exc:
        return NormValue.failed(str(exc))

    if log_integral == -math.inf:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    log_norm = (math.log(surface_area(n)) + log_integral) / sf
    return NormValue.from_log(log_norm, rel_err)


def _panel_lognorm(log_prefactor: float, s: float, cfg: QuadratureConfig, g, *panels, **ends) -> NormValue:
    """(prefactor * integral of g)^(1/s), the integral by _panel_integral."""
    try:
        total, err = _panel_integral(g, *panels, cfg, **ends)
    except QuadratureError as exc:
        return NormValue.failed(str(exc))
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((log_prefactor + math.log(total)) / s, err / max(total, cfg.abs_tol))


def _polar_nodes(n: int, cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """GL nodes of the polar angle on (0, pi), with weights times sin^(n-2)."""
    psi, wpsi = _gl(cfg.angular_nodes)
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
    return _panel_lognorm(math.log(sub_sphere_area(n)), pf, cfg, g, anchor_lo, anchor_hi,
                          profile.breakpoints, down=lo == 0.0, up=hi == math.inf)


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
    return _panel_lognorm(df * math.log(offset) + prefactor_log, sf, cfg, g, anchor_lo, hi,
                          profile.breakpoints, down=lo == 0.0)


def weighted_norm(
    u: TestFunction,
    d: Fraction,
    s: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """|| u ||_{d,s} for any catalog test function."""
    if u.angular is Angular.RADIAL:
        return weighted_norm_radial(u.profile, d, s, n, cfg)
    if u.angular is Angular.FIRST_HARMONIC:
        if n < 2:
            raise ValueError("first harmonics need dimension >= 2")
        base = weighted_norm_radial(u.profile, d, s, n, cfg)
        if not base.finite:
            return base
        sf = float(s)
        correction = (log_angular_moment(sf, n) - math.log(surface_area(n))) / sf
        return NormValue.from_log(base.log_value + correction, base.error)
    return _translated_lognorm(u.profile, d, s, n, u.offset, cfg, use_derivative=False)


def weighted_norm_gradient(
    u: TestFunction,
    b: Fraction,
    p: Fraction,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> NormValue:
    """|| grad u ||_{b,p} (for radial u this is the radial-derivative norm)."""
    if u.angular is Angular.RADIAL:
        return weighted_norm_radial(u.profile.derivative_profile(), b, p, n, cfg)
    if u.angular is Angular.FIRST_HARMONIC:
        return _first_harmonic_gradient_lognorm(u.profile, b, p, n, cfg)
    return _translated_lognorm(u.profile, b, p, n, u.offset, cfg, use_derivative=True)
