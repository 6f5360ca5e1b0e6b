"""2-D norms: oracles for the closed-form angular factors in quadrature.

These are the reductions the package used before its translated and
first-harmonic gradient norms became radial integrals with a closed-form
angular factor: an integral over the distance t and the polar angle psi,
the angle integrated by a fixed Gauss-Legendre rule of `nodes` nodes at
every t, and the t integral by one session of `ckn.panels.integrate`.
An end at 0 or infinity is cut 2^40 from the other end of the range (or
from 1), and the rest past the cut is read as the power C t^e that the
integrand g is there, e measured from g at the cut and at half or twice
it: its integral is g(t) t / |e + 1|.

  * `translated_norm`: the norm of f(|x - x0|), |x0| = R, about x0, with
    the weight factored as R^d (1 + x^2 + 2 x cos psi)^(d/2), x = t/R.
    With 48 nodes the rule is good to about 1e-15 for x <= 1/2 and loses
    digits as x nears 1, where the weight peaks at psi = pi.
  * `first_harmonic_gradient_norm`: the gradient norm of f(|x|) x1/|x|,
    whose |grad|^2 is f'^2 cos^2 + (f/t)^2 sin^2 of psi (`angular_integral`).
    Where |f'| >> |f/t| and p is not an even integer the integrand has a
    rounded corner at psi = pi/2: 48 nodes were off by 1.6e-6 in log on
    `ScaledProfile(PowerTail(13/2, 8), 8)` at (b, p, N) = (9/2, 1, 4).  For
    rho = min(f'^2, (f/t)^2) / max(f'^2, (f/t)^2) >= 1e-2 the corner's
    complex singularity lies about 0.1 off the real axis, and 512 nodes
    integrate it to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from ckn.panels import ABS_TOL, DEFAULT_CONFIG, Integral, gauss_legendre, integrate
from ckn.quadrature import NormStatus, NormValue, surface_area

# points per evaluation: the points x angles matrices stay small
_SLICE = 256


def _polar_rule(n: int, nodes: int):
    """(psi, weights times sin^(n-2) psi) of the Gauss-Legendre rule on (0, pi)."""
    psi, weight = gauss_legendre(nodes)
    psi = 0.5 * math.pi * (psi + 1.0)
    return psi, 0.5 * math.pi * weight * np.sin(psi) ** (n - 2)


# how far from the other end of the range an end at 0 or infinity is cut
_OPEN = 2.0 ** 40


def _rest(g, t: float, step: float) -> float:
    """The integral of g past t, toward 0 for step 1/2 and toward infinity
    for step 2, as the power through g(t) and g(step t)."""
    near, far = g(np.array([t, step * t]))
    if near == 0.0:
        return 0.0
    return near * t / abs(math.log(far / near) / math.log(step) + 1.0)


def _norm(g, lo, hi, breakpoints, log_prefactor, s, cfg) -> NormValue:
    """(prefactor * integral of g over (lo, hi))^(1/s), on panels between
    the cuts of its open ends and as powers past them, g evaluated _SLICE
    points at a time."""
    def sliced(t, _owner):
        return np.concatenate([g(t[i:i + _SLICE]) for i in range(0, t.size, _SLICE)])

    cut_lo = lo if lo > 0 else (hi if hi < math.inf else 1.0) / _OPEN
    cut_hi = hi if hi < math.inf else max(lo, 1.0) * _OPEN
    total, err = integrate(sliced, [Integral(cut_lo, cut_hi, breakpoints)], cfg)[0]
    total += (_rest(g, cut_lo, 0.5) if lo == 0 else 0.0) + (_rest(g, cut_hi, 2.0) if hi == math.inf else 0.0)
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((log_prefactor + math.log(total)) / s, err / max(total, ABS_TOL))


def translated_norm(profile, d, s, n: int, offset: float, cfg=DEFAULT_CONFIG, use_derivative=False,
                    nodes: int = 48) -> NormValue:
    """|| f(|x - x0|) ||_{d,s}, or the norm of |f'(|x - x0|)| when use_derivative."""
    lo, hi = profile.support
    if hi >= offset:
        raise ValueError("translated support must stay away from the origin")
    sf, df = float(s), float(d)
    values = profile.derivative if use_derivative else profile.value

    if n >= 2:
        psi, angular_weight = _polar_rule(n, nodes)
        cospsi = np.cos(psi)
        prefactor_log = math.log(surface_area(n - 1))
    else:
        cospsi = np.array([1.0, -1.0])
        angular_weight = np.array([1.0, 1.0])
        prefactor_log = 0.0

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

    return _norm(g, lo, hi, profile.breakpoints, df * math.log(offset) + prefactor_log, sf, cfg)


def angular_integral(fp: np.ndarray, ft: np.ndarray, p: float, n: int, nodes: int) -> np.ndarray:
    """The integral over (0, pi) of (fp^2 cos^2 + ft^2 sin^2)^(p/2) sin^(n-2)
    at each point, by the Gauss-Legendre rule of nodes nodes.  fp and ft are
    scaled by m = max(|fp|, |ft|) before they are squared, so the squares
    neither overflow nor underflow, and m^p multiplies the result; a point
    with m = 0 gives 0."""
    psi, weight = _polar_rule(n, nodes)
    fp, ft = np.asarray(fp, dtype=float), np.asarray(ft, dtype=float)
    m = np.maximum(np.abs(fp), np.abs(ft))
    out = np.zeros_like(m)
    live = m > 0
    mag = (fp[live] / m[live])[:, None] ** 2 * np.cos(psi) ** 2 + (ft[live] / m[live])[:, None] ** 2 * np.sin(psi) ** 2
    out[live] = m[live] ** p * (np.power(mag, p / 2.0) @ weight)
    return out


def first_harmonic_gradient_norm(profile, b, p, n: int, cfg=DEFAULT_CONFIG, nodes: int = 192) -> NormValue:
    """|| grad (f(|x|) x1/|x|) ||_{b,p} on R^n, n >= 2, of a profile whose
    norm converges at both ends; no divergence test."""
    lo, hi = profile.support
    pf, wexp = float(p), float(b + n - 1)

    def g(t: np.ndarray) -> np.ndarray:
        fp, ft = profile.derivative(t), profile.value(t) / t
        m = np.maximum(np.abs(fp), np.abs(ft))
        out = np.zeros_like(t)
        live = m > 0
        if np.any(live):
            # p log m apart, so that m^p neither overflows nor underflows
            ang = angular_integral(fp[live] / m[live], ft[live] / m[live], pf, n, nodes)
            with np.errstate(over="ignore"):
                out[live] = np.exp(wexp * np.log(t[live]) + pf * np.log(m[live]) + np.log(ang))
        return out

    return _norm(g, lo, hi, profile.breakpoints, math.log(surface_area(n - 1)), pf, cfg)
