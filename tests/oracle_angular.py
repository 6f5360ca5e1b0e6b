"""2-D translated norms: an oracle for the closed-form angular factor in quadrature.

This is the reduction the package used before its translated norms became
radial: the norm of f(|x - x0|), |x0| = R, as an integral over the
distance t from x0 and the polar angle psi about x0, with the weight
factored as R^d (1 + x^2 + 2 x cos psi)^(d/2), x = t/R, and the angle
integrated by a fixed Gauss-Legendre rule of `angular_nodes` nodes (48 by
default) at every t.  Each norm is one session of `ckn.panels.integrate`
over the same panels as the radial path.  The rule is good to about
1e-15 for x <= 1/2 and loses digits as x nears 1, where the weight peaks
at psi = pi.
"""

from __future__ import annotations

import math

import numpy as np

from ckn.panels import DEFAULT_CONFIG, Integral, QuadratureError, gauss_legendre, integrate
from ckn.quadrature import NormStatus, NormValue, sub_sphere_area

# points per evaluation: the points x angles matrices stay small
_SLICE = 256


def translated_norm(profile, d, s, n: int, offset: float, cfg=DEFAULT_CONFIG, use_derivative=False) -> NormValue:
    """|| f(|x - x0|) ||_{d,s}, or the norm of |f'(|x - x0|)| when use_derivative."""
    lo, hi = profile.support
    if hi >= offset:
        raise ValueError("translated support must stay away from the origin")
    sf, df = float(s), float(d)
    values = profile.derivative if use_derivative else profile.value

    if n >= 2:
        psi, angular_weight = gauss_legendre(cfg.angular_nodes)
        psi = 0.5 * math.pi * (psi + 1.0)
        angular_weight = 0.5 * math.pi * angular_weight * np.sin(psi) ** (n - 2)
        cospsi = np.cos(psi)
        prefactor_log = math.log(sub_sphere_area(n))
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

    def sliced(t, _owner):
        return np.concatenate([g(t[i:i + _SLICE]) for i in range(0, t.size, _SLICE)])

    integral = Integral(lo if lo > 0 else hi / 512.0, hi, profile.breakpoints, down=lo == 0.0)
    result = integrate(sliced, [integral], cfg)[0]
    if isinstance(result, QuadratureError):
        return NormValue.failed(str(result))
    total, err = result
    if total <= 0:
        return NormValue(0.0, -math.inf, NormStatus.FINITE)
    return NormValue.from_log((df * math.log(offset) + prefactor_log + math.log(total)) / sf,
                              err / max(total, cfg.abs_tol))
