"""Depth-first panel integrator: an oracle for the batched one in quadrature.

This is the recursive adaptive Gauss-Legendre bisection the package used
before its integrator was batched: one integrand call per 16-node panel
sum, each half-panel sum computed twice (once as the parent's fine
estimate, once as the child's coarse one).  `panel_integral` integrates
one finite range on its panels, and `integrate` runs every integral of a
session through it alone, with the signature of `ckn.panels.integrate`,
so a test can swap it in and compare the norms the two give.

`PanelTail` is the profile t^-alpha (1+t)^(alpha-beta) of `PowerTail`,
and `PanelBump` the profile t^-alpha (1 - t^g)^m of `PowerBump`, each with
its values, derivatives and edge records but not its closed form, so
their norms are integrated on panels and closed ends, where those of the
package's profiles are Beta and 2F1 values.

`SmoothBump` is the C-infinity bump exp(-1/(1-v^2)) at v = (t - centre) /
width, with Taylor's bounds on its edge record at 0 where it straddles
the origin: a profile with no closed form, whose norms only the panels
read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from ckn.panels import ABS_TOL, GAUSS_NODES, MAX_SUBDIVISIONS, QuadratureConfig, gauss_legendre, panel_edges
from ckn.profiles import Bound, Edge, PowerBump, PowerTail, RadialProfile, bump, bump_prime


class PanelTail(RadialProfile):
    """PowerTail(alpha, beta) as a profile with no closed form."""

    kind = "panel_tail"

    def __init__(self, alpha, beta):
        self.tail = PowerTail(alpha, beta)
        self.alpha, self.beta = self.tail.alpha, self.tail.beta

    def value(self, t):
        return self.tail.value(t)

    def derivative(self, t):
        return self.tail.derivative(t)

    def edges(self):
        return self.tail.edges()

    def descriptor(self):
        return {**self.tail.descriptor(), "kind": self.kind}


class PanelBump(RadialProfile):
    """PowerBump(alpha, g, m) as a profile with no closed form."""

    kind = "panel_bump"

    def __init__(self, alpha, g, m):
        self.bump = PowerBump(alpha, g, m)
        self.alpha, self.g, self.m = self.bump.alpha, self.bump.g, self.bump.m

    def value(self, t):
        return self.bump.value(t)

    def derivative(self, t):
        return self.bump.derivative(t)

    @property
    def support(self):
        return self.bump.support

    def edges(self):
        return self.bump.edges()

    def descriptor(self):
        return {**self.bump.descriptor(), "kind": self.kind}


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
        # f(0) != 0 only when the bump straddles the origin.  For t <= reach,
        # half way from 0 to the nearer end of the bump, v = v0 + t/width
        # keeps 1 - v^2 >= low, and bump^(k)(v) is e^(-1/high) times at most
        # (2, 14, 140)[k - 1] / low^(2k), for high the largest 1 - v^2
        # there; Taylor's bounds follow.  f' of a centred bump is -2 f(0)
        # t/width^2 at 0, within t^2 sup|f^(3)| / 2
        if abs(self.center) >= self.width:
            return (None, None)
        w, v0 = self.width, -self.center / self.width
        reach, v1 = w * (1.0 - abs(v0)) / 2.0, v0 + (1.0 - abs(v0)) / 2.0
        low, high = 1.0 - max(v0 * v0, v1 * v1), 1.0 if v0 <= 0.0 <= v1 else 1.0 - min(v0 * v0, v1 * v1)
        top, f0 = math.exp(-1.0 / high), math.exp(-1.0 / (1.0 - v0 * v0))
        d0 = f0 * (-2.0 * v0) / (1.0 - v0 * v0) ** 2 / w
        slope = (Edge(d0, Fraction(0), bound=Bound(top * 14.0 / low**4 / (w * w * abs(d0)), 1.0, reach)) if d0
                 else Edge(-2.0 * f0 / w**2, Fraction(1), bound=Bound(top * 35.0 / low**6 / (w * f0), 1.0, reach)))
        return (Edge(f0, Fraction(0), bound=Bound(top * 2.0 / low**2 / (w * f0), 1.0, reach), slope=slope), None)

    def descriptor(self):
        return {"kind": self.kind, "center": self.center, "width": self.width}


def _gl_quad(g, x0: float, x1: float, nodes: int) -> float:
    x, w = gauss_legendre(nodes)
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    return half * float(np.dot(w, g(mid + half * x)))


def _adaptive_panel(g, x0: float, x1: float, cfg: QuadratureConfig, depth: int) -> Tuple[float, float]:
    coarse = _gl_quad(g, x0, x1, GAUSS_NODES)
    xm = 0.5 * (x0 + x1)
    fine = _gl_quad(g, x0, xm, GAUSS_NODES) + _gl_quad(g, xm, x1, GAUSS_NODES)
    err = abs(fine - coarse)
    if err <= cfg.rel_tol * max(abs(fine), ABS_TOL) or depth <= 0:
        return fine, err
    left = _adaptive_panel(g, x0, xm, cfg, depth - 1)
    right = _adaptive_panel(g, xm, x1, cfg, depth - 1)
    return left[0] + right[0], left[1] + right[1]


def _integrate_panels(g, edges, cfg) -> Tuple[float, float]:
    total, err = 0.0, 0.0
    for x0, x1 in zip(edges[:-1], edges[1:]):
        val, e = _adaptive_panel(g, x0, x1, cfg, MAX_SUBDIVISIONS)
        total += val
        err += e
    return total, err


def integrate(g, integrals, cfg) -> list:
    """Each integral of a session on its own, g read for that integral
    only: (integral, error)."""
    return [panel_integral(lambda t, i=i: g(t, np.array([i])), it.lo, it.hi, it.breakpoints, cfg)
            for i, it in enumerate(integrals)]


def panel_integral(g, lo, hi, breakpoints, cfg) -> Tuple[float, float]:
    """The panels of [lo, hi], left to right."""
    return _integrate_panels(g, panel_edges(lo, hi, breakpoints), cfg)
