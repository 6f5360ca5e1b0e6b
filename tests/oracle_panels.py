"""Depth-first panel integrator: an oracle for the batched one in quadrature.

This is the recursive adaptive Gauss-Legendre bisection the package used
before its integrator was batched: one integrand call per 16-node panel
sum, each half-panel sum computed twice (once as the parent's fine
estimate, once as the child's coarse one).  `panel_integral` integrates
one finite range on its panels, and `integrate` runs every integral of a
session through it alone, with the signature of `ckn.panels.integrate`,
so a test can swap it in and compare the norms the two give.

`PanelTail` is the profile t^-alpha (1+t)^(alpha-beta) of `PowerTail`,
with its values, derivatives and edge records but not its closed form, so
its norms are integrated on panels and closed ends, where a `PowerTail`'s
are Beta and 2F1 values.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ckn.panels import ABS_TOL, GAUSS_NODES, MAX_SUBDIVISIONS, QuadratureConfig, gauss_legendre, panel_edges
from ckn.profiles import PowerTail, RadialProfile


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
