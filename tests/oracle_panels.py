"""Depth-first panel integrator: an oracle for the batched one in quadrature.

This is the recursive adaptive Gauss-Legendre bisection the package used
before its integrator was batched: one integrand call per 16-node panel
sum, each half-panel sum computed twice (once as the parent's fine
estimate, once as the child's coarse one), and the walks toward 0 and
infinity one panel at a time, quiet by the rule of `ckn.panels._Walk`
(`_rest`).  `panel_integral` composes these pieces
for one integral, and `integrate` runs every integral of a session
through it alone, with the signature of `ckn.panels.integrate`, so a test
can swap it in and compare the norms the two give.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ckn.panels import (ABS_TOL, GAUSS_NODES, MAX_SUBDIVISIONS, QuadratureConfig, QuadratureError, gauss_legendre,
                        panel_edges)


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


def _rest(val: float, before: float) -> float:
    """The tail past a walk panel of value val, the one before it before:
    val, or the geometric series val^2 / (before - val) past it when val
    falls by less than half."""
    return val * val / (before - val) if 0.5 * before < val < before else val


def _extend_down(g, lo_edge: float, cfg, outside: float) -> Tuple[float, float]:
    """Add panels [edge/2, edge] toward zero until they stop contributing."""
    total, err = 0.0, 0.0
    edge, before = lo_edge, math.inf
    quiet = 0
    for _ in range(cfg.max_panels):
        val, e = _adaptive_panel(g, edge / 2.0, edge, cfg, MAX_SUBDIVISIONS)
        total += val
        err += e
        edge /= 2.0
        quiet = quiet + 1 if _rest(val, before) <= cfg.rel_tol * max(total + outside, ABS_TOL) else 0
        before = val
        if quiet >= 8 or edge < 1e-280:
            return total, err
    raise QuadratureError("panel budget exhausted extending toward zero")


def _extend_up(g, hi_edge: float, cfg, outside: float) -> Tuple[float, float]:
    total, err = 0.0, 0.0
    edge, before = hi_edge, math.inf
    quiet = 0
    for _ in range(cfg.max_panels):
        val, e = _adaptive_panel(g, edge, edge * 2.0, cfg, MAX_SUBDIVISIONS)
        total += val
        err += e
        edge *= 2.0
        quiet = quiet + 1 if _rest(val, before) <= cfg.rel_tol * max(total + outside, ABS_TOL) else 0
        before = val
        if quiet >= 8 or edge > 1e280:
            return total, err
    raise QuadratureError("panel budget exhausted extending toward infinity")


def integrate(g, integrals, cfg) -> list:
    """Each integral of a session on its own, g read for that integral
    only: (integral, error) or the QuadratureError that ended it."""
    results = []
    for i, it in enumerate(integrals):
        try:
            results.append(panel_integral(lambda t, i=i: g(t, np.array([i])), it.lo, it.hi,
                                          it.breakpoints, cfg, it.down, it.up))
        except QuadratureError as exc:
            results.append(exc)
    return results


def panel_integral(g, lo, hi, breakpoints, cfg, down=False, up=False) -> Tuple[float, float]:
    """The panels of [lo, hi], then the walks from lo toward 0 and from hi
    toward infinity, in the order the norm paths used."""
    total, err = _integrate_panels(g, panel_edges(lo, hi, breakpoints), cfg)
    if down:
        part, part_err = _extend_down(g, lo, cfg, total)
        total += part
        err += part_err
    if up:
        part, part_err = _extend_up(g, hi, cfg, total)
        total += part
        err += part_err
    return total, err
