"""Batched adaptive Gauss-Legendre panel integration.

A session integrates many integrals of one integrand g(t, i), the i-th
over its own panels: the geometric 2^k grid of [lo, hi] cut at seam
points, and if asked walks of geometric panels from lo toward 0 and from
hi toward infinity.

The adaptive bisection runs breadth first: all pending panels of one
depth, of every integral of the session, share one call of g, and each
half-panel sum, once computed, is its child's coarse estimate.  A call
evaluates g in chunks of at most 4096 points.  The walks integrate blocks
of 16 panels per step and apply their stopping rules panel by panel, so
each integral sums the panels a one-at-a-time walk would.  Each integral
keeps its own acceptance tests, walks, hints and panel budget, so its
result does not depend on the other integrals of its session.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple, Tuple

import numpy as np


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


class QuadratureError(RuntimeError):
    pass


# panels per block of each walk toward 0 and infinity
_BLOCK = 16
# points per integrand call: a bisection step evaluates its panels in
# chunks of at most this many points, which bounds every array of points
_CHUNK = 4096


@lru_cache(maxsize=16)
def gauss_legendre(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _gauss_sums(g, nodes: int, owner: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of g over the panels [x0, x1], arrays of shape
    (len(owner), k): row i holds k panels of integral owner[i].  One call of
    the batched integrand, made in chunks of at most _CHUNK points."""
    x, w = gauss_legendre(nodes)
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    rows = max(1, _CHUNK // (x0.shape[1] * nodes))
    if owner.size <= rows:  # the common case of small sessions, without copies
        t = (mid.reshape(-1, 1) + half.reshape(-1, 1) * x).ravel()
        return half * (g(t, owner).reshape(-1, nodes) @ w).reshape(x0.shape)
    sums = np.empty_like(x0)
    for i in range(0, owner.size, rows):
        t = (mid[i:i + rows, :, None] + half[i:i + rows, :, None] * x).ravel()
        sums[i:i + rows] = (g(t, owner[i:i + rows]).reshape(-1, nodes) @ w).reshape(-1, x0.shape[1])
    return half * sums


def _columns(*columns: np.ndarray) -> np.ndarray:
    """The arrays as the columns of one row-major array."""
    out = np.empty((columns[0].size, len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


def _panel_sums(g, x0: np.ndarray, x1: np.ndarray, owner: np.ndarray,
                cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive bisection of every panel [x0[i], x1[i]] of integral owner[i],
    breadth first.

    A panel is accepted when the sum of its two halves (fine) agrees with
    its own sum (coarse) to rel_tol, or at depth 0; otherwise its halves
    take its place among the panels of the next depth, with their sums
    already in hand as coarse estimates.  The test is panel-local, so
    panels of different integrals share the arrays, and all pending panels
    of one depth share one call of g.  Values and errors are then summed
    bottom-up, left + right.
    """
    if x0.size == 0:
        return x0, x0
    # a row per panel: its left end, midpoint and right end
    ends = _columns(x0, 0.5 * (x0 + x1), x1)
    sums = _gauss_sums(g, cfg.gauss_nodes, owner, ends[:, [0, 0, 1]], ends[:, [2, 1, 2]])
    coarse, halves = sums[:, 0], sums[:, 1:]
    levels, depth = [], cfg.max_subdivisions
    while True:
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - coarse)
        accept = (err <= cfg.rel_tol * np.maximum(np.abs(fine), cfg.abs_tol)) | (depth <= 0)
        split = np.flatnonzero(~accept)
        levels.append((fine, err, split))
        if not split.size:
            break
        # the halves of each split panel, left then right, in its place
        ends, coarse, owner = ends[split], halves[split].ravel(), owner[split].repeat(2)
        x0, x1 = ends[:, :2].ravel(), ends[:, 1:].ravel()
        ends = _columns(x0, 0.5 * (x0 + x1), x1)
        halves = _gauss_sums(g, cfg.gauss_nodes, owner, ends[:, :2], ends[:, 1:])
        depth -= 1
    value, error, _ = levels.pop()
    while levels:
        fine, err, split = levels.pop()
        fine[split] = value[0::2] + value[1::2]
        err[split] = error[0::2] + error[1::2]
        value, error = fine, err
    return value, error


def _in_order(values: np.ndarray) -> float:
    """Sum left to right (not pairwise), as the panels are walked."""
    return reduce(operator.add, values.tolist(), 0.0)


def panel_edges(lo: float, hi: float, breakpoints) -> list:
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


class Integral(NamedTuple):
    """One integral of a session: g over [lo, hi], cut at the 2^k grid and
    the seams, and if asked over (0, lo) and (hi, infinity) by walks.  hint
    is what the caller adds to the integral (closed forms); the walks judge
    their panels quiet against it too."""

    lo: float
    hi: float
    breakpoints: Tuple[float, ...]
    down: bool = False
    up: bool = False
    hint: float = 0.0


class _Walk:
    """Panels of one integral from edge toward 0 or infinity, _BLOCK at a
    time, taken one at a time until 8 quiet panels in a row (value below
    rel_tol of the running total plus hint) or the 1e-280 / 1e280 edge."""

    def __init__(self, owner: int, edge: float, down: bool, cfg: QuadratureConfig):
        self.owner, self.edge, self.down, self.cfg = owner, edge, down, cfg
        self.total = self.err = 0.0
        self.quiet = self.done = 0

    def block(self) -> tuple:
        """(owner, x0, x1) of the next block of panels."""
        factor = 0.5 if self.down else 2.0
        outer = self.edge * factor ** np.arange(min(_BLOCK, self.cfg.max_panels - self.done) + 1)
        past = outer[1:] < 1e-280 if self.down else outer[1:] > 1e280
        self.outer = outer = outer[:np.argmax(past) + 2] if past.any() else outer
        return (self.owner, outer[1:], outer[:-1]) if self.down else (self.owner, outer[:-1], outer[1:])

    def take(self, values: np.ndarray, errors: np.ndarray, hint: float):
        """(total, error) once the walk stops within the block, a
        QuadratureError once its budget is spent, else None."""
        cfg = self.cfg
        for val, e, edge in zip(values.tolist(), errors.tolist(), self.outer[1:].tolist()):
            self.total, self.err = self.total + val, self.err + e
            self.quiet = self.quiet + 1 if val <= cfg.rel_tol * max(self.total + hint, cfg.abs_tol) else 0
            if self.quiet >= 8 or (edge < 1e-280 if self.down else edge > 1e280):
                return self.total, self.err
        self.edge, self.done = edge, self.done + _BLOCK
        if self.done < cfg.max_panels:
            return None
        return QuadratureError(f"panel budget exhausted extending toward {'zero' if self.down else 'infinity'}")


def integrate(g, integrals, cfg: QuadratureConfig) -> list:
    """(integral, summed error estimates) of g over each integrals[i], or
    the QuadratureError that ended it: one session.  g(t, owner) takes the
    points t in owner.size rows of equal length; row j belongs to integral
    owner[j], and rows come in order of owner.

    The panels of every [lo, hi] share one bisection pass with the first
    block of every walk, which each walk integrates whatever its hint.
    Then the walks toward 0 take their next blocks in lockstep, one pass
    per step, judged quiet against their middle total plus hint; then the
    walks toward infinity, against the middle total, the walk toward 0 and
    hint.  Each integral keeps its own panels, tests, walks and budget, so
    it gets the sums a session of its own would.
    """
    def run(segments):
        """(values, errors) of the panels of each (owner, x0, x1), from one pass."""
        owners, x0s, x1s = zip(*segments)
        sizes = [x0.size for x0 in x0s]
        values, errors = _panel_sums(g, np.concatenate(x0s), np.concatenate(x1s),
                                     np.array(owners).repeat(sizes), cfg)
        stops = list(accumulate(sizes))
        return [(values[a:b], errors[a:b]) for a, b in zip([0, *stops], stops)]

    # each integral's middle panels, then the first blocks of its walks
    walks, segments = [], []
    for i, it in enumerate(integrals):
        edges = np.array(panel_edges(it.lo, it.hi, it.breakpoints))
        segments.append((i, edges[:-1], edges[1:]))
        for down, edge in ((True, it.lo), (False, it.hi)):
            if it.down if down else it.up:
                walks.append(_Walk(i, edge, down, cfg))
                segments.append(walks[-1].block())
    results, firsts = [], []
    for segment, sums in zip(segments, run(segments)):
        if segment[0] == len(results):  # the middle panels of the next integral
            results.append((_in_order(sums[0]), _in_order(sums[1])))
        else:
            firsts.append(sums)
    for down in (True, False):
        going = [(walk, first) for walk, first in zip(walks, firsts)
                 if walk.down == down and not isinstance(results[walk.owner], QuadratureError)]
        while going:
            pending = []
            for walk, block in going:
                total, err = results[walk.owner]
                part = walk.take(*block, total + integrals[walk.owner].hint)
                if isinstance(part, tuple):
                    results[walk.owner] = total + part[0], err + part[1]
                elif part is None:
                    pending.append(walk)
                else:
                    results[walk.owner] = part
            going = list(zip(pending, run([walk.block() for walk in pending]))) if pending else []
    return results
