"""Batched adaptive Gauss-Legendre panel integration.

A session integrates many integrals of one integrand g(t, i), the i-th
over its own panels: the geometric 2^k grid of [lo, hi] cut at seam
points, and if asked walks of geometric panels from lo toward 0 and from
hi toward infinity.

The adaptive bisection runs breadth first: all pending panels of one
depth, of every integral of the session, share one call of g, and each
half-panel sum, once computed, is its child's coarse estimate.  While the
pending panels are few, the call also sums the halves of their next
depths, up to _AHEAD depths in _PREFETCH points, and the panels split
there read their halves from it, so a small session makes one call per
few depths, not one per depth.  The sub-panel ends come from the same
midpoint recursion and each panel's Gauss sum does not depend on the
other rows of its call (`_row_dot`), so the sums are those of one depth
per call.  A call evaluates g in chunks of at most 4096 points.  The
walks integrate blocks of 16 panels per step and apply their stopping
rules panel by panel, so each integral sums the panels a one-at-a-time
walk would.  Each integral keeps its own acceptance tests, walks and
panel budget, so its result does not depend on the other integrals of its
session.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple, Tuple

import numpy as np


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    max_panels: int = 6000
    divergence_threshold: float = 1e3


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(RuntimeError):
    pass


# the floor under every relative test, the bisection depth at which a
# panel is accepted whatever its error, and the nodes of each panel's rule
ABS_TOL = 1e-280
MAX_SUBDIVISIONS = 12
GAUSS_NODES = 16
# panels per block of each walk toward 0 and infinity, and the factors
# 2^-k and 2^k of the panel ends of a block
_BLOCK = 16
_HALVES, _DOUBLES = 0.5 ** np.arange(_BLOCK + 1), 2.0 ** np.arange(_BLOCK + 1)
# points per integrand call: a bisection step evaluates its panels in
# chunks of at most this many points, which bounds every array of points
_CHUNK = 4096
# a bisection step whose pending panels are few evaluates the halves of up
# to _AHEAD depths at once, as long as they take at most _PREFETCH points:
# the halves, quarters, eighths and sixteenths of up to 2 panels of 16 nodes
_AHEAD = 4
_PREFETCH = _CHUNK // 4


@lru_cache(maxsize=16)
def gauss_legendre(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _row_dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w, each row's dot product computed alike wherever the row
    sits among the rows.  A BLAS may not: OpenBLAS takes the rows in blocks
    of 4 and the rows of a last, partial block another way, and a single
    row another way still.  So a partial block is padded to 4 rows with
    zeros, and the sums of a panel do not depend on the panels it is
    evaluated with."""
    whole = rows.shape[0] - rows.shape[0] % 4
    if whole == rows.shape[0]:
        return rows @ w
    block = np.zeros((4, rows.shape[1]))
    block[:rows.shape[0] - whole] = rows[whole:]
    out = np.empty(rows.shape[0])
    out[:whole] = rows[:whole] @ w
    out[whole:] = (block @ w)[:rows.shape[0] - whole]
    return out


def _gauss_sums(g, nodes: int, owner: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of g over the panels [x0, x1], arrays of shape
    (len(owner), k): row i holds k panels of integral owner[i].  One call of
    the batched integrand, made in chunks of at most _CHUNK points."""
    x, w = gauss_legendre(nodes)
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    rows = max(1, _CHUNK // (x0.shape[1] * nodes))
    if owner.size <= rows:  # the common case of small sessions, without copies
        t = (mid.reshape(-1, 1) + half.reshape(-1, 1) * x).ravel()
        return half * _row_dot(g(t, owner).reshape(-1, nodes), w).reshape(x0.shape)
    sums = np.empty_like(x0)
    for i in range(0, owner.size, rows):
        t = (mid[i:i + rows, :, None] + half[i:i + rows, :, None] * x).ravel()
        sums[i:i + rows] = _row_dot(g(t, owner[i:i + rows]).reshape(-1, nodes), w).reshape(-1, x0.shape[1])
    return half * sums


def _columns(*columns: np.ndarray) -> np.ndarray:
    """The arrays as the columns of one row-major array."""
    out = np.empty((columns[0].size, len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


def _depths_ahead(panels: int, depth: int, nodes: int, coarse: bool) -> int:
    """How many depths of halves one integrand call evaluates for `panels`
    pending panels at depth `depth`: at least 1, at most _AHEAD and depth +
    1 (panels at depth 0 are not split), and past 1 only while the 2 + 4 +
    ... + 2^k sub-panels of each (plus the panel itself when coarse) fit in
    _PREFETCH points."""
    count, limit = 1, min(_AHEAD, depth + 1)
    while count < limit and panels * nodes * (2 ** (count + 2) - 2 + coarse) <= _PREFETCH:
        count += 1
    return count


def _halves_ahead(g, nodes: int, owner: np.ndarray, ends: np.ndarray, depth: int,
                  coarse: bool) -> list:
    """Gauss sums of the sub-panels of the next depths (_depths_ahead) of
    the panels ends[i] = (x0, mid, x1) at depth `depth` of integral
    owner[i], from one call of g: entry j, of shape (len(owner), 2^(j+1)),
    holds the 2^(j+1) sub-panels of depth j + 1 of each panel, left to
    right.  When coarse, the panels' own sums, of shape (len(owner), 1),
    come first.  Sub-panel ends come from the midpoint recursion
    0.5 * (a + b), as the bisection makes them."""
    count = _depths_ahead(owner.size, depth, nodes, coarse)
    if count == 1 and not coarse:  # the halves alone, as every large frontier asks
        return [_gauss_sums(g, nodes, owner, ends[:, :2], ends[:, 1:])]
    widths = [1] * coarse + [2 ** j for j in range(1, count + 1)]
    x0, x1 = np.empty((owner.size, sum(widths))), np.empty((owner.size, sum(widths)))
    at, grid = 0, ends
    if coarse:
        x0[:, 0], x1[:, 0] = ends[:, 0], ends[:, 2]
        at = 1
    for j in range(count):
        if j:  # the ends of the halves of every sub-panel of the depth above
            above, grid = grid, np.empty((owner.size, 2 * grid.shape[1] - 1))
            grid[:, 0::2] = above
            grid[:, 1::2] = 0.5 * (above[:, :-1] + above[:, 1:])
        width = grid.shape[1] - 1
        x0[:, at:at + width], x1[:, at:at + width] = grid[:, :-1], grid[:, 1:]
        at += width
    sums = _gauss_sums(g, nodes, owner, x0, x1)
    cuts = list(accumulate(widths))
    return [sums[:, a:b] for a, b in zip([0, *cuts], cuts)]


def _panel_sums(g, x0: np.ndarray, x1: np.ndarray, owner: np.ndarray,
                cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive bisection of every panel [x0[i], x1[i]] of integral owner[i],
    breadth first.

    A panel is accepted when the sum of its two halves (fine) agrees with
    its own sum (coarse) to rel_tol, at depth 0, or at once when fine is
    inf or nan, which no bisection makes a finite sum; otherwise its halves
    take its place among the panels of the next depth, with their sums
    already in hand as coarse estimates.  The test is panel-local, so
    panels of different integrals share the arrays.  All pending panels of
    one depth share one call of g, which on a small frontier also sums the
    halves of the next few depths (_depths_ahead): the panels split there
    read their halves from it, so a call is made only once they run out.
    Values and errors are then summed bottom-up, left + right.
    """
    if x0.size == 0:
        return x0, x0
    nodes, depth = GAUSS_NODES, MAX_SUBDIVISIONS
    # a row per panel: its left end, midpoint and right end
    ends = _columns(x0, 0.5 * (x0 + x1), x1)
    coarse, *ahead = _halves_ahead(g, nodes, owner, ends, depth, True)
    coarse, levels = coarse[:, 0], []
    while True:
        halves = ahead[0]
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - coarse)
        accept = err <= cfg.rel_tol * np.maximum(np.abs(fine), ABS_TOL)
        accept |= ~np.isfinite(fine) | (depth <= 0)
        split = np.flatnonzero(~accept)
        levels.append((fine, err, split))
        if not split.size:
            break
        # the halves of each split panel, left then right, in its place
        ends, coarse, owner = ends[split], halves[split].ravel(), owner[split].repeat(2)
        x0, x1 = ends[:, :2].ravel(), ends[:, 1:].ravel()
        ends = _columns(x0, 0.5 * (x0 + x1), x1)
        depth -= 1
        # a panel's 2^j sub-panels of depth j are its halves' 2^(j-1) each
        ahead = [sums.reshape(-1, 2, sums.shape[1] // 2)[split].reshape(owner.size, -1) for sums in ahead[1:]]
        if not ahead:
            ahead = _halves_ahead(g, nodes, owner, ends, depth, False)
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
    the seams, and if asked over (0, lo) and (hi, infinity) by walks."""

    lo: float
    hi: float
    breakpoints: Tuple[float, ...]
    down: bool = False
    up: bool = False


class _Walk:
    """Panels of one integral from edge toward 0 or infinity, _BLOCK at a
    time, taken one at a time until 8 quiet panels in a row or the 1e-280 /
    1e280 edge: panels whose geometric rest is below rel_tol of the running
    total of the integral, v^2 / (u - v) for a panel v that keeps more than
    half of the panel u before it (a slow tail t^-(1+e), e < 1), else v."""

    def __init__(self, owner: int, edge: float, down: bool, cfg: QuadratureConfig):
        self.owner, self.edge, self.down, self.cfg = owner, edge, down, cfg
        self.total = self.err = 0.0
        self.quiet = self.done = 0
        self.last_value = math.inf

    def block(self) -> tuple:
        """(owner, x0, x1) of the next block of panels."""
        factors = _HALVES if self.down else _DOUBLES
        outer = self.edge * factors[:min(_BLOCK, self.cfg.max_panels - self.done) + 1]
        past = outer[1:] < 1e-280 if self.down else outer[1:] > 1e280
        # the block ends with its first panel past the float edge, if any
        self.last = past.any()
        if self.last:
            outer = outer[:np.argmax(past) + 2]
        self.edge = outer[-1]
        return (self.owner, outer[1:], outer[:-1]) if self.down else (self.owner, outer[:-1], outer[1:])

    def take(self, values: np.ndarray, errors: np.ndarray, outside: float):
        """(total, error) once the walk stops within the block, a
        QuadratureError once its budget is spent, else None; outside is
        what the integral has summed outside the walk."""
        cfg = self.cfg
        tol, floor = cfg.rel_tol, ABS_TOL
        total, err, quiet, before = self.total, self.err, self.quiet, self.last_value
        for val, e in zip(values.tolist(), errors.tolist()):
            total += val
            err += e
            # rel_tol * max(total + outside, floor), max as Python's
            scale = total + outside
            rest = val * val / (before - val) if 0.5 * before < val < before else val
            if rest <= tol * (floor if floor > scale else scale):
                quiet += 1
                if quiet >= 8:
                    return total, err
            else:
                quiet = 0
            before = val
        if self.last:
            return total, err
        self.total, self.err, self.quiet, self.done = total, err, quiet, self.done + _BLOCK
        self.last_value = before
        if self.done < cfg.max_panels:
            return None
        return QuadratureError(f"panel budget exhausted extending toward {'zero' if self.down else 'infinity'}")


def integrate(g, integrals, cfg: QuadratureConfig) -> list:
    """(integral, summed error estimates) of g over each integrals[i], or
    the QuadratureError that ended it: one session.  g(t, owner) takes the
    points t in owner.size rows of equal length; row j belongs to integral
    owner[j], and rows come in order of owner.

    The panels of every [lo, hi] share one bisection pass with the first
    block of every walk.  Then the walks toward 0 take their next blocks in
    lockstep, one pass per step, judged quiet against their middle total;
    then the walks toward infinity, against the middle total and the walk
    toward 0.  Each integral keeps its own panels, tests, walks and budget,
    so it gets the sums a session of its own would.
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
                part = walk.take(*block, total)
                if isinstance(part, tuple):
                    results[walk.owner] = total + part[0], err + part[1]
                elif part is None:
                    pending.append(walk)
                else:
                    results[walk.owner] = part
            going = list(zip(pending, run([walk.block() for walk in pending]))) if pending else []
    return results
