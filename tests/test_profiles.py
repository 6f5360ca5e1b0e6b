"""Edge records against the functions they describe.

Every catalog profile, bare, inverted and modulated, is drawn with random
rational parameters.  The declared record at each end must match the
measured behaviour of f and f' there: the log-log slope between t and 2t
is the declared power, the ratio to coef t^power tends to 1, None means
the function vanishes identically, a declared exact region reproduces
the function to rounding, and elsewhere the stated bound on the
next-order term holds at every sampled point of its region.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rational
from ckn.derived import derive
from ckn.params import Params
from ckn.probes import verify_instance
from ckn.profiles import (
    InvertedProfile,
    LogModulated,
    PiecewisePower,
    PowerBump,
    PowerModulated,
    PowerTail,
    TruncatedPrimitive,
)
from oracle_panels import PowerCutoffInner, SmoothBump

F = Fraction
PROBES = (1e-6, 1e6)  # t near 0 and near infinity
SLOPE_TOL = 1e-3
EXACT_TOL = 1e-12


def _nonzero(rng, lo, hi):
    while True:
        x = rational(rng, lo, hi)
        if x != 0:
            return x


def _catalog(rng: random.Random) -> list:
    alpha, beta = rational(rng, -3, 3), rational(rng, -3, 3)
    width = float(rational(rng, 1, 3))
    x1 = float(rational(rng, 1, 4))
    x2 = x1 + float(rational(rng, 1, 4))
    return [
        PowerCutoffInner(rational(rng, -3, 3)),
        PowerTail(alpha, beta),
        PowerTail(alpha, F(0)),
        PowerTail(F(0), _nonzero(rng, -3, 3)),
        PowerTail(F(0), F(0)),
        PowerTail(alpha, alpha),
        SmoothBump(float(rational(rng, -1, 1)) * width * 0.9, width),
        SmoothBump(0.0, width),
        PowerBump(0, 2, 2),
        PowerBump(rational(rng, -3, 3), rational(rng, 1, 4), rng.choice([F(2), F(5, 2), F(3)])),
        PowerBump(F(0), rational(rng, 1, 4), F(rng.randint(2, 4))),
        PowerBump(_nonzero(rng, -3, 3), F(1), F(2)),
        PiecewisePower(
            [
                (float(_nonzero(rng, -3, 3)), rational(rng, -3, 3), -math.inf, math.log(x1)),
                (float(_nonzero(rng, -3, 3)), F(0), math.log(x1), math.log(x2)),
                (float(_nonzero(rng, -3, 3)), rational(rng, -3, 3), math.log(x2), math.inf),
            ]
        ),
        PiecewisePower([(float(_nonzero(rng, -3, 3)), rational(rng, -3, 3), math.log(x1), math.inf)]),
        PiecewisePower([(float(_nonzero(rng, -3, 3)), rational(rng, -3, 3), -math.inf, x1)]),
        PiecewisePower([(float(_nonzero(rng, -3, 3)), rational(rng, -3, 3), -x1, math.inf)]),
        PiecewisePower([(float(_nonzero(rng, -3, 3)), F(0), -math.inf, -x1)]),
        TruncatedPrimitive(rational(rng, -2, 3), float(rational(rng, 1, 10))),
        LogModulated(rational(rng, -2, 2), 0.5),
    ]


def _profiles(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for base in _catalog(rng):
        eps = 1.0 / (3.0 + rng.random())  # equals no catalog power
        out += [base, InvertedProfile(base), PowerModulated(base, eps)]
    return out


def _check_end(values, edge, t: float, what: str) -> None:
    pts = np.array([t, 2.0 * t])
    v = values(pts)
    if edge is None:
        far = np.array([t * 1e-3, t, 2.0 * t]) if t < 1 else np.array([t, 2.0 * t, t * 1e3])
        assert np.all(values(far) == 0.0), f"{what}: declared None but f != 0 near t={t}"
        return
    assert np.all(v != 0.0), f"{what}: declared power {edge.power} but f == 0 near t={t}"
    slope = math.log(abs(v[1] / v[0])) / math.log(2.0)
    assert abs(slope - float(edge.power)) <= SLOPE_TOL, (
        f"{what}: measured slope {slope} vs declared {edge.power} at t={t}"
    )
    ratio = v[0] / (edge.coef * t ** float(edge.power))
    assert abs(ratio - 1.0) <= SLOPE_TOL, f"{what}: coefficient off by ratio {ratio} at t={t}"


def _check_exact(values, edge, at_zero: bool, what: str) -> None:
    if edge is None or edge.exact is None:
        return
    x = edge.exact
    if at_zero:
        pts = [1e-3, 1.0, 1e3] if x == math.inf else [x * f for f in (1e-6, 1e-2, 0.5, 0.999)]
    else:
        pts = [1e-3, 1.0, 1e3] if x == 0.0 else [x * f for f in (1.001, 2.0, 1e2, 1e6)]
    pts = np.array(pts)
    want = edge.coef * pts ** float(edge.power)
    got = values(pts)
    assert np.allclose(got, want, rtol=EXACT_TOL, atol=0.0), (
        f"{what}: exact region beyond {x} does not reproduce the function"
    )


def _check_bound(values, edge, at_zero: bool, what: str) -> None:
    """|f / (coef t^power) - 1| <= k t^delta from the reach toward the end,
    in steps of 2^(1/4) over 40 octaves, to rounding."""
    if edge is None or edge.exact is not None:
        return
    assert edge.bound is not None, f"{what}: no bound on a record without an exact region"
    k, delta, reach = edge.bound
    steps = 2.0 ** (np.arange(161) / 4.0)
    pts = reach / steps if at_zero else reach * steps
    off = np.abs(values(pts) / (edge.coef * pts ** float(edge.power)) - 1.0)
    allowed = k * pts ** (delta if at_zero else -delta)
    assert np.all(off <= allowed * (1.0 + 1e-12) + EXACT_TOL), f"{what}: the bound {edge.bound} fails"


@pytest.mark.parametrize("seed", range(12))
def test_edge_records_match_measured_behaviour(seed):
    for profile in _profiles(seed):
        edges = profile.edges()
        derived = tuple(None if e is None else e.derivative() for e in edges)
        for name, values, records in (("f", profile.value, edges), ("f'", profile.derivative, derived)):
            for t, edge, at_zero in zip(PROBES, records, (True, False)):
                what = f"{name} of {profile!r}"
                _check_end(values, edge, t, what)
                _check_exact(values, edge, at_zero, what)
                _check_bound(values, edge, at_zero, what)


def test_verify_case_one_with_constant_power_tail_member():
    # default family member 6 is PowerTail(-98/23, 0) here
    params = Params(3, F(23, 6), F(2), F(5, 2), F(-6), F(-47, 6), F(-22, 3))
    report = verify_instance(params, derive(params).theta_c)
    assert report.ok, report.failure
