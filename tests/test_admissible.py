"""Admissible intervals and multiplicative exponent sets."""

import random
from fractions import Fraction

import pytest

from ckn.admissible import ThetaSetKind, admissible_set, theta_set
from ckn.classify import classify
from ckn.derived import derive
from ckn.params import Params

from conftest import random_params
from oracle_admissible import oracle_admissible_set

F = Fraction


def make(n, p, q, r, a, b, c=0):
    return Params(n=n, p=F(p), q=F(q), r=F(r), a=F(a), b=F(b), c=F(c))


def grid_probe(params, a_set, points=220):
    """Cross-check set membership against the classifier on a rational grid
    spanning the hull plus a margin, plus all structural breakpoints."""
    d = derive(params)
    lo = min(d.c0, d.c1) - 1
    hi = max(d.c0, d.c1) + 1
    step = (hi - lo) / points
    grid = [lo + k * step for k in range(points + 1)]
    grid += [d.c0, d.c1, F(-params.n), d.c_star]
    if d.theta_bar is not None:
        grid.append(d.c_bar)
    for c in grid:
        want = classify(params.with_c(c)).embeds
        got = a_set.contains(c)
        assert got == want, (params, c, got, want)


# ---------------------------------------------------------------------------
# reference sets
# ---------------------------------------------------------------------------

def test_full_closed_interval():
    params = make(3, 2, 2, 2, 0, 0)
    s = admissible_set(params)
    assert s.interval is not None
    assert (s.interval.lo, s.interval.hi) == (F(-2), F(0))
    assert s.interval.lo_included and s.interval.hi_included
    assert s.isolated_points == ()
    grid_probe(params, s)


def test_closed_interval_with_larger_r():
    params = make(3, 2, 4, 4, 0, 0)
    s = admissible_set(params)
    assert (s.interval.lo, s.interval.hi) == (F(-1), F(0))
    assert s.interval.lo_included and s.interval.hi_included
    grid_probe(params, s)


def test_isolated_identity_point():
    # theta-condition forces theta <= 0; only the r = q endpoint survives
    params = make(3, 2, 8, 8, 0, 0)
    s = admissible_set(params)
    assert s.interval is None
    assert s.isolated_points == (F(0),)
    grid_probe(params, s)


def test_isolated_gradient_endpoint_at_critical_r():
    # r = p* > q: interior needs theta >= 1, only c1 survives via case IV
    params = make(3, 2, 2, 6, 0, 0)
    s = admissible_set(params)
    assert s.interval is None
    assert s.isolated_points == (derive(params).c1,)
    grid_probe(params, s)


def test_empty_when_r_too_large():
    params = make(3, 2, 2, 7, 0, 0)
    assert admissible_set(params).is_empty


def test_equal_slopes_point_set():
    params = make(3, 2, 2, 2, -2, 0)
    s = admissible_set(params)
    assert s.interval is None
    assert s.isolated_points == (F(-2),)
    grid_probe(params, s)


def test_equal_slopes_empty_small_r():
    params = make(3, 2, 3, 1, "-3/2", 0)
    assert admissible_set(params).is_empty


def test_opposite_sides_window():
    params = make(3, 2, 2, 2, 0, -2)
    s = admissible_set(params)
    # window (-3, 0]: c0 = 0 included since r = q
    assert s.interval.lo == F(-3) and not s.interval.lo_included
    assert s.interval.hi == F(0) and s.interval.hi_included
    grid_probe(params, s)


def test_random_consistency_with_classifier():
    rng = random.Random(31)
    for _ in range(60):
        params = random_params(rng)
        grid_probe(params, admissible_set(params), points=60)


def _oracle_lines(rng):
    """Random, equal-slope and eta = 0 (a = -N, b = p - N) lines."""
    for _ in range(300):
        yield random_params(rng)
    for _ in range(100):
        yield random_params(rng, require_equal_slopes=True)
    for _ in range(100):
        params = random_params(rng)
        yield make(params.n, params.p, params.q, params.r, -params.n, params.p - params.n)


def test_admissible_set_matches_theta_window_oracle():
    rng = random.Random(41)
    for params in _oracle_lines(rng):
        oracle = oracle_admissible_set(params)
        assert admissible_set(params).as_dict() == oracle.as_dict(), params
        d = derive(params)
        marks = {d.c0, d.c1, F(-params.n)}
        if d.c_bar is not None:
            marks.add(d.c_bar)
        marks = sorted(marks)
        midpoints = [(x + y) / 2 for x, y in zip(marks, marks[1:])]
        for c in marks + midpoints + [marks[0] - 1, marks[-1] + 1]:
            assert classify(params.with_c(c)).embeds == oracle.contains(c), (params, c)


# ---------------------------------------------------------------------------
# theta sets
# ---------------------------------------------------------------------------

def test_theta_single_at_distinct_slopes():
    ts = theta_set(make(3, 2, 2, 2, 0, 0, -1))
    assert ts.kind is ThetaSetKind.SINGLE
    assert ts.theta == F(1, 2)


def test_theta_closed_range_equal_slopes():
    ts = theta_set(make(3, 2, 4, 3, -1, 0, "-3/2"))
    assert ts.kind is ThetaSetKind.CLOSED_RANGE
    assert (ts.lo, ts.hi) == (F(1, 3), F(1))


def test_theta_empty_in_exceptional_case():
    ts = theta_set(make(2, 2, 2, 4, -2, 0, -2))
    assert ts.kind is ThetaSetKind.EMPTY
    assert "multiplicative" in ts.note


def test_theta_exceptional_case_dimension_one():
    params = make(1, 2, 2, 4, -1, 1, -1)
    assert classify(params).embeds
    ts = theta_set(params)
    assert ts.kind is ThetaSetKind.SINGLE
    assert ts.theta == derive(params).theta_breve


def test_theta_trivial_zero():
    ts = theta_set(make(2, 2, 2, 2, -2, 0, -2))
    assert ts.kind is ThetaSetKind.TRIVIAL_ZERO


def test_theta_single_one_beyond_interpolation_range():
    # equal slopes, max{p,q} < r <= p*: only the pure gradient bound is known
    params = make(3, 2, "3/2", 4, "-9/4", 0, -1)
    d = derive(params)
    assert d.slopes_equal and d.eta == F(1, 2)
    ts = theta_set(params)
    assert ts.kind is ThetaSetKind.SINGLE and ts.theta == 1


def test_theta_single_low_when_r_below_p():
    # equal slopes, q <= r < p: theta = p(r-q)/(r(p-q))
    params = make(3, 4, 2, 3, -2, 3, "-3/2")
    ts = theta_set(params)
    assert ts.kind is ThetaSetKind.SINGLE
    assert ts.theta == F(4 * (3 - 2), 3 * (4 - 2))  # = 2/3


def test_theta_requires_embedding():
    with pytest.raises(ValueError):
        theta_set(make(3, 2, 2, 7, 0, 0, 0))


def test_theta_single_satisfies_interpolation_identity():
    rng = random.Random(37)
    count = 0
    while count < 120:
        params = random_params(rng, require_distinct_slopes=True)
        if not classify(params).embeds:
            continue
        ts = theta_set(params)
        assert ts.kind is ThetaSetKind.SINGLE
        d = derive(params)
        theta = ts.theta
        assert (params.c + params.n) / params.r == theta * d.slope_b + (
            1 - theta
        ) * d.slope_a
        count += 1
