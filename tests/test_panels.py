"""The batched panel integrator against the depth-first oracle."""

import random
from fractions import Fraction

import numpy as np

import ckn.panels as panels
import ckn.quadrature as quadrature
import oracle_panels
from oracle_panels import PanelTail, PowerCutoffInner, SmoothBump, panel_integral
from ckn.classify import Reason, classify
from ckn.params import Params, kelvin_params
from ckn.probes import compute_norms
from ckn.profiles import Bound, Edge, InvertedProfile, PowerBump, RadialProfile, TruncatedPrimitive
from ckn.quadrature import (
    DEFAULT_CONFIG,
    NormStatus,
    QuadratureConfig,
    surface_area,
    weighted_norm,
    weighted_norm_gradient,
    weighted_norms,
)
from ckn.testfunctions import first_harmonic, radial
from ckn.witnesses import witness_for_verdict
from conftest import random_params, rational

F = Fraction


class Plateau(RadialProfile):
    """1 on (0, 1], then 1 / (1 + (t - 1)^2): an exact head, a bounded tail.
    With x = 1/t the tail is t^-2 / (1 - 2x + 2x^2), within (2x - 2x^2) /
    (1 - 2x) <= 4x of t^-2 for t >= 4."""

    breakpoints = (1.0,)

    def value(self, t):
        return 1.0 / (1.0 + np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0) ** 2)

    def edges(self):
        return (Edge(1.0, F(0), exact=1.0), Edge(1.0, F(-2), bound=Bound(4.0, 1.0, 4.0)))


def both(monkeypatch, norm, u, d, s, n, cfg=DEFAULT_CONFIG):
    """The norm from the batched integrator, then from the oracle, which
    must have integrated at least one panel integral."""
    batched = norm(u, d, s, n, cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return panel_integral(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "integrate", oracle_panels.integrate)
        m.setattr(oracle_panels, "panel_integral", counted)
        oracle = norm(u, d, s, n, cfg)
    assert calls, "the oracle never ran"
    return batched, oracle


def assert_same(batched, oracle):
    assert batched.status is oracle.status
    if batched.status is NormStatus.FINITE:
        assert abs(batched.log_value - oracle.log_value) <= 1e-12
    else:
        assert batched.detail == oracle.detail


def power_tail(rng, n, d, s):
    """A PanelTail whose weighted s-norm converges at both ends, its
    integrand's exponents at least 1/2 from critical."""
    crit = (d + n) / s
    return PanelTail(crit - F(1, 2) - rational(rng, 0, 2), crit + F(1, 2) + rational(rng, 0, 2))


def bump(rng):
    return SmoothBump(float(rational(rng, 0, 5)), float(rational(rng, 0, 2) + F(1, 4)))


def test_radial_norms_match_oracle(monkeypatch):
    rng = random.Random(515)
    for _ in range(200):
        n, s = rng.randint(1, 5), 1 + rational(rng, 0, 3)
        d = rational(rng, -n + 1, 4)
        profile = power_tail(rng, n, d, s) if rng.random() < 0.6 else bump(rng)
        batched, oracle = both(monkeypatch, weighted_norm, radial(profile), d, s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_first_harmonic_gradient_norms_match_oracle(monkeypatch):
    rng = random.Random(516)
    for _ in range(40):
        n, p = rng.randint(2, 5), 1 + rational(rng, 0, 3)
        # f' and f/t carry one power less than f: b - p plays the role of d
        b = p + rational(rng, -n + 1, 4)
        profile = power_tail(rng, n, b - p, p) if rng.random() < 0.5 else bump(rng)
        batched, oracle = both(monkeypatch, weighted_norm_gradient, first_harmonic(profile), b, p, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_first_harmonic_power_bump_gradients_match_oracle(monkeypatch):
    # a power bump's radial norms are closed forms, but its first-harmonic
    # gradients take panels, closed at 0 by the records of f' and f/t:
    # alpha below, or at a third of the draws equal to, 0, and at least 1/2
    # from critical at 0, where f/t ~ t^(-alpha-1)
    rng = random.Random(517)
    for i in range(30):
        n, p = rng.randint(2, 5), 1 + rational(rng, 0, 3)
        b = p + rational(rng, -n + 1, 4)
        alpha = F(0) if i % 3 == 0 else (b + n) / p - 1 - F(1, 2) - rational(rng, 0, 3)
        profile = PowerBump(alpha, rng.choice([F(1), F(3, 2), F(2), F(4)]), rng.choice([F(2), F(5, 2), F(3)]))
        batched, oracle = both(monkeypatch, weighted_norm_gradient, first_harmonic(profile), b, p, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_near_critical_ends_match_oracle(monkeypatch):
    # exponent 1/1000 from critical at each end, where the walks once ran to
    # t = 1e-280 and 1e280: the panels stop at the cuts of the closed ends
    for alpha, beta in ((F(2, 3) - F(1, 1000), F(3)), (F(0), F(2, 3) + F(1, 1000))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(PanelTail(alpha, beta)), F(0), F(3), 2)
        assert batched.finite
        assert_same(batched, oracle)


def test_an_exact_head_and_a_bounded_tail_match_oracle(monkeypatch):
    for n, s in ((1, F(1)), (3, F(2)), (3, F(5, 2))):
        batched, oracle = both(monkeypatch, weighted_norm, radial(Plateau()), F(0), s, n)
        assert batched.finite
        assert_same(batched, oracle)


def test_a_first_harmonic_plateau_tail_is_closed_past_every_seam():
    # f/t of TruncatedPrimitive(1/2, 2) turns from the primitive to the
    # plateau P at e^2, and f' is 0 past it: the reading is P/t times H at
    # rho = 0 there, a closed piece, and the panels cover [1, e^2] alone.
    # The reference integrates the same reading over [1, e^2], tighter, and
    # the tail t^(b + n - 1) (P H^(1/p) / t)^p in closed form
    base, b, p, n = TruncatedPrimitive(F(1, 2), 2.0), F(-1), F(3, 2), 2
    reading = quadrature._first_harmonic_gradient(n, float(p))

    def g(t):
        return t ** float(b + n - 1) * np.abs(reading(base, t, 1.0)) ** float(p)

    total, _ = panel_integral(g, 1.0, base.n, base.breakpoints, QuadratureConfig(rel_tol=1e-13))
    e1 = float(b + n - 1 - p) + 1.0  # the tail's exponent plus 1
    lead = float(reading.combine(np.zeros(1), np.array([base.plateau()]))[0])
    total += lead ** float(p) * base.n ** e1 / -e1
    want = (np.log(surface_area(n)) + np.log(total)) / float(p)
    got = weighted_norm_gradient(first_harmonic(base), b, p, n)
    assert got.finite and got.error <= 1e-9
    assert abs(got.log_value - want) <= got.error / float(p)


# ---------------------------------------------------------------------------
# halves of several depths per integrand call on small frontiers
# ---------------------------------------------------------------------------

def prefetch_corpus():
    """Norm sessions of a seeded corpus: cutoffs at random alpha, d and s,
    bumps and PanelTails, each norm in a session of its own (small
    frontiers) and all of them in one session, plus two first-harmonic
    gradient norms."""
    rng = random.Random(1414)
    jobs = []
    for _ in range(60):
        n, s = rng.randint(1, 5), 1 + rational(rng, 0, 3)
        d = rational(rng, -n + 1, 4)
        kind = rng.random()
        if kind < 0.6:
            # mostly convergent: alpha below (d + n)/s for the inner cutoff,
            # above it for the outer
            crit, shift = (d + n) / s, rational(rng, -1, 3)
            profile = PowerCutoffInner(crit - shift) if rng.random() < 0.5 else InvertedProfile(PowerCutoffInner(-crit - shift))
        elif kind < 0.8:
            profile = bump(rng)
        else:
            profile = power_tail(rng, n, d, s)
        jobs.append((radial(profile), d, s, n, rng.random() < 0.5))
    sessions = [weighted_norms([job]) for job in jobs] + [weighted_norms(jobs)]
    # the 2-D gradient of first harmonics, whose integrand takes a dot product per point
    sessions += [[weighted_norm_gradient(first_harmonic(profile), F(1), F(3, 2), 3)]
                 for profile in (PowerCutoffInner(F(1, 2)), InvertedProfile(PowerCutoffInner(F(-5, 2))))]
    return [(norm.status, norm.detail, norm.value.hex(), norm.log_value.hex(), norm.error.hex())
            for session in sessions for norm in session]


def test_prefetched_halves_give_the_sums_of_one_depth_per_call(monkeypatch):
    calls = []
    gauss_sums = panels._gauss_sums

    def counted(*args):
        calls.append(args[3].size)
        return gauss_sums(*args)

    monkeypatch.setattr(panels, "_gauss_sums", counted)
    with monkeypatch.context() as m:
        m.setattr(panels, "_PREFETCH", 0)  # one depth per call, as without the prefetch
        one_depth = prefetch_corpus()
    one_depth_calls, calls[:] = len(calls), []
    prefetched = prefetch_corpus()
    assert prefetched == one_depth
    assert sum(status is NormStatus.FINITE for status, *_ in prefetched) > 90
    # and the prefetch did take the place of calls
    assert len(calls) < 0.6 * one_depth_calls


def test_depths_ahead_stay_within_the_budget_and_the_subdivisions():
    nodes = panels.GAUSS_NODES
    for panels_, depth, coarse in ((1, 12, True), (2, 12, True), (2, 12, False), (3, 12, False),
                                   (10, 12, False), (11, 12, False), (64, 12, True), (1, 2, False),
                                   (1, 0, False)):
        count = panels._depths_ahead(panels_, depth, nodes, coarse)
        assert 1 <= count <= min(panels._AHEAD, depth + 1)
        points = panels_ * nodes * (2 ** (count + 1) - 2 + coarse)
        assert count == 1 or points <= panels._PREFETCH
    assert panels._depths_ahead(2, 12, nodes, False) == 4
    assert panels._depths_ahead(1, 2, nodes, False) == 3
    assert panels._depths_ahead(64, 12, nodes, True) == 1


def hull_witnesses(count):
    """The first member of the witness family of count COutsideHull instances."""
    rng, found = random.Random(1415), []
    while len(found) < count:
        params = random_params(rng)
        verdict = classify(params)
        if verdict.reason is Reason.C_OUTSIDE_HULL:
            found.append((params, witness_for_verdict(params, verdict).member(0)))
    return found


def refused(*args):
    raise AssertionError("a cutoff witness asked for a panel integral")


def test_a_c_outside_hull_member_takes_no_integrand_call(monkeypatch):
    # a cutoff witness is a power bump, or its inversion at infinity, whose
    # norms are Beta values and 2F1s
    monkeypatch.setattr(quadrature, "_radial_integrand", refused)
    monkeypatch.setattr(quadrature, "integrate", refused)
    kinds = set()
    for params, u in hull_witnesses(20):
        triple = compute_norms(params, u)
        kinds.add(type(u.profile))
        assert triple.target.status is NormStatus.DIVERGENT
        assert triple.source.finite and triple.grad.finite
    assert kinds == {PowerBump, InvertedProfile}


def cutoff_instances(count):
    """count COutsideHull and COutsideOppositeSideWindow instances, in turn
    a random draw, a draw with b far below -N, so that a plateau at 0
    takes g >= 5, and a draw at c = -N, where alpha = 0; each is Kelvin
    mirrored half the time, which puts its cutoff at the other end."""
    rng, found, draws = random.Random(1416), [], 0
    while len(found) < count:
        params, draws = random_params(rng), draws + 1
        n, p = params.n, params.p
        if draws % 3 == 1:
            a, c = -n + rational(rng, 0, 3) + F(1, 7), -n - rational(rng, 0, 4)
            params = Params(n, p, params.q, params.r, a, -n - rational(rng, 3, 8) * p, c)
        elif draws % 3 == 2:
            params = params.with_c(F(-n))
        if rng.random() < 0.5:
            params = kelvin_params(params)
        verdict = classify(params)
        if verdict.reason in (Reason.C_OUTSIDE_HULL, Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW):
            found.append((params, witness_for_verdict(params, verdict).member(0).profile))
    return found


def test_every_cutoff_certificate_is_closed_form_with_finite_source_norms(monkeypatch):
    # near a plateau f' ~ -2g t^(g-1), and g is the least integer that keeps
    # it in the source space: 5 or more where b + N <= -3p, where g = 1
    # would leave the gradient norm divergent
    monkeypatch.setattr(quadrature, "integrate", refused)
    seen = set()
    for params, profile in cutoff_instances(330):
        reason, inverted = classify(params).reason, isinstance(profile, InvertedProfile)
        bump = profile.inner if inverted else profile
        assert type(bump) is PowerBump and bump.m == 2
        triple = compute_norms(params, radial(profile))
        what = (params, bump.descriptor(), inverted)
        assert triple.target.status is NormStatus.DIVERGENT, what
        assert triple.target.detail == ("non-integrable at infinity" if inverted else "non-integrable at zero"), what
        assert triple.source.finite and triple.grad.finite, what
        if reason is Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW and bump.g >= 5:
            seen.add(("plateau, g >= 5", inverted))
        elif reason is Reason.C_OUTSIDE_HULL and bump.alpha == 0:
            seen.add(("c = -N", inverted))
    assert seen == {(kind, inverted) for kind in ("plateau, g >= 5", "c = -N") for inverted in (False, True)}
