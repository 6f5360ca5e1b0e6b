"""The per-member path of falsify walks and of weighted_norms calls.

`falsify_instance` reads each witness member's three norms through the
module-level `probes.compute_norms`, once per trace entry and in order:
that name is what a caller wraps to see every member's norms.  Each
`weighted_norms` call reads each (d, s, n) value once, into one
`quadrature._Exponents` that value-equal ints, Fractions and floats share,
and a norm that needs no panel integral reaches the session as its value.
"""

import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ckn.probes as probes
import ckn.quadrature as quadrature
from ckn.classify import Reason, classify
from ckn.derived import derive
from ckn.params import kelvin_params
from ckn.probes import default_verification_family, falsify_instance, verify_instance
from ckn.profiles import LogModulated, PowerBump, PowerTail
from ckn.quadrature import DEFAULT_CONFIG, NormValue, weighted_norms
from ckn.testfunctions import dilate, first_harmonic, radial, translated
from ckn.witnesses import witness_for_verdict
from oracle_panels import PowerCutoffInner, SmoothBump
from test_witnesses import FIXTURES, make

F = Fraction


# one walk of each witness kind the families build, by (kind, mode); the
# four cutoffs are certificates of one member
WALKS = {
    ("translated_shrinking_bump", "sup_dilation"): FIXTURES[Reason.R_OUT_OF_RANGE],
    ("translated_bump", "sup_dilation"): FIXTURES[Reason.THETA_CONDITION_FAILS],
    ("inner_power_cutoff", "certificate"): FIXTURES[Reason.C_OUTSIDE_HULL],
    ("outer_power_cutoff", "certificate"): kelvin_params(FIXTURES[Reason.C_OUTSIDE_HULL]),
    ("plateau_cutoff", "certificate"): FIXTURES[Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW],
    ("plateau_cutoff_inverted", "certificate"): kelvin_params(FIXTURES[Reason.C_OUTSIDE_OPPOSITE_SIDE_WINDOW]),
    ("indicator_band", "sup_dilation"): FIXTURES[Reason.ENDPOINT_C0_WRONG_R],
    ("vanishing_power", "sup_dilation"): make(3, 2, 4, 2, 0, 0, "-3/2"),
    ("truncated_primitive", "sup_dilation"): FIXTURES[Reason.ENDPOINT_C1_SMALL_R],
    ("truncated_primitive_eps", "sup_dilation"): make(3, 2, 2, 1, -3, "-51/50", "-301/100"),
    ("log_window", "direct"): FIXTURES[Reason.EQUAL_SLOPES_SMALL_R],
}

# D5: walks that reach no verdict within their index budget
NO_VERDICT = {("translated_shrinking_bump", "sup_dilation"): make(4, "13/6", 4, 5, "-29/6", "-9/2", -8),
              ("translated_bump", "sup_dilation"): make(4, "11/3", 1, 2, 5, -7, 3)}


def walk(monkeypatch, params):
    """The report of falsify_instance(params), and the (member, triple) of
    each call it made to probes.compute_norms, in order."""
    calls, compute_norms = [], probes.compute_norms

    def recorded(at, u, *args, **kwargs):
        triple = compute_norms(at, u, *args, **kwargs)
        calls.append((u, triple))
        return triple

    with monkeypatch.context() as patch:
        patch.setattr(probes, "compute_norms", recorded)
        report = falsify_instance(params)
    return report, calls


@pytest.mark.parametrize("kind, params, ok", [(kind, params, True) for kind, params in WALKS.items()]
                         + [(kind, params, False) for kind, params in NO_VERDICT.items()],
                         ids=[kind for kind, _ in WALKS] + ["d5_r_out_of_range", "d5_theta"])
def test_a_walk_reads_each_member_through_compute_norms_once_in_order(monkeypatch, kind, params, ok):
    verdict = classify(params)
    witness = witness_for_verdict(params, verdict)
    assert (witness.kind, witness.mode) == kind
    report, calls = walk(monkeypatch, params)
    assert report.ok == ok, report.failure
    assert report.certificate == (witness.mode == "certificate")
    assert len(calls) == len(report.trace) > 0
    d = verdict.derived
    slopes = (float((params.c + params.n) / params.r), float(d.slope_a), float(d.slope_b))
    for index, ((u, triple), entry) in enumerate(zip(calls, report.trace)):
        assert entry.index == index
        assert u.descriptor() == witness.member(index).descriptor()
        assert repr(triple) == repr(probes.compute_norms(params, witness.member(index)))
        if entry.certificate:
            assert not triple.target.finite
        elif witness.mode == "sup_dilation":
            assert entry.log_ratio == probes._sup_dilation_log_ratio(slopes, triple)
        else:
            assert entry.log_ratio == probes._log_additive_ratio(triple)


# ---------------------------------------------------------------------------
# one _Exponents per (d, s, n) value
# ---------------------------------------------------------------------------

def bits(norm):
    return norm.status, norm.detail, norm.value.hex(), norm.log_value.hex(), norm.error.hex()


# value-equal exponents as int, Fraction and float; -3/2 and 5/2 have no int
EXPONENTS = [[(-1, 2), (F(-1), F(2)), (-1.0, 2.0), (F(-1), 2.0), (-1.0, F(2))],
             [(F(-3, 2), F(5, 2)), (-1.5, 2.5), (F(-3, 2), 2.5)]]
MEMBERS = [radial(PowerBump(F(1, 4), 2, 2)), dilate(radial(PowerBump(F(1, 4), 2, 2)), 3.0), radial(SmoothBump(1.0, 0.5)),
           translated(PowerBump(0, 2, 2), 8.0), first_harmonic(PowerTail(F(-1, 2), F(4)))]


def test_int_fraction_and_float_exponents_share_one_exponents(monkeypatch):
    built, seen, norm = [], [], quadrature._norm

    class Recorded(quadrature._Exponents):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(quadrature, "_Exponents", Recorded)
    monkeypatch.setattr(quadrature, "_EXPONENTS", {})
    monkeypatch.setattr(quadrature, "_norm", lambda u, exps, *rest: seen.append(exps) or norm(u, exps, *rest))
    jobs = [(u, d, s, 3, gradient) for equal in EXPONENTS for d, s in equal for u in MEMBERS
            for gradient in (False, True)]
    together = weighted_norms(jobs)
    assert len(built) == len(EXPONENTS) and len(seen) == len(jobs)
    start = 0
    for exps, equal in zip(built, EXPONENTS):
        stop = start + len(equal) * len(MEMBERS) * 2
        assert {id(shared) for shared in seen[start:stop]} == {id(exps)}
        start = stop
    alone = [weighted_norms([job])[0] for job in jobs]
    assert [bits(norm) for norm in together] == [bits(norm) for norm in alone]
    # one _Exponents per types and pairs, kept across calls
    typed = sum(len({(type(d), type(s)) for d, s in equal}) for equal in EXPONENTS)
    assert len(built) == typed
    weighted_norms(jobs)
    assert len(built) == typed


# ---------------------------------------------------------------------------
# norms that need no panel integral are values
# ---------------------------------------------------------------------------

def test_only_norms_whose_plan_has_a_range_reach_the_session_as_generators():
    exps, plans = quadrature._Exponents(F(-1), F(2), 3), {}

    def norm(u, gradient=False, at=exps):
        return quadrature._norm(u, at, gradient, plans, DEFAULT_CONFIG.rel_tol)

    values = [
        norm(translated(PowerBump(0, 2, 2), 8.0)),  # a series
        norm(translated(PowerBump(0, 2, 2), 8.0), True),
        norm(dilate(radial(PowerBump(F(1, 4), 2, 2)), 3.0)),  # closed pieces alone
        norm(dilate(radial(PowerBump(F(1, 4), 2, 2)), 3.0), True),
        norm(first_harmonic(PowerTail(F(-1, 2), F(4)))),  # closed, with the angular moment
        norm(radial(PowerTail(F(5), F(6)))),  # divergent at 0
        # failed: a float exponent past the exact verdict
        norm(radial(PowerCutoffInner(F(3, 2) - F(1, 10**18))), at=quadrature._Exponents(F(0), F(2), 3)),
    ]
    ranged = [norm(radial(SmoothBump(1.0, 0.5))), norm(radial(SmoothBump(1.0, 0.5)), True),
              norm(first_harmonic(PowerTail(F(-1, 2), F(4))), True), norm(radial(LogModulated(F(1, 2), 0.25)))]
    assert all(isinstance(value, NormValue) for value in values)
    assert [value.status.value for value in values[-2:]] == ["Divergent", "Failed"]
    assert all(inspect.isgenerator(value) for value in ranged)
    out = quadrature._session([*values, *ranged], DEFAULT_CONFIG)
    assert all(got is value for got, value in zip(out, values))
    assert all(isinstance(got, NormValue) and got.finite for got in out[len(values):])


# ---------------------------------------------------------------------------
# the probes' scalar helpers
# ---------------------------------------------------------------------------

def test_logaddexp_is_numpys_bit_for_bit():
    rng = random.Random(35)
    special = [0.0, -0.0, 1.0, -1.0, 700.0, -745.0, 1e-300, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
    spread = [rng.uniform(-50.0, 50.0) for _ in range(200)]
    spread += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 300.0) for _ in range(200)]
    pairs = [(x, y) for x in special for y in special] + list(zip(spread, spread[::-1]))
    pairs += [(x, x + gap) for x in spread[:60] for gap in (0.0, 1e-15, -1e-15, 36.0, 37.0, -40.0, 800.0)]
    for x, y in pairs:
        with np.errstate(invalid="ignore", over="ignore"):  # a nan compared, or inf - -inf
            want = float(np.logaddexp(x, y))
        got = probes._logaddexp(x, y)
        assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want), (x, y)


def test_verify_reads_the_verdicts_derived_quantities(monkeypatch):
    params, theta = make(3, 2, 2, 2, 0, 0, -1), F(1, 2)
    want = verify_instance(params, theta).as_dict()
    family = [u.descriptor() for u in default_verification_family(params)]
    calls = []
    monkeypatch.setattr(probes, "derive", lambda at: calls.append(at) or derive(at))
    assert verify_instance(params, theta).as_dict() == want and calls == []
    assert [u.descriptor() for u in default_verification_family(params)] == family and calls == [params]
