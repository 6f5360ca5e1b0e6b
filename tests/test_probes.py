"""Verification probes: multiplicative ratios, scale defects, theta scans."""

from fractions import Fraction

import pytest

from ckn.admissible import ThetaSetKind, theta_set
from ckn.classify import classify
from ckn.params import Params
from ckn.probes import (
    compute_norms,
    default_verification_family,
    default_w0_family,
    log_window_theta_probe,
    verify_instance,
)
from ckn.testfunctions import radial
from oracle_panels import SmoothBump

F = Fraction


def make(n, p, q, r, a, b, c):
    return Params(n=n, p=F(p), q=F(q), r=F(r), a=F(a), b=F(b), c=F(c))


INTERIOR = make(3, 2, 2, 2, 0, 0, -1)  # theta_c = 1/2
HARDY = make(3, 2, 2, 2, -2, 0, -2)  # equal slopes, theta = 1 valid
EXCEPTIONAL = make(2, 2, 2, 4, -2, 0, -2)  # embeds, theta set empty


def test_interpolation_exponent_is_scale_invariant():
    report = verify_instance(INTERIOR, F(1, 2))
    assert report.ok
    assert report.defect <= 1e-6
    assert report.max_ratio < 10


def test_wrong_exponent_shows_scale_variance():
    report = verify_instance(INTERIOR, F(9, 10))
    assert report.ok
    assert report.defect > 1e-3


def test_identity_instance_ratio_is_one():
    # theta = 0, r = q, c = a: the two norms coincide
    params = make(3, 2, 2, 2, 0, 0, 0)
    report = verify_instance(params, F(0), family=[radial(SmoothBump(2.0, 1.0))])
    assert report.ok
    assert abs(report.max_ratio - 1.0) < 1e-9


def test_hardy_ratio_finite_and_bounded():
    report = verify_instance(HARDY, F(1))
    assert report.ok
    assert report.max_ratio < 50
    assert report.defect <= 1e-6  # equal slopes: ratios are scale free


def test_verify_requires_embedding():
    with pytest.raises(ValueError):
        verify_instance(make(3, 2, 2, 7, 0, 0, 0), F(1, 2))


def test_w0_family_has_zero_spherical_mean_and_bounded_ratio():
    params = make(3, 2, 2, 4, 0, 0, -1)
    family = default_w0_family(params)
    report = verify_instance(params, F(1), family=family)
    assert report.ok
    assert report.max_ratio < 10


def test_norm_triple_finite_on_default_family():
    for u in default_verification_family(INTERIOR):
        triple = compute_norms(INTERIOR, u)
        assert triple.all_finite


def test_exceptional_instance_has_no_working_exponent():
    verdict = classify(EXCEPTIONAL)
    assert verdict.embeds
    assert theta_set(EXCEPTIONAL).kind is ThetaSetKind.EMPTY
    res_low = log_window_theta_probe(EXCEPTIONAL, 0.0)
    res_high = log_window_theta_probe(EXCEPTIONAL, 1.0)
    assert res_low.crossed and res_high.crossed


def test_log_window_probe_requires_equal_slopes():
    # distinct slopes, and equal slopes (eta = 0) off c0 = -2: there every
    # target norm of the walk has K = c + n - eta r != 0
    for params in (INTERIOR, make(2, 2, 2, 4, -2, 0, -1)):
        with pytest.raises(ValueError):
            log_window_theta_probe(params, 0.5)
