import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sktlab.bounds import (BoundCertificate, in_sigma, sup_bound, u_of_v,
                           v_of_u, v_tilde0)
from sktlab.errors import BandError, DomainError
from sktlab.model import ModelParams, big_F, sigma_affine

from conftest import P1, TANGENCY


def _p1_rates(alpha=100.0, beta=100.0):
    return ModelParams(**P1).with_rates(alpha, beta)


def test_v_of_u_is_root_of_big_F(rng):
    p = _p1_rates()
    for _ in range(50):
        u = p.a1 / p.b1 * rng.uniform(1.01, 4.0)
        v = v_of_u(p, u)
        assert v > 0.0
        scale = (p.d2 + p.beta * u) * p.a1 + p.alpha * v * p.a2
        assert abs(big_F(p, u, v)) < 1e-10 * scale


def test_u_of_v_is_root_of_big_F(rng):
    p = _p1_rates()
    v0 = v_tilde0(p)
    for _ in range(50):
        v = (v0 + 0.01) * rng.uniform(1.01, 4.0)
        u = u_of_v(p, v)
        assert u > 0.0
        scale = (p.d2 + p.beta * u) * p.a1 + p.alpha * v * p.a2
        assert abs(big_F(p, u, v)) < 1e-10 * scale


def test_vertical_cut_sign_pattern(rng):
    # for fixed u past a1/b1, F is negative below the branch and positive above
    p = _p1_rates()
    for _ in range(20):
        u = p.a1 / p.b1 * rng.uniform(1.05, 3.0)
        v = v_of_u(p, u)
        assert big_F(p, u, 0.9 * v) < 0.0
        assert big_F(p, u, 1.1 * v) > 0.0


def test_horizontal_cut_sign_pattern(rng):
    # for fixed v past the threshold, F is positive left of the branch
    p = _p1_rates()
    v0 = v_tilde0(p)
    for _ in range(20):
        v = (v0 + 0.01) * rng.uniform(1.05, 3.0)
        u = u_of_v(p, v)
        assert big_F(p, 0.9 * u, v) > 0.0
        assert big_F(p, 1.1 * u, v) < 0.0


def test_branches_are_mutually_inverse(rng):
    p = _p1_rates()
    for _ in range(20):
        u = p.a1 / p.b1 * rng.uniform(1.05, 3.0)
        v = v_of_u(p, u)
        if v > v_tilde0(p):
            assert abs(u_of_v(p, v) - u) < 1e-8 * u


def test_domain_guards():
    p = _p1_rates()
    with pytest.raises(DomainError):
        v_of_u(p, 0.5 * p.a1 / p.b1)
    with pytest.raises(DomainError):
        u_of_v(p, 0.5 * v_tilde0(p))
    with pytest.raises(DomainError):
        v_of_u(ModelParams(**P1), 100.0)  # zero rates


def test_sigma_implication(rng):
    # wherever the affine combination is negative, F >= 0 forces G < 0
    p = _p1_rates()
    for _ in range(200):
        u, v = rng.uniform(0.0, 60.0, 2)
        if in_sigma(p, u, v):
            assert sigma_affine(p, u, v) < 0.0


def test_sup_bound_certificate_covers_exclusion_states():
    p = _p1_rates()
    cert = sup_bound(p, 1.0)
    assert cert.kind == "levelset"
    # both exclusion states and the coexistence state sit under the ceiling
    assert cert.covers(p.a1 / p.b1, 0.0)
    assert cert.covers(0.0, p.a2 / p.c2)
    assert cert.covers(250.0 / 99.0, 470.0 / 99.0)


def test_sup_bound_uniform_in_rates():
    vals = []
    for a in (10.0, 1e2, 1e3, 1e4):
        cert = sup_bound(_p1_rates(a, a), 1.0)
        vals.append((cert.u_bound, cert.v_bound))
    (u3, v3), (u4, v4) = vals[-2], vals[-1]
    assert abs(u4 - u3) < 0.05 * u3
    assert abs(v4 - v3) < 0.05 * v3


def test_sup_bound_band_checks():
    p = _p1_rates(100.0, 10.0)
    with pytest.raises(BandError):
        sup_bound(p, 0.5)  # ratio 10 outside [0.5, 2]
    with pytest.raises(BandError):
        sup_bound(p, 1.5)
    with pytest.raises(BandError):
        sup_bound(ModelParams(**P1), 0.5)  # zero rates


def test_small_rate_fallback():
    cert = sup_bound(_p1_rates(0.05, 0.05), 0.1)
    assert cert.kind == "small-rate"
    assert math.isnan(cert.u_bound)
    with pytest.raises(ValueError):
        cert.covers(1.0, 1.0)


def test_v_tilde0_window_end_matches_decimal():
    # the lower end of the tangency window, (mid - root)/a2^2, to 50 digits
    q = ModelParams(**TANGENCY).swapped()
    with localcontext() as ctx:
        ctx.prec = 50
        a1, a2, c1, c2, d2 = map(Decimal, (q.a1, q.a2, q.c1, q.c2, q.d2))
        gap = a1 * c2 - a2 * c1
        lo = float((d2 * (2 * a1 * c2 - a2 * c1) - 2 * d2 * (a1 * c2 * gap).sqrt())
                   / (a2 * a2))
    assert lo < q.alpha
    assert v_tilde0(q) == 0.0
    # v_tilde0 is 0 exactly inside the window, and the end it uses is
    # within a relative 1e-13 of the Decimal one
    assert v_tilde0(q.with_rates(lo * (1.0 + 1e-13), q.beta)) == 0.0
    assert v_tilde0(q.with_rates(lo * (1.0 - 1e-13), q.beta)) > 0.0
