import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sktlab.bounds import (BoundCertificate, _larger_root, levelset_certificate, sup_bound,
                           v_tilde0)
from sktlab.errors import NotApplicable
from sktlab.model import ModelParams

from conftest import P1, PW, TANGENCY
from oracles import big_F, in_sigma, sigma_affine, u_of_v, v_of_u


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
    with pytest.raises(NotApplicable, match="v_of_u requires u > a1/b1"):
        v_of_u(p, 0.5 * p.a1 / p.b1)
    with pytest.raises(NotApplicable, match="u_of_v requires v > v_tilde0"):
        u_of_v(p, 0.5 * v_tilde0(p))
    with pytest.raises(NotApplicable, match="level-set branches need alpha, beta > 0"):
        v_of_u(ModelParams(**P1), 100.0)  # zero rates
    with pytest.raises(NotApplicable, match="v_tilde0 needs alpha > 0"):
        v_tilde0(ModelParams(**P1))


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
    with pytest.raises(NotApplicable, match=r"alpha/beta = 10\.0 outside \[0\.5, 2\.0\]"):
        sup_bound(p, 0.5)  # ratio 10 outside [0.5, 2]
    with pytest.raises(NotApplicable, match=r"eta must lie in \(0, 1\]"):
        sup_bound(p, 1.5)
    with pytest.raises(NotApplicable, match="certificate needs alpha, beta > 0"):
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


@pytest.mark.parametrize("a2", [1e-300, 1e-170, 1e-100])
def test_v_tilde0_window_with_a_tiny_birth_rate(a2):
    # a2^2 underflows to 0 at the first two: alpha_hi is inf, and alpha_lo
    # = (d2 c1)^2 / (mid + root) = 0.05 does not divide by a2
    p = ModelParams(**{**P1, "a2": a2}).with_rates(100.0, 100.0)
    assert v_tilde0(p) == 0.0
    assert v_tilde0(p.with_rates(0.04, 100.0)) > 0.0


def test_v_tilde0_window_end_squared_as_a_product():
    # (d2 c1)^2 = 1e310 overflows to inf, where a float ** would raise
    # OverflowError; alpha_lo is 2.5e154, so alpha = 100 is outside the window
    q = ModelParams(a1=1.0, a2=1e-10, b1=0.1, b2=1.0, c1=1.0, c2=1.0,
                    d1=1.0, d2=1e155, alpha=100.0, beta=100.0)
    assert v_tilde0(q) > 0.0


# PW's upper tangency rate alpha_hi = (d2 (2 a1 c2 - a2 c1) + 2 d2 sqrt(a1 c2
# (a1 c2 - a2 c1))) / a2^2 = 0.0439089023002066..., where F(0, .) touches 0
PW_EDGE = 0.043908902300206644


def test_v_tilde0_is_zero_where_f0_has_no_real_root():
    # inside PW's window F(0, v) > 0 for every v >= 0: no threshold
    p = ModelParams(**PW)
    for alpha in (1e-3, 0.01, math.nextafter(PW_EDGE, 0.0), PW_EDGE):
        q = p.with_rates(alpha, alpha)
        assert v_tilde0(q) == 0.0
        assert np.all(big_F(q, 0.0, np.geomspace(1e-6, 1e6, 241)) > 0.0)
    assert v_tilde0(p.with_rates(math.nextafter(PW_EDGE, 1.0), 1.0)) > 0.0


def test_sup_bound_at_the_tangency_edge_is_continuous():
    # the edge rate and the ones one ulp either side all certify, with
    # ceilings that agree to rounding
    p = ModelParams(**PW)
    certs = [sup_bound(p.with_rates(a, a), 0.04)
             for a in (math.nextafter(PW_EDGE, 0.0), PW_EDGE, math.nextafter(PW_EDGE, 1.0))]
    assert all(c.kind == "levelset" for c in certs)
    assert certs[0].u_bound == 24.250138650247905
    for c in certs[1:]:
        assert c.u_bound == pytest.approx(certs[0].u_bound, rel=1e-14)
        assert c.v_bound == pytest.approx(certs[0].v_bound, rel=1e-14)


def test_sup_bound_underflowing_rate_ratio_is_outside_the_band():
    # alpha/beta = 1e-300/1e300 is 0.0 in floating point, in no band
    with pytest.raises(NotApplicable, match=r"alpha/beta = 0\.0 outside"):
        sup_bound(_p1_rates(1e-300, 1e300), 1e-300)
    # and the solve certificate, which picks eta from the ratio, has none
    assert levelset_certificate(_p1_rates(1e-300, 1e300)) is None


def test_larger_root_scales_an_overflowing_discriminant():
    # b^2 and 4ac overflow; scaling all three by 1e-302 leaves the root
    assert _larger_root(1e302, -1.01e302, 3e300) == pytest.approx(
        _larger_root(1.0, -1.01, 3e-2), rel=1e-15)
    p = ModelParams(a1=3.0, a2=1e300, b1=0.1, b2=1.0, c1=1.0, c2=1e300,
                    d1=1.0, d2=1e300, alpha=100.0, beta=100.0)
    v0 = v_tilde0(p)
    assert math.isfinite(v0) and v0 > 0.0
    # F(0, v0) = 0 for F(0, v) = alpha c2 v^2 - (alpha a2 + d2 c1) v + d2 a1,
    # evaluated in units of its largest coefficient
    scale = p.alpha * p.a2 + p.d2 * p.c1
    resid = (p.alpha * (p.c2 / scale) * v0 * v0
             - v0 + p.d2 * (p.a1 / scale))
    assert abs(resid) < 1e-15


def test_larger_root_of_an_underflowed_leading_coefficient():
    # a -> 0+ with b < 0 sends the larger root past every float; with b > 0
    # it is the root of the linear part
    assert _larger_root(0.0, -495.0, 1.0) == math.inf
    assert _larger_root(1e-300, -1e300, 1.0) == math.inf
    assert _larger_root(0.0, 2.0, -4.0) == 2.0
