import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from sktlab import bifurcation
from sktlab.bifurcation import (Branch, delta_j, detect_crossing,
                                kinetic_strength, switch_and_continue)
from sktlab.errors import NotApplicable
from sktlab.grid import Grid, GridFn, integrate, neumann_eigenpair
from sktlab.limits import LimitParams, _is_linearization, _uv_root, w_star
from sktlab.model import constant_state

from conftest import P1, PW, TAU_STAR, U_STAR, V_STAR
from oracles import l11_min_eigenvalue, l22_value, potential

# frozen oracle values for P1, gamma = 1 (exact rational arithmetic:
# K = 2*tau* - 0.1*u*^2 - 0.1*v*^2 = 206660/9801)
K_P1 = 206660.0 / 9801.0
DELTA1_P1 = (K_P1 / math.pi ** 2 - 0.1 * V_STAR) / U_STAR


def test_kinetic_strength_value(p1_limit):
    assert abs(kinetic_strength(p1_limit) - K_P1) < 1e-12


def test_kinetic_strength_sign_weak():
    lpw = LimitParams(gamma=1.0, **PW)
    assert kinetic_strength(lpw) < 0.0
    with pytest.raises(NotApplicable, match="K <= 0: no positive threshold for any mode"):
        delta_j(lpw, 1)


def test_delta1_closed_form(p1_limit):
    d1 = delta_j(p1_limit, 1)
    assert abs(d1 - DELTA1_P1) < 1e-12
    # thresholds decrease with the mode index
    assert delta_j(p1_limit, 1) > delta_j(p1_limit, 2)
    with pytest.raises(NotApplicable, match="mode 50: rearranged threshold is nonpositive"):
        delta_j(p1_limit, 50)


def test_potential_crosses_eigenvalue_at_threshold(p1_limit):
    # at d1 = delta_j the potential equals the continuum eigenvalue
    lam1 = math.pi ** 2
    assert abs(potential(p1_limit, DELTA1_P1) - lam1) < 1e-10


def test_w_star_is_linear_in_d1(p1_limit):
    cs = constant_state(p1_limit)
    assert abs(w_star(p1_limit, cs, 1.0) - (U_STAR - 0.1 * V_STAR)) < 1e-12
    assert abs(w_star(p1_limit, cs, 2.0) - (2.0 * U_STAR - 0.1 * V_STAR)) < 1e-12


def test_l22_negative_and_scales_with_length(p1_limit):
    v1 = l22_value(p1_limit, 1.0, length=1.0)
    v2 = l22_value(p1_limit, 1.0, length=2.0)
    assert v1 < 0.0
    assert abs(v2 - 2.0 * v1) < 1e-12 * abs(v1)


def test_l21_vanishes_on_mean_zero(p1_limit):
    # L21, the constraint row h*f_w of the bordered Newton at the constant
    # state, acting on a field direction: f_w is constant there, so it is
    # f_w * integrate(psi) and vanishes on mean-zero fields
    g = Grid(64)
    _, phi = neumann_eigenpair(g, 3)
    lp = replace(p1_limit, d1=0.7)
    root = _uv_root(lp, np.array([w_star(lp, constant_state(lp), 0.7)]), TAU_STAR, 0.7)
    f_w = float(_is_linearization(lp, root, 0.7)[2][0])
    assert abs(f_w * integrate(phi)) < 1e-12


def test_detect_crossing_matches_closed_form(p1_limit):
    bp = detect_crossing(p1_limit, 1, Grid(256))
    assert 0.3 <= bp.delta_j <= 1.0
    # discrete threshold differs from the closed form at O(h^2)
    assert abs(bp.delta_j - DELTA1_P1) < 5e-5
    assert bp.delta_j != DELTA1_P1
    err_256 = abs(bp.delta_j - DELTA1_P1)
    bp2 = detect_crossing(p1_limit, 1, Grid(512))
    assert 0.3 <= bp2.delta_j <= 1.0
    err_512 = abs(bp2.delta_j - DELTA1_P1)
    assert 3.0 < err_256 / err_512 < 5.0


def test_detect_crossing_without_a_positive_threshold(p1_limit):
    # P1 at mode 10: lambda_10^h is so large that the root is negative
    with pytest.raises(NotApplicable, match="mode 10: rearranged threshold is nonpositive"):
        detect_crossing(p1_limit, 10, Grid(64))
    # weak competition: K = -26.52, no mode has a threshold
    lpw = LimitParams(gamma=1.0, **PW)
    assert -26.6 < kinetic_strength(lpw) < -26.5
    with pytest.raises(NotApplicable, match="K <= 0"):
        detect_crossing(lpw, 1, Grid(64))


def test_l11_singular_at_discrete_threshold(p1_limit):
    g = Grid(256)
    bp = detect_crossing(p1_limit, 1, g)
    assert 0.3 <= bp.delta_j <= 1.0
    ev = l11_min_eigenvalue(p1_limit, bp.delta_j, g)
    assert abs(ev) < 1e-10
    # off the threshold the restricted operator is boundedly invertible
    ev_off = l11_min_eigenvalue(p1_limit, bp.delta_j * 1.2, g)
    assert abs(ev_off) > 1e-4


def test_branch_tangency_and_symmetry(p1_limit):
    g = Grid(128)
    bp = detect_crossing(p1_limit, 1, g)
    assert 0.3 <= bp.delta_j <= 1.0
    br = switch_and_continue(p1_limit, bp, s_max=0.08, ds=0.005)
    assert isinstance(br, Branch)
    assert not br.truncated

    plus = [pt for pt in br.points if pt.s > 1e-12]
    minus = [pt for pt in br.points if pt.s < -1e-12]
    assert len(plus) >= 5 and len(minus) >= 5

    # tau - tau* is quadratic in the amplitude: fitted exponent close to 2
    s = np.array([pt.s for pt in plus])
    dt = np.array([abs(pt.tau - TAU_STAR) for pt in plus])
    slope = np.polyfit(np.log(s), np.log(dt), 1)[0]
    assert slope > 1.9

    # d1 is even in s to leading order
    d_plus = {round(pt.s, 10): pt.d1 for pt in plus}
    d_minus = {round(-pt.s, 10): pt.d1 for pt in minus}
    common = sorted(set(d_plus) & set(d_minus))[:3]
    assert common
    for sv in common:
        assert abs(d_plus[sv] - d_minus[sv]) < 1e-6 * abs(d_plus[sv]) + 1e-9

    # d1 at zero amplitude is the threshold itself
    assert abs(br.points[0].d1 - bp.delta_j) < 1e-14 or \
        abs(min(br.points, key=lambda pt: abs(pt.s)).d1 - bp.delta_j) < 1e-8


def test_branch_points_solve_field_equation(p1_limit):
    from sktlab.limits import ISState, is_residual
    g = Grid(128)
    bp = detect_crossing(p1_limit, 1, g)
    assert 0.3 <= bp.delta_j <= 1.0
    br = switch_and_continue(p1_limit, bp, s_max=0.05, ds=0.01)
    pt = max(br.points, key=lambda q: q.s)
    lp = replace(p1_limit, d1=pt.d1)
    _, sup = is_residual(lp, ISState(w=pt.w, tau=pt.tau))
    assert sup < 1e-8


def test_kinetic_strength_at_a_huge_constant_state():
    # b1 = b2 = 1e-300 puts u* near 2.8e300: u*^2 overflows, but b1*u*
    # times u* does not, and K is the finite negative number it should be
    lp = LimitParams(gamma=1.0, **dict(P1, b1=1e-300, b2=1e-300))
    k = kinetic_strength(lp)
    assert math.isfinite(k) and k < 0.0
    with pytest.raises(NotApplicable, match="K <= 0: no positive threshold for any mode"):
        delta_j(lp, 1)


def test_non_finite_threshold_is_no_threshold():
    # at gamma = 1e308 both (c1 + gamma b2) tau* and gamma c2 v*^2
    # overflow: K is inf - inf, and no delta_j is returned as NaN
    lp = LimitParams(gamma=1e308, **P1)
    assert math.isnan(kinetic_strength(lp))
    message = r"threshold not finite in floating point \(K = nan\)"
    with pytest.raises(NotApplicable, match=message):
        delta_j(lp, 1)
    with pytest.raises(NotApplicable, match=message):
        detect_crossing(lp, 1, Grid(64))


@pytest.mark.parametrize("length", [1e-200, 1e-160, 1e300])
def test_threshold_at_an_extreme_length_is_no_threshold(p1_limit, length):
    # (pi/L)^2 overflows to inf (the threshold is then -gamma d2 v*/u* < 0)
    # or underflows to 0, where K/lambda has no value: never an
    # OverflowError or ZeroDivisionError
    message = ("eigenvalue 0.0 is not positive" if length > 1.0
               else "mode 1: rearranged threshold is nonpositive")
    with pytest.raises(NotApplicable, match=message):
        delta_j(p1_limit, 1, length)


def test_discrete_threshold_where_the_eigenvalue_underflows(p1_limit):
    with pytest.raises(NotApplicable, match="eigenvalue 0.0 is not positive"):
        detect_crossing(p1_limit, 1, Grid(8, 1e300))


def test_a_singular_corrector_truncates_the_side_and_keeps_its_points(p1_limit, monkeypatch):
    # a corrector that fails as the other solves do (here a singular
    # system) ends the side at its last corrected point, as NoConvergence does
    real, calls = bifurcation._is_corrector, []

    def singular_after_three(*args, **kwargs):
        calls.append(args)
        if len(calls) > 3:
            raise LinAlgError("singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "_is_corrector", singular_after_three)
    bp = detect_crossing(p1_limit, 1, Grid(64))
    br = switch_and_continue(p1_limit, bp, s_max=0.5, ds=0.005)
    assert br.truncated and br.end_reason == "corrector"
    assert br.mirrored and len(br.points) == 2 * 3 + 1
    assert [pt.s for pt in br.points if pt.s > 0.0] == [0.005, 0.0125, 0.02375]
