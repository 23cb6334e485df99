import math

import numpy as np
import pytest

from sktlab import twolobe
from sktlab.errors import NoBracket
from sktlab.grid import Grid
from sktlab.limits import LimitParams
from sktlab.twolobe import (_mismatch, assemble, existence_check, solve_unit,
                            validate)

from conftest import P1

# symmetric small-diffusion set: both lobes obey the same scalar problem
SYM = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                  d1=0.01, d2=0.01, gamma=1.0)

# the root-find sets: SYM n = 1..3, P1 n = 1, and SYM kinetics with
# d1 > d2 and d1 < d2 (both lobes positive on all of them)
ROOT_SETS = [
    (SYM, 1), (SYM, 2), (SYM, 3),
    (LimitParams(gamma=1.0, **P1), 1),
    (LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                 d1=0.04, d2=0.02, gamma=1.0), 1),
    (LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                 d1=0.01, d2=0.03, gamma=1.0), 1),
]


def _bisection_secant_theta(lp, n, m=4096, theta_tol=1e-13):
    """Reference root-find: bisection of the flux mismatch down to
    64*theta_tol (or to a midpoint where it is exactly zero), then up to 8
    secant steps clamped to the last bracket."""
    lo_q = (math.pi / 2.0) * math.sqrt(lp.d1 / lp.a1)
    hi_q = 1.0 / n - (math.pi / 2.0) * math.sqrt(lp.d2 / lp.a2)
    pad = 1e-3 * (hi_q - lo_q)
    lo = max(0.02 / n, lo_q + pad)
    hi = min(0.98 / n, hi_q - pad)
    f_lo, _ = _mismatch(lp, n, lo, m)
    f_hi, _ = _mismatch(lp, n, hi, m)
    assert f_lo > 0.0 > f_hi
    while hi - lo > 64.0 * theta_tol:
        mid = 0.5 * (lo + hi)
        fm, _ = _mismatch(lp, n, mid, m)
        if fm == 0.0:
            return mid
        if f_lo * fm < 0.0:
            hi, f_hi = mid, fm
        else:
            lo, f_lo = mid, fm
    t0, t1, f0, f1 = lo, hi, f_lo, f_hi
    for _ in range(8):
        if f1 == f0 or t1 == t0:
            break
        t2 = min(max(t1 - f1 * (t1 - t0) / (f1 - f0), lo), hi)
        f2, _ = _mismatch(lp, n, t2, m)
        t0, f0, t1, f1 = t1, f1, t2, f2
        if abs(t1 - t0) <= theta_tol:
            break
    return t1


def _counting_mismatch(monkeypatch, fake=None):
    """Route twolobe._mismatch through a call counter (and through fake,
    if given, instead of the lobe solves)."""
    calls = []

    def counted(lp, n, theta, m):
        calls.append(theta)
        return (fake or _mismatch)(lp, n, theta, m)

    monkeypatch.setattr(twolobe, "_mismatch", counted)
    return calls


def test_existence_threshold_exact():
    # sqrt(d1/a1) + sqrt(d2/a2) = 0.2 against 2/(n pi)
    assert [n for n in range(1, 7) if existence_check(SYM, n)] == [1, 2, 3]
    # boundary sanity on an asymmetric set
    lp = LimitParams(gamma=1.0, **P1)   # 0.6301 < 2/pi = 0.6366
    assert existence_check(lp, 1)
    assert not existence_check(lp, 2)


def test_symmetric_interface_at_midpoint():
    lobe = solve_unit(SYM, 1)
    assert abs(lobe.theta - 0.5) < 1e-8
    assert lobe.mismatch < 1e-8
    # matched fluxes are equal and opposite and strictly nonzero
    assert lobe.flux_u < 0.0 < lobe.flux_v
    assert abs(lobe.flux_u + lobe.flux_v) < 1e-10 * abs(lobe.flux_u)


def test_multinode_interfaces_scale():
    for n in (2, 3):
        lobe = solve_unit(SYM, n)
        assert abs(lobe.theta - 0.5 / n) < 1e-8
        assert lobe.mismatch < 1e-8


def test_assembled_zero_counts():
    g = Grid(256)
    for n in (1, 2, 3):
        lobe = solve_unit(SYM, n)
        for variant in ("fg", "gf"):
            sol = assemble(lobe, SYM, variant, g)
            assert sol.zero_count == n


def test_variants_are_mirror_images():
    g = Grid(256)
    lobe = solve_unit(SYM, 1)
    fg = assemble(lobe, SYM, "fg", g)
    gf = assemble(lobe, SYM, "gf", g)
    assert fg.w.values[0] > 0.0 > gf.w.values[0]
    # in the symmetric case the gf profile is the reflection (equivalently
    # the negation) of fg
    assert np.max(np.abs(gf.w.values - fg.w.values[::-1])) < 1e-12
    assert np.max(np.abs(gf.w.values + fg.w.values)) < 1e-12


def test_cs_residual_quarters_under_refinement():
    lobe = solve_unit(SYM, 1)
    res = {}
    for n_cells in (128, 256, 512):
        sol = assemble(lobe, SYM, "fg", Grid(n_cells))
        zeros, resid, mism = validate(sol, SYM)
        assert zeros == 1
        res[n_cells] = resid
    assert 3.0 < res[128] / res[256] < 5.0
    assert 3.0 < res[256] / res[512] < 5.0


def test_no_bracket_beyond_threshold():
    with pytest.raises(NoBracket):
        solve_unit(SYM, 4)


def test_asymmetric_unit_lobe():
    lp = LimitParams(gamma=1.0, **P1)
    lobe = solve_unit(lp, 1)
    # interface sits away from the midpoint for unequal lobe problems
    assert lobe.theta > 0.6
    assert lobe.mismatch < 1e-8
    sol = assemble(lobe, lp, "fg", Grid(256))
    assert sol.zero_count == 1


def test_invalid_variant():
    lobe = solve_unit(SYM, 1)
    with pytest.raises(ValueError):
        assemble(lobe, SYM, "xy", Grid(128))


@pytest.mark.parametrize("lp, n", ROOT_SETS)
def test_root_find_matches_bisection_secant(lp, n, monkeypatch):
    expected = _bisection_secant_theta(lp, n)
    calls = _counting_mismatch(monkeypatch)
    lobe = solve_unit(lp, n)
    assert abs(lobe.theta - expected) <= 1e-12
    assert len(calls) <= 16
    # the lobes returned are those evaluated at the returned theta
    assert calls[-1] == lobe.theta
    assert abs(lobe.flux_u + lobe.flux_v) <= 1e-11 * abs(lobe.flux_u)
    assert lobe.x_u[-1] == lobe.theta and lobe.x_v[0] == pytest.approx(lobe.theta)
    assert min(lobe.u_profile.min(), lobe.v_profile.min()) >= 0.0


def test_exact_root_at_window_end_ends_search(monkeypatch):
    def zero_at_lo(lp, n, theta, m):
        return 0.0, _mismatch(lp, n, theta, m)[1]

    calls = _counting_mismatch(monkeypatch, zero_at_lo)
    lobe = solve_unit(SYM, 1)
    # the first evaluation is the lower window end; M = 0 there is the root
    assert len(calls) == 1
    assert lobe.theta == calls[0] < 0.5


def test_no_sign_change_raises_no_bracket(monkeypatch):
    def positive(lp, n, theta, m):
        return 1.0, None

    calls = _counting_mismatch(monkeypatch, positive)
    with pytest.raises(NoBracket, match="does not change sign"):
        solve_unit(SYM, 1)
    assert len(calls) == 2
