import math

import numpy as np
import pytest

from sktlab import twolobe
from sktlab.cli import main as cli_main
from sktlab.errors import AssemblyError, NoConvergence, NotApplicable
from sktlab.grid import Grid
from sktlab.limits import LimitParams
from sktlab.linalg import _damped_newton, residual_floor, solve_tridiag
from sktlab.twolobe import _hermite, _mismatch, assemble, existence_check, solve_unit

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


def _bisection_secant_theta(lp, n, theta_tol=1e-13):
    """Reference root-find: bisection of the flux mismatch down to
    64*theta_tol (or to a midpoint where it is exactly zero), then up to 8
    secant steps clamped to the last bracket."""
    lo_q = (math.pi / 2.0) * math.sqrt(lp.d1 / lp.a1)
    hi_q = 1.0 / n - (math.pi / 2.0) * math.sqrt(lp.d2 / lp.a2)
    pad = 1e-3 * (hi_q - lo_q)
    lo = max(0.02 / n, lo_q + pad)
    hi = min(0.98 / n, hi_q - pad)
    f_lo, _ = _mismatch(lp, n, lo)
    f_hi, _ = _mismatch(lp, n, hi)
    assert f_lo > 0.0 > f_hi
    while hi - lo > 64.0 * theta_tol:
        mid = 0.5 * (lo + hi)
        fm, _ = _mismatch(lp, n, mid)
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
        f2, _ = _mismatch(lp, n, t2)
        t0, f0, t1, f1 = t1, f1, t2, f2
        if abs(t1 - t0) <= theta_tol:
            break
    return t1


def _sampled(lobe):
    """u on 4097 uniform points of [0, theta], v on 4097 of [theta, 1/n]."""
    return (lobe.u_of(np.linspace(0.0, lobe.theta, 4097)),
            lobe.v_of(np.linspace(lobe.theta, 1.0 / lobe.n, 4097)))


def _counting_mismatch(monkeypatch, fake=None):
    """Route twolobe._mismatch through a call counter (and through fake,
    if given, instead of the lobe solves)."""
    calls = []

    def counted(lp, n, theta):
        calls.append(theta)
        return (fake or _mismatch)(lp, n, theta)

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
    # the tiling covers [0, 1]: nodes of a longer grid fall outside it
    with pytest.raises(AssemblyError, match="tiling sent a node outside its unit cell"):
        assemble(lobe, SYM, "fg", Grid(64, 2.0))


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
        assert sol.zero_count == 1
        res[n_cells] = sol.cs_residual
    assert 3.0 < res[128] / res[256] < 5.0
    assert 3.0 < res[256] / res[512] < 5.0


@pytest.mark.parametrize("lp, n", ROOT_SETS[:4])
def test_interface_is_c1(lp, n):
    # second-order one-sided slopes of the unit part d1*u | -gamma*d2*v on
    # either side of theta both equal the matched flux
    lobe = solve_unit(lp, n)
    h = 1e-4 * lobe.theta
    left = lp.d1 * lobe.u_of(lobe.theta - np.array([0.0, h, 2.0 * h]))
    right = -lp.gamma * lp.d2 * lobe.v_of(lobe.theta + np.array([0.0, h, 2.0 * h]))
    slopes = ((3.0 * left[0] - 4.0 * left[1] + left[2]) / (2.0 * h),
              (-3.0 * right[0] + 4.0 * right[1] - right[2]) / (2.0 * h))
    for slope in slopes:
        assert slope == pytest.approx(lobe.flux_u, rel=1e-6)


def test_no_bracket_beyond_threshold():
    with pytest.raises(NotApplicable, match="no 4-node solution exists"):
        solve_unit(SYM, 4)


def test_asymmetric_unit_lobe():
    lp = LimitParams(gamma=1.0, **P1)
    lobe = solve_unit(lp, 1)
    # interface sits away from the midpoint for unequal lobe problems
    assert lobe.theta > 0.6
    assert lobe.mismatch < 1e-8
    sol = assemble(lobe, lp, "fg", Grid(256))
    assert sol.zero_count == 1


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
    u, v = _sampled(lobe)
    assert u[-1] == 0.0 == v[0]
    assert min(u.min(), v.min()) >= 0.0


def test_exact_root_at_window_end_ends_search(monkeypatch):
    def zero_at_lo(lp, n, theta):
        return 0.0, _mismatch(lp, n, theta)[1]

    calls = _counting_mismatch(monkeypatch, zero_at_lo)
    lobe = solve_unit(SYM, 1)
    # the first evaluation is the lower window end; M = 0 there is the root
    assert len(calls) == 1
    assert lobe.theta == calls[0] < 0.5


def test_no_sign_change_raises_no_bracket(monkeypatch):
    def positive(lp, n, theta):
        return 1.0, None

    calls = _counting_mismatch(monkeypatch, positive)
    with pytest.raises(NotApplicable, match="does not change sign"):
        solve_unit(SYM, 1)
    assert len(calls) == 2


# --- the time-map lobe -------------------------------------------------------

def _fd_lobe(d, a, b, ell, m, tol=1e-12, max_iter=80):
    """Finite-difference Newton reference for the lobe d*w'' + w*(a - b*w) = 0
    on a vertex grid of m intervals of [0, ell], w'(0) = 0, w(ell) = 0, from
    a cosine hump of height a/b.  It stops at the rounding floor of its
    stencil, which on some fine grids is above its O(h^2) error."""
    h = ell / m
    x = np.linspace(0.0, ell, m + 1)
    inv = d / (h * h)

    def residual(w):
        r = np.empty(m)
        r[0] = 2.0 * inv * (w[1] - w[0]) + w[0] * (a - b * w[0])
        r[1:m - 1] = inv * (w[0:m - 2] - 2.0 * w[1:m - 1] + w[2:m]) \
            + w[1:m - 1] * (a - b * w[1:m - 1])
        r[m - 1] = inv * (w[m - 2] - 2.0 * w[m - 1]) + w[m - 1] * (a - b * w[m - 1])
        return float(np.max(np.abs(r))), residual_floor(h, d * float(np.max(np.abs(w)))), r

    def step(w, r):
        ab = np.zeros((3, m))
        ab[0, 1:] = inv
        ab[0, 1] = 2.0 * inv
        ab[1, :] = -2.0 * inv + a - 2.0 * b * w
        ab[2, :-1] = inv
        return solve_tridiag(ab, -r)

    w0 = (a / b) * np.cos(math.pi * x[:m] / (2.0 * ell))
    w = _damped_newton(residual, step, w0, tol * max(a * a / b, 1.0), max_iter,
                       "lobe Newton")[0]
    return x, np.append(w, 0.0)


def _ell_of_amp(d, a, b, amp):
    """Lobe length ell for the peak amp, from the time map."""
    return math.sqrt(d / a) * twolobe._time_map(math.log1p(-b * amp / a))[0]


@pytest.mark.parametrize("d, a, b", [(0.01, 1.0, 1.0), (1.0, 5.0, 0.1), (0.1, 3.0, 0.1)])
def test_time_map_quarter_period_limit_and_monotone(d, a, b):
    quarter = 0.5 * math.pi * math.sqrt(d / a)
    assert _ell_of_amp(d, a, b, 0.0) == pytest.approx(quarter, rel=1e-14)
    assert _ell_of_amp(d, a, b, 1e-9 * a / b) == pytest.approx(quarter, rel=1e-8)
    amps = (a / b) * np.concatenate((np.linspace(1e-6, 0.98, 60),
                                     1.0 - np.logspace(-2, -13, 30)))
    ells = [_ell_of_amp(d, a, b, amp) for amp in amps]
    assert ells[0] > quarter
    assert np.all(np.diff(ells) > 0.0)


@pytest.mark.parametrize("d, a, b, ell", [
    (0.01, 1.0, 1.0, 0.16),        # just above the quarter period 0.157
    (0.01, 1.0, 1.0, 0.5),
    (0.0033305, 1.0, 1.0, 0.836),  # the long v-lobe of a formerly bad set
    (1.0, 5.0, 0.1, 0.9),
])
def test_time_map_amplitude_round_trip(d, a, b, ell):
    y, edge_slope = twolobe._lobe(d, a, b, ell)
    assert -1.0 < math.expm1(y) < 0.0 and edge_slope > 0.0
    ell_back = math.sqrt(d / a) * twolobe._time_map(y)[0]
    assert ell_back == pytest.approx(ell, rel=1e-12)


def test_time_map_resolves_a_flat_top():
    y = twolobe._lobe(0.001, 1.0, 1.0, 0.9)[0]
    assert math.exp(y) < 1e-8         # delta = a - b*A, here ~1e-12
    assert math.sqrt(0.001) * twolobe._time_map(y)[0] == pytest.approx(0.9, rel=1e-12)


def test_lobe_below_quarter_period_raises():
    with pytest.raises(NoConvergence, match="quarter period"):
        twolobe._lobe(0.01, 1.0, 1.0, 0.15)


def test_a_lobe_amplitude_that_never_settles_exits_2(monkeypatch, tmp_path, capsys):
    # a flat time map: every Newton step on L(y) = target is target itself,
    # so _lobe gives up after its 40 iterations and dhmp ends in one line
    monkeypatch.setattr(twolobe, "_time_map", lambda y: (0.0, -1.0))
    with pytest.raises(NoConvergence, match="lobe amplitude did not converge"):
        twolobe._lobe(0.01, 1.0, 1.0, 0.3)
    cfg = tmp_path / "sym.cfg"
    cfg.write_text("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
                   "model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = 0.01\nmodel.d2 = 0.01\n"
                   "grid.n_cells = 64\nrun.n = 1\n")
    assert cli_main(["dhmp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "no convergence: lobe amplitude did not converge\n"
    assert not (tmp_path / "out").exists()


# lobes on which the reference converges below its O(h^2) error at m = 4096
@pytest.mark.parametrize("d, a, b, ell", [(0.01, 1.0, 1.0, 0.5), (1.0, 5.0, 0.1, 0.9),
                                          (0.1, 3.0, 0.1, 0.35), (0.02, 1.0, 1.0, 0.6)])
def test_fd_oracle_gap_is_second_order(d, a, b, ell):
    y = twolobe._lobe(d, a, b, ell)[0]
    gap = {}
    for m in (2048, 4096):
        x_fd, w_fd = _fd_lobe(d, a, b, ell, m)
        w = twolobe._lobe_profile(a, b, ell, y, m)(x_fd)
        assert w_fd.min() >= 0.0 and w[-1] == 0.0
        gap[m] = float(np.max(np.abs(w - w_fd)))
    assert 3.0 < gap[2048] / gap[4096] < 5.0


def _assert_positive_monotone(lobe):
    u, v = _sampled(lobe)
    assert u.min() >= 0.0 and v.min() >= 0.0
    assert np.all(np.diff(u) <= 0.0)
    assert np.all(np.diff(v) >= 0.0)
    assert u[-1] == 0.0 == v[0]


# SYM kinetics at n = 1 on which the finite-difference lobe Newton converged
# to a sign-changing lobe (min -0.50) and dhmp wrote cs_residual 8-222
BAD_LOBE_SETS = [(0.0056276, 0.0033305), (0.004, 0.015), (0.003, 0.02), (0.01, 0.004)]


@pytest.mark.parametrize("d1, d2", BAD_LOBE_SETS)
def test_long_lobes_positive_and_dhmp_clean(d1, d2, tmp_path):
    lp = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                     d1=d1, d2=d2, gamma=1.0)
    _assert_positive_monotone(solve_unit(lp, 1))
    cfg = tmp_path / "sym.cfg"
    cfg.write_text("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
                   f"model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = {d1!r}\nmodel.d2 = {d2!r}\n"
                   "grid.n_cells = 256\nrun.n = 1\n")
    assert cli_main(["dhmp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for variant in ("fg", "gf"):
        text = (tmp_path / f"dhmp_{variant}.csv").read_text()
        line = next(s for s in text.splitlines() if s.startswith("# cs_residual: "))
        assert float(line.split(": ")[1]) <= 0.02


def test_patterns_like_sweep(monkeypatch):
    # the diffusion draws of the patterns benchmark: sqrt(d1) + sqrt(d2) a
    # fraction f of the n = 3 cutoff 2/(3 pi), sqrt(d1) a share of it
    calls = _counting_mismatch(monkeypatch)
    for f in (0.5, 0.72, 0.95):
        for share in (0.3, 0.5, 0.7):
            s = f * 2.0 / (3.0 * math.pi)
            lp = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                             d1=(share * s) ** 2, d2=((1.0 - share) * s) ** 2,
                             gamma=1.0)
            for n in (1, 2, 3):
                calls.clear()
                lobe = solve_unit(lp, n)
                _assert_positive_monotone(lobe)
                assert lobe.mismatch <= 1e-11 * abs(lobe.flux_u)
                assert len(calls) <= 16


def _recorded_profiles(monkeypatch, lp, n, g):
    """[(x, y, dydx, points)] of every _hermite that solve_unit builds, with
    the points at which assembling both variants on g evaluates it."""
    recorded = []

    def spy(x, y, dydx):
        f, points = _hermite(x, y, dydx), []
        recorded.append((x, y, dydx, points))

        def g_of(xv):
            points.append(np.array(xv, copy=True))
            return f(xv)

        return g_of

    monkeypatch.setattr(twolobe, "_hermite", spy)
    lobe = solve_unit(lp, n)
    for variant in ("fg", "gf"):
        assemble(lobe, lp, variant, g)
    return [(x, y, dydx, np.concatenate(points)) for x, y, dydx, points in recorded]


def _random_knots(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 3001))
    x = np.cumsum(rng.exponential(size=m)) * 10.0 ** rng.uniform(-6.0, 6.0) + rng.normal()
    inside = rng.uniform(x[0], x[-1], size=512)
    return x, rng.normal(size=m), rng.normal(size=m), inside


@pytest.mark.parametrize("case", ["SYM n=2", "P1 n=1", *range(8)], ids=str)
def test_hermite_is_scipy_cubic_hermite_bit_for_bit(case, monkeypatch):
    # the lobe inverse was scipy's CubicHermiteSpline; _hermite must keep
    # every dhmp and cs-solve output byte-identical, so compare exactly
    from scipy.interpolate import CubicHermiteSpline
    if case == "SYM n=2":
        knots = _recorded_profiles(monkeypatch, SYM, 2, Grid(256))
    elif case == "P1 n=1":
        knots = _recorded_profiles(monkeypatch, LimitParams(gamma=1.0, **P1), 1, Grid(1024))
    else:
        knots = [_random_knots(case)]
    assert len(knots) == (1 if isinstance(case, int) else 2)    # one per lobe
    for x, y, dydx, points in knots:
        assert points.size > 0
        xv = np.concatenate([points, x, [x[-1], np.nextafter(x[-1], np.inf)]])
        assert np.array_equal(_hermite(x, y, dydx)(xv), CubicHermiteSpline(x, y, dydx)(xv))


@pytest.mark.parametrize("bad", ["repeated knot", "nan knot", "nan value", "nan slope"])
def test_hermite_rejects_knots_scipy_rejects(bad):
    x, y, dydx = np.array([0.0, 1.0, 2.0, 3.0]), np.ones(4), np.ones(4)
    if bad == "repeated knot":
        x[2] = x[1]
    else:
        {"nan knot": x, "nan value": y, "nan slope": dydx}[bad][2] = np.nan
    with pytest.raises(AssemblyError, match="not finite and strictly increasing"):
        _hermite(x, y, dydx)
