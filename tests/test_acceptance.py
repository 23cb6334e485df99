"""Acceptance gate: one check per criterion, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Criterion 7 is expected to fail in part and is asserted honestly rather
than weakened; see the docstring of test_criterion_07 for the argument.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from sktlab import bifurcation, bounds, limits, limitstudy, steady, twolobe
from sktlab.cli import main as cli_main
from sktlab.errors import NotApplicable
from sktlab.grid import Grid, GridFn, integrate
from sktlab.limits import ISState, LimitParams
from sktlab.model import ModelParams, constant_state
from sktlab.bounds import sup_bound, v_tilde0

from conftest import P1, PW, TAU_STAR, U_STAR, V_STAR
from oracles import (TrigPoly, big_F, big_G, check_max_principle, in_sigma,
                     l11_min_eigenvalue, reduction_identity_defect, sigma_affine,
                     u_of_v, uv_from_w_z, v_of_u)

SYM = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                  d1=0.01, d2=0.01, gamma=1.0)

_SUITE_STATES = []


def _verdict(num, ok, desc, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _sweep_states():
    """P1 steady states along the rate sweep, computed once."""
    if _SUITE_STATES:
        return _SUITE_STATES
    g = Grid(256)
    base = ModelParams(**P1)
    x = g.x
    u = U_STAR * (1 + 0.2 * np.cos(np.pi * x))
    v = V_STAR * (1 - 0.2 * np.cos(np.pi * x))
    state = None
    for a in (10.0, 1e2, 1e3, 1e4):
        p = base.with_rates(a, a)
        if state is None:
            state = steady.newton_solve(p, GridFn(g, u), GridFn(g, v))
        else:
            state = steady.newton_solve(p, state.u, state.v)
        _SUITE_STATES.append(state)
    # a non-unit rate ratio member and a weak-competition member
    p = base.with_rates(200.0, 100.0)
    _SUITE_STATES.append(steady.newton_solve(
        p, GridFn(g, np.full(256, U_STAR)), GridFn(g, np.full(256, V_STAR))))
    pw = ModelParams(**PW).with_rates(10.0, 10.0)
    csw = constant_state(pw)
    _SUITE_STATES.append(steady.newton_solve(
        pw, GridFn(g, np.full(256, csw.u_star * 1.1)),
        GridFn(g, np.full(256, csw.v_star * 0.9))))
    return _SUITE_STATES


def test_criterion_01_reduction_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = ModelParams(**P1).with_rates(10 ** rng.uniform(0, 2),
                                         10 ** rng.uniform(0, 2))
        uf = TrigPoly.random(rng, 8, base=rng.uniform(0.5, 4.0), amplitude=1.0)
        vf = TrigPoly.random(rng, 8, base=rng.uniform(0.5, 4.0), amplitude=1.0)
        worst = max(worst, reduction_identity_defect(p, uf, vf))
    ok = worst <= 1e-12
    assert _verdict(1, ok, "algebraic reduction identity on random fields",
                    f"max relative defect {worst:.2e}")


def test_criterion_02_affine_identity_and_sigma():
    rng = np.random.default_rng(22)
    worst = 0.0
    implication = True
    for _ in range(1000):
        vals = rng.uniform(0.05, 5.0, 8)
        p = ModelParams(*vals, alpha=10 ** rng.uniform(-2, 4),
                        beta=10 ** rng.uniform(-2, 4))
        u, v = rng.uniform(0.0, 30.0, 2)
        F, G = big_F(p, u, v), big_G(p, u, v)
        scale = max(abs(F), abs(G), 1.0)
        worst = max(worst, abs(F + G - sigma_affine(p, u, v)) / scale)
        if F >= 0.0 and in_sigma(p, u, v) and not G < 0.0:
            implication = False
    ok = worst <= 1e-13 and implication
    assert _verdict(2, ok, "affine identity of the reduced reaction sum",
                    f"max relative defect {worst:.2e}, implication {implication}")


def test_criterion_03_level_set_roots():
    rng = np.random.default_rng(33)
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    worst = 0.0
    signs = True
    for _ in range(100):
        u = p.a1 / p.b1 * rng.uniform(1.01, 4.0)
        v = v_of_u(p, u)
        scale = (p.d2 + p.beta * u) * p.a1 + p.alpha * v * p.a2
        worst = max(worst, abs(big_F(p, u, v)) / scale)
        signs &= big_F(p, u, 0.9 * v) < 0.0 < big_F(p, u, 1.1 * v)
        vv = (v_tilde0(p) + 0.01) * rng.uniform(1.01, 4.0)
        uu = u_of_v(p, vv)
        scale = (p.d2 + p.beta * uu) * p.a1 + p.alpha * vv * p.a2
        worst = max(worst, abs(big_F(p, uu, vv)) / scale)
        signs &= big_F(p, 0.9 * uu, vv) > 0.0 > big_F(p, 1.1 * uu, vv)
    ok = worst <= 1e-10 and signs
    assert _verdict(3, ok, "level-set branches are roots with correct cuts",
                    f"max relative root defect {worst:.2e}")


def test_criterion_04_apriori_bound_certificate():
    states = _sweep_states()
    covered = True
    for st in states:
        ratio = st.params.alpha / st.params.beta
        eta = min(ratio, 1.0 / ratio)
        cert = sup_bound(st.params, eta)
        covered &= cert.covers(st.u_max, st.v_max)
    certs = [sup_bound(st.params, 1.0) for st in states[:4]]
    u3, u4 = certs[-2].u_bound, certs[-1].u_bound
    v3, v4 = certs[-2].v_bound, certs[-1].v_bound
    uniform = abs(u4 - u3) < 0.05 * u3 and abs(v4 - v3) < 0.05 * v3
    ok = covered and uniform
    assert _verdict(4, ok, "a priori certificate covers the suite, uniform in rates",
                    f"last two u ceilings {u3:.4f}/{u4:.4f}")


def test_criterion_05_transform_round_trip():
    rng = np.random.default_rng(55)
    g = Grid(64)
    worst = 0.0
    for alpha in (10.0, 1e3):
        for beta in (10.0, 1e3):
            p = ModelParams(**P1).with_rates(alpha, beta)
            for _ in range(25):
                u = GridFn(g, rng.uniform(0.0, 10.0, 64))
                v = GridFn(g, rng.uniform(0.0, 10.0, 64))
                w, z = limits.w_z_from_uv(p, u, v)
                u2, v2 = uv_from_w_z(p, w, z)
                worst = max(worst,
                            float(np.max(np.abs(u2.values - u.values))),
                            float(np.max(np.abs(v2.values - v.values))))
    ok = worst <= 1e-11
    assert _verdict(5, ok, "transform round trip at mixed rates",
                    f"max sup error {worst:.2e}")


def test_criterion_06_is_identities():
    rng = np.random.default_rng(66)
    g = Grid(48)
    worst_prod = 0.0
    worst_res = 0.0
    found = 0
    while found < 10:
        vals = rng.uniform(0.1, 4.0, 8)
        p = ModelParams(*vals)
        try:
            cs = constant_state(p)
        except NotApplicable:
            continue
        found += 1
        lp = LimitParams.from_model(p, gamma=rng.uniform(0.3, 3.0))
        w = rng.uniform(-5.0, 5.0, 48)
        tau = rng.uniform(0.01, 20.0)
        u, v = limits.uv_from_w_tau(lp, w, tau)
        worst_prod = max(worst_prod, float(np.max(np.abs(u * v - tau))) / max(tau, 1.0))
        w_star = lp.d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star
        _, sup = limits.is_residual(lp, ISState(w=GridFn(g, np.full(g.n_cells, w_star)),
                                                tau=cs.tau_star))
        worst_res = max(worst_res, sup)
    ok = worst_prod <= 1e-12 and worst_res <= 1e-12
    assert _verdict(6, ok, "incomplete-segregation algebra and exact constant solution",
                    f"product {worst_prod:.2e}, residual {worst_res:.2e}")


def test_criterion_07_full_limit_convergence():
    """Full-limit schedule at the strong-competition set, rates 10..10^4.

    The product-defect clause holds (it equals d1 u*/alpha_n exactly when
    the converged states are the constant coexistence pair, which is an
    exact steady state at every rate).  The two drift clauses cannot hold
    at these parameters: a 300-start multisolver search finds no
    nonconstant steady state at any rate in the schedule, every nontrivial
    segregated limit profile carries a nonzero one-sided interface flux
    while the zero-flux boundary forces the integral of each kinetic term
    to vanish along the whole sequence, and the constant-mode analysis
    shows all patterned perturbations decay for these rates.  The schedule
    therefore reconverges to the identical constant state at every step,
    the drift is exactly zero from the second step on, and a strictly
    decreasing drift (or a final match distance below it) is impossible.
    The clauses are asserted as stated and the failure is accepted.

    The drift clause would fail on a nonconstant seed too: row 0 of the
    report is the seed itself, solved at the first rate pair with no step
    before it, so drifts[0] is NaN, and NaN > drifts[1] is False.  Here the
    drifts read [nan, 2.5e-14, 0, 0].
    """
    g = Grid(256)
    base = ModelParams(**P1)
    sched = limitstudy.geometric_schedule(10.0, 1.0, 4)
    x = g.x
    u0 = GridFn(g, U_STAR * (1 + 0.2 * np.cos(np.pi * x)))
    v0 = GridFn(g, V_STAR * (1 - 0.2 * np.cos(np.pi * x)))
    seed = steady.newton_solve(base.with_rates(*sched[0]), u0, v0)
    rep = limitstudy.run_sequence(base, sched, seed, gamma_target=1.0)
    defects = [r.uv_defect for r in rep.steps]
    drifts = [r.w_drift for r in rep.steps]
    dist = limitstudy.match_limit(rep)
    defect_ok = all(a > b for a, b in zip(defects, defects[1:]))
    drift_ok = all(a > b for a, b in zip(drifts, drifts[1:]))
    match_ok = dist < drifts[-1]
    ok = defect_ok and drift_ok and match_ok
    _verdict(7, ok, "full-limit run: defect decrease / drift decrease / match",
             f"defect {defect_ok}, drift {drift_ok} {['%.1e' % d for d in drifts]}, "
             f"match {match_ok} ({dist:.1e})")
    assert defect_ok
    assert drift_ok, "drift is identically zero once the constant state is reached"
    assert match_ok


def test_criterion_08_bifurcation_threshold():
    lp = LimitParams(gamma=1.0, **P1)
    K = 206660.0 / 9801.0
    delta1 = (K / math.pi ** 2 - 0.1 * V_STAR) / U_STAR
    bp256 = bifurcation.detect_crossing(lp, 1, Grid(256))
    bp512 = bifurcation.detect_crossing(lp, 1, Grid(512))
    assert 0.3 <= bp256.delta_j <= 1.0 and 0.3 <= bp512.delta_j <= 1.0
    e256 = abs(bp256.delta_j - delta1)
    e512 = abs(bp512.delta_j - delta1)
    ratio = e256 / e512
    ev = abs(l11_min_eigenvalue(lp, bp256.delta_j, Grid(256)))
    ok = 3.0 <= ratio <= 5.0 and ev <= 1e-10
    assert _verdict(8, ok, "threshold crossing converges at second order, singular operator",
                    f"error ratio {ratio:.2f}, eigenvalue {ev:.1e}")


def test_criterion_09_branch_tangency():
    lp = LimitParams(gamma=1.0, **P1)
    g = Grid(256)
    bp = bifurcation.detect_crossing(lp, 1, g)
    assert 0.3 <= bp.delta_j <= 1.0
    br = bifurcation.switch_and_continue(lp, bp, s_max=0.1, ds=0.002)
    pts = [pt for pt in br.points if 1e-3 <= pt.s <= 0.1]
    s = np.array([pt.s for pt in pts])
    dt = np.array([abs(pt.tau - TAU_STAR) for pt in pts])
    slope = float(np.polyfit(np.log(s), np.log(dt), 1)[0])
    base_pt = min(br.points, key=lambda pt: abs(pt.s))
    d1_err = abs(base_pt.d1 - bp.delta_j)
    ok = slope >= 1.9 and d1_err <= 1e-8
    assert _verdict(9, ok, "branch leaves the threshold tangentially",
                    f"exponent {slope:.3f}, d1(0) error {d1_err:.1e}")


def test_criterion_10_dhmp_construction(tmp_path):
    exist = [n for n in range(1, 7) if twolobe.existence_check(SYM, n)]
    lobe = solve1 = twolobe.solve_unit(SYM, 1)
    theta_ok = abs(lobe.theta - 0.5) <= 1e-8
    mism_ok = lobe.mismatch <= 1e-8
    zeros_ok = True
    for n in (1, 2, 3):
        ln = twolobe.solve_unit(SYM, n)
        sol = twolobe.assemble(ln, SYM, "fg", Grid(256))
        zeros_ok &= sol.zero_count == n
    res = {nc: twolobe.assemble(solve1, SYM, "fg", Grid(nc)).cs_residual
           for nc in (128, 256, 512)}
    quarter_ok = (3.0 < res[128] / res[256] < 5.0
                  and 3.0 < res[256] / res[512] < 5.0)
    cfgfile = tmp_path / "sym.cfg"
    cfgfile.write_text(
        "model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
        "model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = 0.01\nmodel.d2 = 0.01\n")
    code = cli_main(["dhmp", "--n", "4", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
    ok = (exist == [1, 2, 3] and theta_ok and mism_ok and zeros_ok
          and quarter_ok and code == 4)
    assert _verdict(10, ok, "explicit segregated construction",
                    f"exists {exist}, theta {lobe.theta:.10f}, "
                    f"ratios {res[128]/res[256]:.2f}/{res[256]/res[512]:.2f}, "
                    f"exit {code}")


def test_criterion_11_max_principle():
    ok = True
    worst = 0.0
    for st in _sweep_states():
        p = st.params
        f_at, g_at = check_max_principle(st)
        scale = (p.d2 + p.beta * st.u_max) * p.a1 + p.alpha * st.v_max * p.a2
        worst = min(worst, f_at / scale, g_at / scale)
        ok &= f_at >= -1e-6 * scale and g_at >= -1e-6 * scale
    assert _verdict(11, ok, "reduced reaction terms nonnegative at density maxima",
                    f"worst normalized value {worst:.1e}")


def test_criterion_12_determinism(tmp_path):
    runs = {
        "selftest.csv": ["selftest"],
        "state.csv": ["solve", "--grid", "128"],
        "limit_study.csv": ["limit-study"],
        "branch.csv": ["bifurcate", "--grid", "128"],
        "dhmp_fg.csv": ["dhmp", "--n", "1"],
    }
    ok = True
    for fname, args in runs.items():
        a = tmp_path / (fname + ".a")
        b = tmp_path / (fname + ".b")
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        same = (a / fname).read_bytes() == (b / fname).read_bytes()
        ok &= same
    assert _verdict(12, ok, "golden runs and selftest are bit-identical on repeat")
