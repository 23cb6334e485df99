from dataclasses import replace

import numpy as np
import pytest

from sktlab import limits, twolobe
from sktlab.cli import main as cli_main
from sktlab.errors import NotApplicable, TauCollapse
from sktlab.grid import Grid, GridFn, integrate
from sktlab.linalg import residual_floor
from sktlab.limits import (CSState, ISState, LimitParams, cs_solve,
                           is_newton, is_residual, uv_from_w_tau, w_z_from_uv)
from sktlab.model import ModelParams, constant_state

from conftest import P1, TAU_STAR, U_STAR, V_STAR
from oracles import uv_from_w_z


def test_product_identity_random(rng, p1_limit):
    for _ in range(100):
        w = rng.uniform(-10.0, 10.0, 32)
        tau = rng.uniform(1e-6, 50.0)
        u, v = uv_from_w_tau(p1_limit, w, tau)
        assert np.max(np.abs(u * v - tau)) < 1e-12 * max(tau, 1.0)
        assert np.max(np.abs(p1_limit.d1 * u - p1_limit.gamma * p1_limit.d2 * v - w)) < 1e-12 * np.max(np.abs(w) + 1.0)


def test_tau_zero_degenerates_to_parts(p1_limit):
    w = np.linspace(-3.0, 3.0, 41)
    u, v = uv_from_w_tau(p1_limit, w, 0.0)
    assert np.allclose(u, np.maximum(w, 0.0) / p1_limit.d1)
    assert np.allclose(v, np.maximum(-w, 0.0) / (p1_limit.gamma * p1_limit.d2))


def test_small_tau_limit_rates(p1_limit):
    # away from the interface the correction is O(tau); near w = 0 it is
    # O(sqrt(tau))
    w_far = np.array([2.0])
    w_near = np.array([0.0])
    prev_far = prev_near = None
    for tau in (1e-4, 1e-6, 1e-8):
        u_far, _ = uv_from_w_tau(p1_limit, w_far, tau)
        u_near, _ = uv_from_w_tau(p1_limit, w_near, tau)
        err_far = abs(u_far[0] - 2.0 / p1_limit.d1)
        err_near = abs(u_near[0])
        if prev_far is not None:
            assert 50.0 < prev_far / err_far < 200.0        # ~ tau
            assert 5.0 < prev_near / err_near < 20.0        # ~ sqrt(tau)
        prev_far, prev_near = err_far, err_near


def test_transform_round_trip(rng):
    g = Grid(64)
    for alpha, beta in ((10.0, 10.0), (10.0, 1e3), (1e3, 10.0), (1e3, 1e3)):
        p = ModelParams(**P1).with_rates(alpha, beta)
        for _ in range(20):
            u = GridFn(g, rng.uniform(0.0, 10.0, 64))
            v = GridFn(g, rng.uniform(0.0, 10.0, 64))
            w, z = w_z_from_uv(p, u, v)
            u2, v2 = uv_from_w_z(p, w, z)
            scale = 10.0
            assert np.max(np.abs(u2.values - u.values)) < 1e-11 * scale
            assert np.max(np.abs(v2.values - v.values)) < 1e-11 * scale


def test_inversion_feasibility_guard():
    p = ModelParams(**P1).with_rates(10.0, 10.0)
    g = Grid(16)
    w = GridFn(g, np.zeros(16))
    z = GridFn(g, np.full(16, -1.0))
    with pytest.raises(NotApplicable, match="negative discriminant in the inverse transform"):
        uv_from_w_z(p, w, z)


def _random_regime_params(rng):
    while True:
        p = ModelParams(*rng.uniform(0.1, 4.0, 8))
        try:
            constant_state(p)
        except NotApplicable:
            continue
        return p


def test_constant_is_exact_is_solution(rng):
    g = Grid(48)
    for _ in range(10):
        p = _random_regime_params(rng)
        lp = LimitParams.from_model(p, gamma=rng.uniform(0.3, 3.0))
        cs = constant_state(p)
        w_star = lp.d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star
        s = ISState(w=GridFn(g, np.full(g.n_cells, w_star)), tau=cs.tau_star)
        fld, sup = is_residual(lp, s)
        assert sup < 1e-12
    with pytest.raises(ValueError, match="incomplete-segregation residual needs tau > 0"):
        is_residual(lp, ISState(w=s.w, tau=0.0))


def test_is_newton_recovers_constant(p1_limit):
    g = Grid(64)
    w_star = p1_limit.d1 * U_STAR - p1_limit.gamma * p1_limit.d2 * V_STAR
    w0 = GridFn(g, w_star + 0.05 * np.cos(np.pi * g.x))
    sol = is_newton(p1_limit, w0, TAU_STAR * 1.1)
    assert abs(sol.tau - TAU_STAR) < 1e-9
    assert np.max(np.abs(sol.w.values - w_star)) < 1e-9
    u, v = sol.densities(p1_limit)
    assert np.min(u.values) > 0.0 and np.min(v.values) > 0.0


def test_is_newton_finds_nonconstant_branch_state(p1_limit):
    # below the first threshold the constant state is no longer the only
    # incomplete-segregation solution
    lp = replace(p1_limit, d1=0.5)
    g = Grid(128)
    p = ModelParams(**dict(P1, d1=0.5))
    cs = constant_state(p)
    w_star = lp.d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star
    w0 = GridFn(g, w_star + 1.5 * np.cos(np.pi * g.x))
    sol = is_newton(lp, w0, cs.tau_star)
    spread = np.max(sol.w.values) - np.min(sol.w.values)
    assert spread > 0.1                       # genuinely nonconstant
    assert sol.residual_inf < 1e-8
    # the integral constraint holds on the solution
    u, v = sol.densities(lp)
    f = u.values * (lp.a1 - lp.b1 * u.values - lp.c1 * v.values)
    assert abs(g.h * np.sum(f)) < 1e-9


def test_is_newton_tau_collapse(p1_limit):
    g = Grid(64)
    w0 = GridFn(g, 2.0 * np.cos(np.pi * g.x))
    with pytest.raises(TauCollapse):
        is_newton(p1_limit, w0, 1e-9)


def test_cs_solve_from_sign_changing_seed():
    # diffusion lengths small enough for a one-node profile
    lp = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                     d1=0.01, d2=0.01, gamma=1.0)
    g = Grid(128)
    w0 = GridFn(g, 0.3 * np.cos(np.pi * g.x))
    sol = cs_solve(lp, w0)
    assert sol.residual_inf < 1e-8
    assert np.min(sol.w.values) < 0.0 < np.max(sol.w.values)
    u, v = sol.densities(lp)
    assert np.max(np.abs(u.values * v.values)) == 0.0  # disjoint supports


@pytest.mark.parametrize("d1, d2, n", [(0.003, 0.003, 2), (0.004, 0.015, 1)])
def test_cs_solve_matches_explicit_construction_at_second_order(d1, d2, n):
    # the two-lobe construction solves the continuum system, so its gap to
    # the discrete root cs_solve finds from it is O(h^2)
    lp = LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                     d1=d1, d2=d2, gamma=1.0)
    lobe = twolobe.solve_unit(lp, n)
    gap = {}
    for n_cells in (256, 512, 1024):
        start = twolobe.assemble(lobe, lp, "fg", Grid(n_cells))
        sol = cs_solve(lp, start.w)
        w = sol.w.values
        assert sol.residual_inf <= max(1e-10, residual_floor(1.0 / n_cells,
                                                             float(np.max(np.abs(w)))))
        gap[n_cells] = float(np.max(np.abs(w - start.w.values)))
    assert 3.0 < gap[256] / gap[512] < 5.0
    assert 3.0 < gap[512] / gap[1024] < 5.0


def test_cs_solve_cli_three_nodes_on_fine_grid(tmp_path):
    # three narrow lobes on a fine grid: the two-lobe start is correct and
    # O(h^2) off the discrete root, so the solve must converge from it
    d1, d2 = 0.0016164029989705262, 0.004773341266088075
    cfg = tmp_path / "cs.cfg"
    cfg.write_text("".join(f"model.{k} = 1\n" for k in ("a1", "a2", "b1", "b2", "c1", "c2"))
                   + f"model.d1 = {d1!r}\nmodel.d2 = {d2!r}\n"
                   "grid.n_cells = 1024\nrun.n = 3\n")
    assert cli_main(["cs-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "cs_state.csv").read_text()
    meta = dict(line[2:].split(": ", 1) for line in text.splitlines()
                if line.startswith("# ") and ": " in line)
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    cols = np.genfromtxt(rows, delimiter=",", names=True)
    assert twolobe._count_sign_changes(cols["w"]) == 3
    assert np.all(cols["u"] * cols["v"] == 0.0)
    h = 1.0 / 1024
    assert float(meta["residual_inf"]) <= max(
        1e-11, residual_floor(h, float(np.max(np.abs(cols["w"])))))


def test_limit_params_validation(p1):
    with pytest.raises(ValueError):
        LimitParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                    d1=0.0, d2=1.0, gamma=1.0)
    assert LimitParams.from_model(p1.with_rates(30.0, 10.0), gamma=3.0) == \
        LimitParams(gamma=3.0, **P1)


def test_is_newton_from_a_non_positive_tau_is_a_collapse():
    # c1 = 1e300, a2 = 1e-300: tau* = u* v* underflows to 0 before Newton
    lp = LimitParams(gamma=1.0, **dict(P1, c1=1e300, a2=1e-300))
    assert constant_state(lp).tau_star == 0.0
    g = Grid(16)
    with pytest.raises(TauCollapse):
        is_newton(lp, GridFn(g, np.full(g.n_cells, 1.0)), constant_state(lp).tau_star)
