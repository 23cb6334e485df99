import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from sktlab import bifurcation, bounds, limits, limitstudy, steady, twolobe
from sktlab.cli import main
from sktlab.errors import NoConvergence, NonFiniteSystem, TauCollapse, ValidationError
from sktlab.grid import Grid, GridFn, integrate, laplacian_values
from sktlab.limits import LimitParams, uv_from_w_tau
from sktlab.limitstudy import geometric_schedule, match_limit, run_sequence
from sktlab.model import ModelParams, constant_state, reaction_f, reaction_g

from conftest import P1, PW, TAU_STAR, U_STAR, V_STAR
from oracles import segregation_diagnostics
from test_linalg import _dense_from_band


def _seed(p, g, amp=0.2):
    cs = constant_state(p)
    x = g.x
    u0 = GridFn(g, cs.u_star * (1 + amp * np.cos(np.pi * x)))
    v0 = GridFn(g, cs.v_star * (1 - amp * np.cos(np.pi * x)))
    return steady.newton_solve(p, u0, v0)


def test_geometric_schedule():
    sched = geometric_schedule(10.0, 0.5, 3, ratio=10.0)
    assert sched == [(10.0, 20.0), (100.0, 200.0), (1000.0, 2000.0)]
    for a, b in sched:
        assert a / b == 0.5


@pytest.mark.parametrize("alpha0, gamma, n_steps, ratio", [
    (10.0, 1.0, 400, 10.0),      # ratio**k itself overflows
    (10.0, 1.0, 4, 1e200),
    (1e300, 1.0, 2, 1e10),       # the last alpha is inf
    (1e300, 1e-10, 1, 10.0),     # the last beta = alpha/gamma is inf
    (10.0, 1.0, 3, 1.0),         # not increasing
])
def test_geometric_schedule_rejects_bad_rates(alpha0, gamma, n_steps, ratio):
    with pytest.raises(ValidationError):
        geometric_schedule(alpha0, gamma, n_steps, ratio)


def test_the_seed_is_step_0_and_each_later_pair_is_solved_once(monkeypatch):
    # the seed is already solved at the first pair: step 0 reports it as
    # it is, and only the N - 1 later pairs are solved
    base, seed = _branch_seed(64)
    sched = geometric_schedule(1e2, 1.0, 4)
    solved, solve_step = [], limitstudy._solve_step

    def spy(p, state, tol):
        solved.append((p.alpha, p.beta))
        return solve_step(p, state, tol)

    monkeypatch.setattr(limitstudy, "_solve_step", spy)
    rep = run_sequence(base, sched, seed, gamma_target=1.0)
    assert solved == sched[1:] and len(rep.steps) == len(sched)
    _, z = limits.w_z_from_uv(seed.params, seed.u, seed.v)
    tau_hat = integrate(z) / z.grid.length
    first = rep.steps[0]
    assert (first.alpha, first.beta) == sched[0]
    assert first.tau_hat == tau_hat and first.residual_inf == seed.residual_inf
    assert first.uv_defect == float(np.max(np.abs(seed.u.values * seed.v.values - tau_hat)))
    assert math.isnan(first.w_drift)
    assert all(0.0 < r.w_drift < math.inf for r in rep.steps[1:])


def test_a_failing_step_names_its_schedule_step(grid64, p1, monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise NoConvergence("x")

    monkeypatch.setattr(limitstudy, "_solve_step", fail)
    sched = geometric_schedule(10.0, 1.0, 3)
    with pytest.raises(NoConvergence) as info:
        run_sequence(p1, sched, _seed(p1.with_rates(*sched[0]), grid64), gamma_target=1.0)
    assert str(info.value) == "schedule step 1 (alpha=100, beta=100): x"
    cfg = tmp_path / "ls.cfg"
    cfg.write_text("grid.n_cells = 64\n")
    out = tmp_path / "out"
    assert main(["limit-study", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("no convergence: schedule step 1 (alpha=") and err.count("\n") == 1


@pytest.mark.parametrize("error", [TauCollapse, NonFiniteSystem, LinAlgError])
def test_every_failed_step_keeps_its_type_and_names_its_step(grid64, p1, monkeypatch, error):
    def fail(*args):
        raise error("x")

    monkeypatch.setattr(limitstudy, "_solve_step", fail)
    sched = geometric_schedule(10.0, 1.0, 3)
    with pytest.raises(error) as info:
        run_sequence(p1, sched, _seed(p1.with_rates(*sched[0]), grid64), gamma_target=1.0)
    assert type(info.value) is error
    assert str(info.value) == "schedule step 1 (alpha=100, beta=100): x"


def test_a_singular_fallback_step_names_its_step(tmp_path, capsys):
    # a fuzzed set: every step solves until the (u, v) Newton that step 4
    # falls back to meets a singular matrix
    cfg = tmp_path / "ls.cfg"
    cfg.write_text("model.b1 = 0.0008126892381245586\nmodel.b2 = 0.05475593382686086\n"
                   "model.gamma = 4.149236825591269e-05\ngrid.n_cells = 112\n"
                   "run.amplitude = 0.026497993596107737\nrun.alpha0 = 1272.945914071892\n"
                   "run.steps = 5\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("no convergence: singular linear system: schedule step 4 (alpha=")
    assert err.count("\n") == 1


def test_strong_regime_sequence_incomplete(grid64, p1):
    sched = geometric_schedule(10.0, 1.0, 3)
    seed = _seed(p1.with_rates(*sched[0]), grid64)
    rep = run_sequence(p1, sched, seed, gamma_target=1.0)
    assert rep.classification == "Incomplete"
    assert len(rep.steps) == 3
    taus = [r.tau_hat for r in rep.steps]
    # tau_hat carries the d1*u/alpha correction: tau* + d1 u*/alpha
    for r in rep.steps:
        assert abs(r.tau_hat - (TAU_STAR + U_STAR / r.alpha)) < 1e-8
    defects = [r.uv_defect for r in rep.steps]
    assert all(d0 > d1 for d0, d1 in zip(defects, defects[1:]))
    assert all(np.isfinite(r.uv_defect) for r in rep.steps)
    assert all(r.gamma == 1.0 for r in rep.steps)


def test_weak_regime_sequence(grid64, pw):
    sched = geometric_schedule(10.0, 1.0, 3)
    seed = _seed(pw.with_rates(*sched[0]), grid64)
    rep = run_sequence(pw, sched, seed, gamma_target=1.0)
    assert rep.classification == "Incomplete"
    cs = constant_state(pw)
    w_lim = pw.d1 * cs.u_star - pw.d2 * cs.v_star
    assert abs(np.max(rep.final_w.values) - w_lim) < 1e-8


def test_z_harmonic_limit_trend(grid64, p1):
    # sup|z_n - tau_hat_n| decreases across the schedule
    from sktlab.limits import w_z_from_uv
    sched = geometric_schedule(10.0, 1.0, 3)
    seed = _seed(p1.with_rates(*sched[0]), grid64)
    state = seed
    sups = []
    for a, b in sched:
        p = p1.with_rates(a, b)
        state = steady.newton_solve(p, state.u, state.v)
        _, z = w_z_from_uv(p, state.u, state.v)
        tau_hat = np.mean(z.values)
        sups.append(np.max(np.abs(z.values - tau_hat)))
    assert sups[0] >= sups[1] >= sups[2]


def test_match_limit_constant_run(grid64, p1):
    sched = geometric_schedule(10.0, 1.0, 3)
    seed = _seed(p1.with_rates(*sched[0]), grid64)
    rep = run_sequence(p1, sched, seed, gamma_target=1.0)
    dist = match_limit(rep)
    assert dist < 1e-10


def test_a_segregated_seed_is_complete_and_matches_its_limit():
    # the fg two-lobe pattern of dhmp at d1 = d2 = 0.01, read back as the
    # tau = 0 densities u = w_+/d1, v = w_-/(gamma d2) at rates 1e3: its
    # mean product lies far below 1e-3 tau* and w changes sign, and the
    # matched complete-segregation solve stays within 1e-4 of w
    base = ModelParams(**{**P1, "d1": 0.01, "d2": 0.01})
    lp = LimitParams.from_model(base, gamma=1.0)
    g = Grid(256)
    w = twolobe.assemble(twolobe.solve_unit(lp, 1), lp, "fg", g).w
    u, v = limits.CSState(w).densities(lp)
    seed = steady._steady_state(base.with_rates(1e3, 1e3), g, u.values, v.values,
                                np.nan, np.nan, 0)
    rep = run_sequence(base, [(1e3, 1e3)], seed, gamma_target=1.0)
    assert rep.classification == "Complete"
    assert rep.steps[-1].tau_hat < 1e-2 * rep.complete_tol
    assert match_limit(rep) < 1e-4


def test_segregation_diagnostics(grid64, p1):
    p = p1.with_rates(10.0, 10.0)
    st = _seed(p, grid64)
    lo, hi, near_const = segregation_diagnostics(st)
    assert abs(lo - TAU_STAR) < 1e-8
    assert abs(hi - TAU_STAR) < 1e-8
    assert near_const
    # coexistence limit, not an exclusion state
    assert np.min(st.u.values) > 1.0 and np.min(st.v.values) > 1.0


# the regular form of one schedule step, limits._eps_newton: unknowns
# (w, zeta, T) with tau = u v = T + eps*zeta and eps = 1/alpha

def _eps_residual(lp, x, eps, h):
    """The three rows of the regular form, written out from the equations."""
    n = (x.size - 1) // 2
    w, zeta = x[:n], x[n:-1]
    u, v = uv_from_w_tau(lp, w, x[-1] + eps * zeta)
    f = reaction_f(lp, u, v)
    return np.concatenate((laplacian_values(w, h) + f - lp.gamma * reaction_g(lp, u, v),
                           laplacian_values(lp.d1 * u + zeta, h) + f,
                           [h * np.sum(zeta)]))


class _Captured(Exception):
    pass


def test_eps_jacobian_matches_fd(rng, monkeypatch):
    # the pair band, its T border column and the mean row against central
    # differences of the rows, at a point far from a solution
    n, h, eps = 16, 1.0 / 16, 0.1
    lp = LimitParams(gamma=2.0, **P1)
    zeta = rng.uniform(-3.0, 3.0, n)
    x0 = np.concatenate((rng.uniform(-2.0, 3.0, n), zeta - zeta.mean(), [TAU_STAR]))
    seen = {}

    def capture(ab, cols, rows, corner, *_rhs):
        seen.update(ab=ab, col=np.concatenate(cols[0]), row=np.concatenate(rows[0]),
                    corner=corner)
        raise _Captured

    monkeypatch.setattr(limits, "solve_bordered", capture)
    with pytest.raises(_Captured):
        limits._eps_newton(lp, x0, eps, h, 1e-11)
    perm = np.concatenate((np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)))
    pair = _dense_from_band(seen["ab"][3:], (3, 3))[np.ix_(perm, perm)]
    J = np.block([[pair, seen["col"][:, None]],
                  [seen["row"][None, :], np.array([[seen["corner"]]])]])
    J_fd = np.zeros_like(J)
    for k in range(x0.size):
        step = 1e-7 * max(1.0, abs(x0[k]))
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        J_fd[:, k] = (_eps_residual(lp, xp, eps, h) - _eps_residual(lp, xm, eps, h)) / (2 * step)
    assert np.max(np.abs(J - J_fd)) < 1e-4 * np.max(np.abs(J_fd))


def test_eps_form_agrees_with_the_uv_newton(grid64):
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    x = grid64.x
    u0 = GridFn(grid64, U_STAR * (1 + 0.1 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, V_STAR * (1 - 0.1 * np.cos(np.pi * x)))
    a = steady.newton_solve(p, u0, v0)
    start = steady._steady_state(p, grid64, u0.values, v0.values, np.nan, np.nan, 0)
    c, fell_back = limitstudy._solve_step(p, start, 1e-11)
    assert not fell_back and c.newton_iters > 0
    assert np.max(np.abs(a.u.values - c.u.values)) < 1e-8
    assert np.max(np.abs(a.v.values - c.v.values)) < 1e-8


def test_eps_form_converges_from_the_constant_w_at_large_rates(grid64):
    # constant w, zeta = 0 and T 20 % off tau*: back to the constant state
    p = ModelParams(**P1).with_rates(1e4, 1e4)
    lp = LimitParams.from_model(p, gamma=1.0)
    x0 = np.concatenate((np.full(64, p.d1 * U_STAR - p.d2 * V_STAR), np.zeros(64),
                         [0.8 * TAU_STAR]))
    x, (_, _, _, (u, v, _)), _, it, _, _ = limits._eps_newton(lp, x0, 1e-4, grid64.h, 1e-11)
    assert it > 0
    assert np.max(np.abs(u - U_STAR)) < 1e-8 and np.max(np.abs(v - V_STAR)) < 1e-8


def test_eps_form_from_a_negative_product_never_returns(grid64, monkeypatch):
    # T = -1 and zeta = 0: tau = T + eps*zeta is negative, so every trial is
    # infeasible and halved, and the Newton raises instead of returning
    lp = LimitParams(gamma=1.0, **P1)
    x0 = np.concatenate((np.full(64, lp.d1 * U_STAR - lp.d2 * V_STAR), np.zeros(64), [-1.0]))
    seen = []
    real = limits._collapse
    monkeypatch.setattr(limits, "_collapse",
                        lambda what, tau: seen.append(what) or real(what, tau))
    with pytest.raises((NoConvergence, TauCollapse)):
        limits._eps_newton(lp, x0, 1e-4, grid64.h, 1e-11)
    assert "T + eps*zeta left tau > 0" in seen


def test_a_state_the_eps_form_cannot_hold_falls_back(grid64):
    # at d2 = 1e-300, 4 gamma d1 d2 tau underflows against w^2: the (u, v)
    # of (w, tau) have v = 0, so no iterate holds the constant state; without
    # that check the form converges, to a state 0.11 away in u
    p = ModelParams(**dict(P1, b2=22.4, d2=1e-300)).with_rates(1.0, 1.0)
    cs = constant_state(p)
    u, v = np.full(64, cs.u_star), np.full(64, cs.v_star)
    start = steady._steady_state(p, grid64, u, v, np.nan, np.nan, 0)
    state, fell_back = limitstudy._solve_step(p.with_rates(10.0, 10.0), start, 1e-11)
    assert fell_back
    assert np.array_equal(state.u.values, u) and np.array_equal(state.v.values, v)


def test_a_singular_eps_form_falls_back_to_the_uv_newton(grid64, monkeypatch):
    # a singular regular-form system is a failed solve like NoConvergence:
    # the step passes on to the (u, v) Newton instead of ending the run
    def singular(*args):
        raise LinAlgError("singular matrix")

    monkeypatch.setattr(limits, "_eps_newton", singular)
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    start = _seed(p.with_rates(10.0, 10.0), grid64)
    state, fell_back = limitstudy._solve_step(p, start, 1e-11)
    assert fell_back
    direct = steady.newton_solve(p, start.u, start.v, tol=1e-11)
    assert np.array_equal(state.u.values, direct.u.values)
    assert np.array_equal(state.v.values, direct.v.values)


def _branch_seed(n):
    """P1, gamma = 1: the mode-1 incomplete-segregation branch at s = 0.3,
    lifted to (u, v) and polished by the (u, v) Newton at alpha = beta = 1e2."""
    g = Grid(n)
    lp = LimitParams(gamma=1.0, **P1)
    branch = bifurcation.switch_and_continue(lp, bifurcation.detect_crossing(lp, 1, g),
                                             s_max=0.3, ds=0.05)
    pt = branch.points[-1]
    assert pt.s == pytest.approx(0.3)
    u, v = uv_from_w_tau(replace(lp, d1=pt.d1), pt.w.values, pt.tau)
    base = ModelParams(**{**P1, "d1": pt.d1})
    return base, steady.newton_solve(base.with_rates(1e2, 1e2), GridFn(g, u), GridFn(g, v))


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_full_limit_of_a_nonconstant_state_is_first_order(n, monkeypatch):
    # the paper's theorem where it is not trivial: along alpha = beta =
    # 1e2..1e7 the nonconstant state converges, ||w_k - w_(k-1)|| = O(1/alpha)
    base, seed = _branch_seed(n)
    states, uv_calls = [], []
    solve_step, newton_solve = limitstudy._solve_step, steady.newton_solve

    def record(*args):
        state, fell_back = solve_step(*args)
        states.append(state)
        return state, fell_back

    def spy(*args, **kwargs):
        uv_calls.append(args)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(limitstudy, "_solve_step", record)
    monkeypatch.setattr(steady, "newton_solve", spy)
    rep = run_sequence(base, geometric_schedule(1e2, 1.0, 6), seed, gamma_target=1.0)
    assert rep.classification == "Incomplete"
    assert uv_calls == [] and rep.fallback_steps == 0
    scaled = [r.alpha * r.w_drift for r in rep.steps[1:]]
    assert max(scaled) <= 1.02 * min(scaled)
    assert all(abs(c / 5.164 - 1.0) < 0.01 for c in scaled)
    assert match_limit(rep) < rep.steps[-1].w_drift
    for st in states:
        assert bounds.sup_bound(st.params, 0.5).covers(st.u_max, st.v_max)
