import numpy as np
import pytest

from sktlab import bounds, cli, limits, steady, twolobe
from sktlab.errors import NoConvergence, NotApplicable, SktlabError
from sktlab.grid import Grid, GridFn, integrate
from sktlab.limits import LimitParams
from sktlab.model import ModelParams, constant_state, reaction_f, reaction_g

from conftest import P1, PW, U_STAR, V_STAR, WEAK
from oracles import (TrigPoly, check_max_principle, march_then_newton,
                     reduction_identity_defect)


def _dense_from_band(ab, lu):
    l, u = lu
    n = ab.shape[1]
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if -l <= j - i <= u:
                A[i, j] = ab[u + i - j, j]
    return A


def _fd_jacobian(res_fn, x0, m):
    J = np.zeros((m, m))
    base = res_fn(x0)
    for k in range(m):
        step = 1e-7 * max(1.0, abs(x0[k]))
        xp = x0.copy(); xp[k] += step
        xm = x0.copy(); xm[k] -= step
        J[:, k] = (res_fn(xp) - res_fn(xm)) / (2.0 * step)
    return J, base


@pytest.fixture
def p1r():
    return ModelParams(**P1).with_rates(50.0, 50.0)


def test_uv_jacobian_matches_fd(p1r, rng):
    g = Grid(16)
    h = g.h
    n = g.n_cells
    u = rng.uniform(0.5, 3.0, n)
    v = rng.uniform(0.5, 3.0, n)

    def res(x):
        r1, r2 = steady._residual_values(p1r, x[0::2], x[1::2], h)
        out = np.empty(2 * n)
        out[0::2] = r1
        out[1::2] = r2
        return out

    x0 = np.empty(2 * n)
    x0[0::2] = u
    x0[1::2] = v
    J_fd, _ = _fd_jacobian(res, x0, 2 * n)
    J = _dense_from_band(steady._jacobian_banded(p1r, u, v, h)[3:], (3, 3))
    assert np.max(np.abs(J - J_fd)) < 1e-4 * np.max(np.abs(J_fd))


def test_constant_state_is_exact_solution(grid64):
    for alpha in (0.0, 10.0, 1e4):
        p = ModelParams(**P1).with_rates(alpha, max(alpha, 1.0))
        cs = constant_state(p)
        r1, r2 = steady._residual_values(
            p, np.full(64, cs.u_star), np.full(64, cs.v_star), grid64.h)
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-10


def test_newton_recovers_constant_from_perturbation(grid64):
    p = ModelParams(**P1).with_rates(10.0, 10.0)
    x = grid64.x
    u0 = GridFn(grid64, U_STAR * (1 + 0.2 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, V_STAR * (1 - 0.2 * np.cos(np.pi * x)))
    st = steady.newton_solve(p, u0, v0, tol=1e-11)
    assert np.max(np.abs(st.u.values - U_STAR)) < 1e-9
    assert np.max(np.abs(st.v.values - V_STAR)) < 1e-9
    assert bounds.levelset_certificate(st.params).covers(st.u_max, st.v_max)


def test_integral_of_f_vanishes_on_converged_states(grid64):
    # zero-flux boundary forces the integral of each kinetic term to zero
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    x = grid64.x
    u0 = GridFn(grid64, U_STAR * (1 + 0.15 * np.cos(2 * np.pi * x)))
    v0 = GridFn(grid64, V_STAR * (1 - 0.15 * np.cos(2 * np.pi * x)))
    st = steady.newton_solve(p, u0, v0)
    f = GridFn(grid64, reaction_f(p, st.u.values, st.v.values))
    g = GridFn(grid64, reaction_g(p, st.u.values, st.v.values))
    assert abs(integrate(f)) < 1e-8
    assert abs(integrate(g)) < 1e-8


def test_reduction_identity_defect_random_fields(rng):
    p = ModelParams(**P1).with_rates(37.0, 11.0)
    for _ in range(10):
        uf = TrigPoly.random(rng, 6, base=2.0, amplitude=1.0)
        vf = TrigPoly.random(rng, 6, base=3.0, amplitude=1.5)
        assert reduction_identity_defect(p, uf, vf) < 1e-12


def test_time_march_preserves_positivity(grid64, pw):
    p = pw.with_rates(5.0, 5.0)
    u0 = GridFn(grid64, np.full(64, 0.5))
    v0 = GridFn(grid64, np.full(64, 0.5))
    u, v, _ = steady.time_march(p, u0, v0, dt=1e-3, t_end=1.0, tol=1e-11)
    assert np.min(u.values) > 0.0
    assert np.min(v.values) > 0.0


def test_march_then_newton_weak_regime(grid64, pw):
    # weak competition: marching lands in the coexistence basin
    p = pw.with_rates(5.0, 5.0)
    cs = constant_state(p)
    x = grid64.x
    u0 = GridFn(grid64, cs.u_star * (1 + 0.4 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, cs.v_star * (1 - 0.4 * np.cos(np.pi * x)))
    st = march_then_newton(p, u0, v0, dt=1e-3, t_end=5.0)
    assert np.max(np.abs(st.u.values - cs.u_star)) < 1e-8


@pytest.mark.parametrize("params", [P1, PW], ids=["P1", "PW"])
@pytest.mark.parametrize("dt, t_end", [(1e-3, 2.0), (0.05, 20.0), (0.1, 20.0), (1.0, 20.0)])
def test_time_march_positive_for_any_dt(grid64, params, dt, t_end):
    # the explicit-kinetics march lost positivity once dt > ~1/(b2*u)
    p = ModelParams(**params).with_rates(100.0, 100.0)
    cs = constant_state(p)
    x = grid64.x
    u0 = GridFn(grid64, cs.u_star * (1 + 0.1 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, cs.v_star * (1 - 0.1 * np.cos(2 * np.pi * x)))
    u, v, _ = steady.time_march(p, u0, v0, dt=dt, t_end=t_end, tol=1e-11)
    assert np.min(u.values) > 0.0
    assert np.min(v.values) > 0.0


def _cli_solve(tmp_path, overrides):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l for l in (out / "state.csv").read_text().splitlines() if not l.startswith("#")]
    data = np.loadtxt(rows[1:], delimiter=",")
    return data[:, 1], data[:, 2]


@pytest.mark.parametrize("overrides", [
    {}, {"run.dt": 0.05}, {"run.dt": 0.1}, {"run.seed": 7},
    {"run.amplitude": 1e-3}, {"run.amplitude": 1e-3, "run.seed": 7},
    {"run.amplitude": 1e-5}, {"run.amplitude": 1e-5, "run.seed": 7},
], ids=str)
def test_cli_solve_reaches_u_exclusion(tmp_path, overrides):
    # P1 (the CLI defaults) at strong competition: the march ends on the
    # exclusion state u = a1/b1, v = 0, the seed commit's attractor.  Below
    # amplitude ~1e-6 which of the two stable exclusion states wins depends
    # on the scheme, so smaller amplitudes are not asserted.
    u, v = _cli_solve(tmp_path, overrides)
    assert np.max(np.abs(u - 50.0)) < 1e-8
    assert np.max(v) < 1e-8


def test_cli_solve_weak_reaches_coexistence(tmp_path):
    u, v = _cli_solve(tmp_path, {f"model.{k}": val for k, val in PW.items()})
    assert np.max(np.abs(u - 250.0 / 99.0)) < 1e-8
    assert np.max(np.abs(v - 470.0 / 99.0)) < 1e-8
    # the constant state is stable in every mode: Newton from the seed, no march
    meta = _solve_metadata(tmp_path)
    assert meta["march_steps"] == "0"
    assert int(meta["newton_iters"]) >= 1
    assert float(meta["constant_rate"]) < 0.0


def _solve_metadata(tmp_path):
    lines = (tmp_path / "out" / "state.csv").read_text().splitlines()
    return dict(l[2:].split(": ", 1) for l in lines if l.startswith("# ") and ": " in l)


def test_cli_solve_stops_the_march_at_newtons_stop_test(tmp_path):
    # P1 at the defaults meets Newton's stop test after ~100 of the 200
    # steps; the march ends there and Newton takes no step
    u, v = _cli_solve(tmp_path, {})
    assert np.max(np.abs(u - 50.0)) < 1e-8
    assert np.max(v) < 1e-8
    meta = _solve_metadata(tmp_path)
    assert int(meta["march_steps"]) < 200
    assert meta["newton_iters"] == "0"


@pytest.mark.parametrize("n", [1024, 4096])
def test_cli_solve_readme_example_marches_on_256_cells(tmp_path, n):
    # `sktlab solve --grid n` at the defaults (P1): the march picks the
    # basin on 256 cells and stops early, Newton polishes at n
    out = tmp_path / "out"
    assert cli.main(["solve", "--grid", str(n), "--out", str(out)]) == 0
    rows = [l for l in (out / "state.csv").read_text().splitlines() if not l.startswith("#")]
    data = np.loadtxt(rows[1:], delimiter=",")
    assert data.shape == (n, 3)
    assert np.max(np.abs(data[:, 1] - 50.0)) < 1e-8
    assert np.max(data[:, 2]) < 1e-8
    meta = _solve_metadata(tmp_path)
    assert int(meta["march_steps"]) < 200 and meta["march_cells"] == "256"
    assert meta["certificate_ok"] == "True"


def test_cli_solve_near_the_unstable_state_keeps_the_full_march(tmp_path):
    # 1e-12 off the constant state the start already meets Newton's stop
    # test; it is unstable, and the 1e6-fold fall the stop also asks for
    # keeps the march going to the v-exclusion state u = 0, v = a2/c2
    u, v = _cli_solve(tmp_path, {"run.amplitude": 1e-12, "grid.n_cells": 1024})
    assert np.max(u) < 1e-8
    assert np.max(np.abs(v - 30.0)) < 1e-8
    assert _solve_metadata(tmp_path)["march_steps"] == "200"


def test_cli_solve_at_zero_rates_is_capped_by_the_kinetics(tmp_path):
    # P1's kinetics scaled by 1e9 at alpha = beta = 0: no certificate
    # applies, and the march's maximum principle keeps u <= a1/b1 = 5e10
    # and v <= a2/c2 = 3e10 (each Patankar step keeps max u at most
    # max(its previous max, a1/b1), and likewise v)
    u, v = _cli_solve(tmp_path, {"model.alpha": 0, "model.beta": 0,
                                 "model.a1": 5e9, "model.a2": 3e9})
    assert _solve_metadata(tmp_path)["certificate_ok"] == "None"
    assert np.max(u) <= 5e10 * (1 + 1e-14) and np.max(v) <= 3e10 * (1 + 1e-14)
    assert np.max(u) > 1e8


def test_cli_solve_floor_covers_the_kinetic_terms(tmp_path):
    # with zero rates the kinetic terms a1 u ~ 2.5e20 round at ~5e4, far
    # above the diffusive fluxes' floor of ~3; the reported residual must
    # lie under the reported floor, and the march meets it on its own
    _cli_solve(tmp_path, {"model.alpha": 0, "model.beta": 0,
                          "model.a1": 5e9, "model.a2": 3e9})
    meta = _solve_metadata(tmp_path)
    assert float(meta["residual_inf"]) <= float(meta["residual_floor"])
    assert int(meta["march_steps"]) < 200 and meta["newton_iters"] == "0"


def test_an_overflowed_residual_has_no_floor(grid64, p1):
    # b1 u^2 overflows at u = 1e160, and so would the kinetic floor: a
    # residual that is not finite must not meet the stop test norm <= floor
    with np.errstate(over="ignore", invalid="ignore"):
        norm, floor, _ = steady._stop_norm(p1, np.full(64, 1e160), np.ones(64), grid64.h)
    assert norm == np.inf and floor == 0.0


def test_cli_solve_is_not_failed_on_its_transient(tmp_path):
    # weak competition whose constant state is unstable: at amplitude 0.9
    # u peaks at 304.8 after the march's first step, above 10x the
    # level-set certificate (bounds 25.06 and 25.14), yet the march meets
    # Newton's stop test by itself on a state under the certificate
    _, v = _cli_solve(tmp_path, {
        "model.a1": 2.901539453420192, "model.a2": 9.930075754841729,
        "model.b1": 0.11579137790162641, "model.b2": 0.5344680191487069,
        "model.c1": 1.0708759328850699, "model.c2": 0.9295497888684825,
        "model.d1": 0.015874945009021476, "model.d2": 0.09686161905069571,
        "model.alpha": 10, "model.beta": 10, "run.seed": 31, "run.amplitude": 0.9})
    meta = _solve_metadata(tmp_path)
    assert meta["march_steps"] == "97" and meta["newton_iters"] == "0"
    assert meta["certificate_ok"] == "True"
    assert abs(np.max(v) - 10.68) < 0.01


def test_cli_solve_without_a_certificate_reports_none(tmp_path):
    # alpha = 0: the level-set certificate needs both rates positive
    _cli_solve(tmp_path, {"model.alpha": 0})
    assert _solve_metadata(tmp_path)["certificate_ok"] == "None"


def test_a_failed_newton_falls_back_to_the_march():
    # weak competition whose constant state is stable in every mode; Newton
    # from the amplitude-3 seed leaves the nonnegative cone, so solve
    # marches the full 200 steps and polishes onto (u*, v*)
    p = ModelParams(**WEAK, alpha=10.0, beta=10.0)
    g = Grid(256)
    cs = constant_state(p)
    u0, v0 = cli._seeded_fields(p, g, 5, 3.0)
    with pytest.raises(NoConvergence, match="no Newton step stays in the nonnegative cone"):
        steady.newton_solve(p, u0, v0, tol=1e-11)
    st = steady.solve(p, u0, v0, 0.1, 20.0, 1e-11)
    assert st.constant_rate < 0.0 and st.march_steps == 200
    assert np.max(np.abs(st.u.values - cs.u_star)) <= 1e-8 * cs.u_star
    assert np.max(np.abs(st.v.values - cs.v_star)) <= 1e-8 * cs.v_star


# weak competition with a cross-diffusion instability in mode 1: the
# kinetics alone are stable, the constant state at these rates is not
TURING = dict(a1=1.988, a2=2.250, b1=0.446, b2=0.375, c1=0.411, c2=1.004,
              d1=0.0238, d2=0.0108, alpha=364.0, beta=0.391)


def test_an_unsettled_coarse_march_keeps_the_outcome_of_the_march_at_n(monkeypatch):
    # TURING at n = 1024: the 256-cell march runs all its 200 steps without
    # meeting its stop test, so solve marches again at n and fails there as
    # march_then_newton does.  Polishing the unsettled coarse state at n
    # instead converges onto the constant state, whose rightmost eigenvalue
    # (dense spectrum of _jacobian_banded) is +0.37: linearly unstable.
    p = ModelParams(**TURING)
    u0, v0 = cli._seeded_fields(p, Grid(1024), 5, 0.1)
    with pytest.raises(NoConvergence) as ref:
        march_then_newton(p, u0, v0, 0.1, 20.0, 1e-11)
    marches = []
    time_march = steady.time_march

    def spy(p, u0, *args):
        u, v, steps = time_march(p, u0, *args)
        marches.append((u0.grid.n_cells, steps))
        return u, v, steps

    monkeypatch.setattr(steady, "time_march", spy)
    with pytest.raises(NoConvergence) as got:
        steady.solve(p, u0, v0, 0.1, 20.0, 1e-11)
    assert str(got.value) == str(ref.value)
    assert marches == [(256, 200), (1024, 200)]


@pytest.mark.parametrize("params, rate", [(P1, 3.1005977901), (PW, -2.4725536746)],
                         ids=["P1", "PW"])
def test_constant_rate_is_the_rightmost_eigenvalue_of_the_jacobian(params, rate):
    # the closed form over the cosine modes against the dense spectrum
    p = ModelParams(**params).with_rates(100.0, 100.0)
    g = Grid(64)
    cs = constant_state(p)
    J = _dense_from_band(steady._jacobian_banded(
        p, np.full(64, cs.u_star), np.full(64, cs.v_star), g.h)[3:], (3, 3))
    dense = float(np.max(np.linalg.eigvals(J).real))
    closed, stable = steady._constant_rate(p, cs, g)
    assert abs(closed - dense) <= 1e-8 * abs(dense)
    assert abs(closed - rate) <= 1e-8 * abs(rate)
    assert stable == (rate < 0.0)


def test_a_cross_diffusion_instability_takes_the_march_path():
    p = ModelParams(**TURING)
    g = Grid(256)
    cs = constant_state(p)
    assert steady._constant_rate(p, cs, g)[1] is False
    assert steady._constant_rate(p.with_rates(0.0, 0.0), cs, g)[1] is True
    u0, v0 = cli._seeded_fields(p, g, 5, 1e-3)
    st = steady.solve(p, u0, v0, 0.1, 20.0, 1e-11)
    assert st.march_steps == 200
    assert st.constant_rate > 0.0


def test_solve_without_a_coexistence_state_marches_to_exclusion():
    # a1/a2 = 50/3 is above both b1/b2 and c1/c2: neither regime, so no
    # constant state; solve raises, and search, which needs none, marches
    # to u = a1/b1, v = 0
    p = ModelParams(**dict(P1, a1=50.0)).with_rates(100.0, 100.0)
    g = Grid(64)
    u0 = GridFn(g, 10.0 + np.cos(np.pi * g.x))
    v0 = GridFn(g, 5.0 + np.cos(2.0 * np.pi * g.x))
    with pytest.raises(NotApplicable, match="requires weak or strong competition"):
        steady.solve(p, u0, v0, 0.1, 20.0, 1e-11)
    st = steady.search(p, u0, v0, 0.1, 20.0, 1e-11)
    assert np.max(np.abs(st.u.values - p.a1 / p.b1)) <= 1e-12 * p.a1 / p.b1
    assert st.v_max <= 1e-40
    assert np.isnan(st.constant_rate)
    assert st.march_steps == 33
    assert bounds.levelset_certificate(st.params).covers(st.u_max, st.v_max) is True


def _solved(fn, *args):
    try:
        return fn(*args)
    except SktlabError:
        return None


@pytest.mark.parametrize("params", [P1, PW, TURING], ids=["P1", "PW", "TURING"])
@pytest.mark.parametrize("seed", [5, 31])
def test_solve_reaches_the_state_of_march_then_newton(params, seed):
    # an n = 256 slice of the sweep: where both exit 0, the Newton-first
    # pipeline ends on the state of the march followed by Newton, bit for
    # bit where solve marched on the solve's own 256 cells
    p = ModelParams(**{"alpha": 100.0, "beta": 100.0, **params})
    g = Grid(256)
    for amplitude in (1e-3, 0.1, 0.9):
        u0, v0 = cli._seeded_fields(p, g, seed, amplitude)
        st = _solved(steady.solve, p, u0, v0, 0.1, 20.0, 1e-11)
        ref = _solved(march_then_newton, p, u0, v0, 0.1, 20.0, 1e-11)
        if st is None or ref is None:
            continue
        if st.march_cells == 256:
            assert np.array_equal(st.u.values, ref.u.values)
            assert np.array_equal(st.v.values, ref.v.values)
        scale = max(ref.u_max, ref.v_max)
        assert np.max(np.abs(st.u.values - ref.u.values)) <= 1e-8 * scale
        assert np.max(np.abs(st.v.values - ref.v.values)) <= 1e-8 * scale
        assert st.march_steps == (0 if params is PW else ref.march_steps)


# a rate ratio r = alpha/beta > 1 for which 1/(1/r) rounds below r
ROUNDING_RATES = (781.6369984515303, 426.5223845065687)


def test_levelset_certificate_at_a_rounded_band_edge():
    # eta = 1/r puts r on the band edge 1/eta, which the band check must
    # not lose to rounding
    alpha, beta = ROUNDING_RATES
    ratio = alpha / beta
    assert 1.0 / (1.0 / ratio) < ratio
    cert = bounds.levelset_certificate(ModelParams(**P1).with_rates(alpha, beta))
    assert cert is not None and cert.eta == 1.0 / ratio
    assert cert.covers(50.0, 0.0)


def test_cli_solve_certifies_at_a_rounded_band_edge(tmp_path):
    alpha, beta = ROUNDING_RATES
    out = tmp_path / "out"
    assert cli.main(["solve", "--alpha", repr(alpha), "--beta", repr(beta),
                     "--grid", "64", "--out", str(out)]) == 0
    assert "# certificate_ok: True" in (out / "state.csv").read_text().splitlines()


def test_max_principle_diagnostic(grid64):
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    x = grid64.x
    u0 = GridFn(grid64, U_STAR * (1 + 0.1 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, V_STAR * (1 - 0.1 * np.cos(np.pi * x)))
    st = steady.newton_solve(p, u0, v0)
    f_at, g_at = check_max_principle(st)
    scale = (p.d2 + p.beta * st.u_max) * p.a1 + p.alpha * st.v_max * p.a2
    assert f_at >= -1e-6 * scale
    assert g_at >= -1e-6 * scale


def test_newton_reports_nonconvergence(grid64, monkeypatch):
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    x = Grid(64).x
    u0 = GridFn(grid64, U_STAR * (1 + 0.3 * np.cos(np.pi * x)))
    v0 = GridFn(grid64, V_STAR * (1 - 0.3 * np.cos(np.pi * x)))
    real = steady._damped_newton
    # the iteration cap held at 0
    monkeypatch.setattr(steady, "_damped_newton",
                        lambda residual, step, x, tol, _cap, *rest:
                        real(residual, step, x, tol, 0, *rest))
    with pytest.raises(NoConvergence):
        steady.newton_solve(p, u0, v0)


@pytest.mark.parametrize("kinetics", [P1, PW], ids=["P1", "PW"])
def test_kinetics_integrate_to_the_residual_on_steady_states(kinetics):
    # the Neumann stencil sums to exactly 0, so on a steady state h*sum(f)
    # = h*sum(r1) lies within L*residual_inf, up to the rounding of the
    # stencil, of r1 = lap + f and of the sums: at most ~30 eps x (the
    # larger of flux/h^2 and the kinetic terms) per unit length, which
    # 8 L residual_floor (32 eps x the same) covers.  P1 lands on its
    # exclusion state, PW on its constant state.
    p = ModelParams(**kinetics).with_rates(100.0, 100.0)
    g = Grid(1024)
    u0, v0 = cli._seeded_fields(p, g, 42, 0.1)
    st = steady.solve(p, u0, v0, 0.1, 20.0, 1e-11)
    bound = g.length * (st.residual_inf + 8.0 * st.residual_floor)
    assert abs(g.h * np.sum(reaction_f(p, st.u.values, st.v.values))) <= bound
    assert abs(g.h * np.sum(reaction_g(p, st.u.values, st.v.values))) <= bound


def test_two_lobe_densities_do_not_integrate_f_to_zero():
    # the premise of the complete-segregation obstruction: the fg dhmp
    # pattern read as u = w_+/d1, v = w_-/(gamma d2) has h*sum(f) near 3,
    # so it is no full-system steady state at any rates
    base = ModelParams(**{**P1, "d1": 0.01, "d2": 0.01})
    lp = LimitParams.from_model(base, gamma=1.0)
    g = Grid(256)
    w = twolobe.assemble(twolobe.solve_unit(lp, 1), lp, "fg", g).w
    u, v = limits.CSState(w).densities(lp)
    assert g.h * np.sum(reaction_f(base, u.values, v.values)) > 1.0
