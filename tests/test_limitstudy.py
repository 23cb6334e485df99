import numpy as np
import pytest

from sktlab import limitstudy, steady
from sktlab.errors import ValidationError
from sktlab.grid import Grid, GridFn
from sktlab.limitstudy import geometric_schedule, match_limit, run_sequence
from sktlab.model import ModelParams, constant_state

from conftest import P1, PW, TAU_STAR, U_STAR, V_STAR
from oracles import segregation_diagnostics


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


def test_schedule_validation(grid64, p1):
    base = p1
    st = _seed(base.with_rates(10.0, 10.0), grid64)
    with pytest.raises(ValueError):
        run_sequence(base, [], st, gamma_target=1.0)
    with pytest.raises(ValueError):
        run_sequence(base, [(10.0, 10.0), (5.0, 20.0)], st, gamma_target=1.0)


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


def test_match_limit_rejects_undetermined(grid64, p1):
    sched = geometric_schedule(10.0, 1.0, 2)
    seed = _seed(p1.with_rates(*sched[0]), grid64)
    rep = run_sequence(p1, sched, seed, gamma_target=1.0)
    rep2 = limitstudy.LimitRunReport(
        gamma_target=rep.gamma_target, steps=rep.steps,
        classification="Undetermined", final_state=rep.final_state,
        final_w=rep.final_w, tau_star=rep.tau_star,
        complete_tol=rep.complete_tol)
    with pytest.raises(ValueError):
        match_limit(rep2)


def test_segregation_diagnostics(grid64, p1):
    p = p1.with_rates(10.0, 10.0)
    st = _seed(p, grid64)
    lo, hi, near_const = segregation_diagnostics(st)
    assert abs(lo - TAU_STAR) < 1e-8
    assert abs(hi - TAU_STAR) < 1e-8
    assert near_const
    # coexistence limit, not an exclusion state
    assert np.min(st.u.values) > 1.0 and np.min(st.v.values) > 1.0
