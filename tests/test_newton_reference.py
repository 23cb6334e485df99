"""The incomplete-segregation solvers against their earlier formulation.

`_ref_branch_newton` and `_ref_is_newton` keep the residual/step closures
that recomputed the (w, tau) -> (u, v, S) root in every Jacobian, built a
validated `LimitParams` per trial, called the kinetic partials twice and
stacked the bordered system with `column_stack`/`vstack` for scipy's
`solve_banded`.  The solvers now reuse the accepted trial's root and write
into preallocated buffers; the arithmetic is the same, operation for
operation, so iterates, iteration counts and residual histories must be
bit-equal, including on starts where the line search damps or a trial is
rejected.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from sktlab import limits
from sktlab.bifurcation import detect_crossing
from sktlab.errors import NoConvergence, TauCollapse
from sktlab.grid import Grid, GridFn, laplacian_values, neumann_eigenpair
from sktlab.limits import is_newton, w_star
from sktlab.linalg import _damped_newton, lap_band, residual_floor
from sktlab.model import constant_state, kinetic_partials, reaction_f, reaction_g

GRIDS = (64, 256, 1024)


def _ref_uv_root(lp, w, tau):
    s = np.sqrt(w * w + 4.0 * lp.gamma * lp.d1 * lp.d2 * tau)
    return (s + w) / (2.0 * lp.d1), (s - w) / (2.0 * lp.gamma * lp.d2), s


def _ref_is_residual_values(lp, w, tau, h):
    u, v, _ = _ref_uv_root(lp, w, tau)
    fval = reaction_f(lp, u, v)
    gval = reaction_g(lp, u, v)
    fld = laplacian_values(w, h) + fval - lp.gamma * gval
    return fld, h * float(np.sum(fval))


def _ref_is_linearization(lp, w, tau):
    u, v, s = _ref_uv_root(lp, w, tau)
    u_w = u / s
    v_w = -v / s
    u_t = lp.gamma * lp.d2 / s
    v_t = lp.d1 / s
    fu, fv, gu, gv = kinetic_partials(lp, u, v)
    q_w = (fu - lp.gamma * gu) * u_w + (fv - lp.gamma * gv) * v_w
    q_t = (fu - lp.gamma * gu) * u_t + (fv - lp.gamma * gv) * v_t
    f_w = fu * u_w + fv * v_w
    f_t = fu * u_t + fv * v_t
    return q_w, q_t, f_w, f_t, u, v, s


def _ref_solve_bordered(ab, cols, rows, corner, rhs_top, rhs_bot):
    X = solve_banded((1, 1), ab, np.column_stack([rhs_top, cols]))
    y = np.linalg.solve(corner - rows @ X[:, 1:], rhs_bot - rows @ X[:, 0])
    return X[:, 0] - X[:, 1:] @ y, y


def _ref_branch_newton(lp, x0, phi, s_target, g, tol=1e-11, max_iter=30):
    h = g.h
    cs = constant_state(lp)
    lap = lap_band(g.n_cells, h)
    phase_d1 = -cs.u_star * h * float(np.sum(phi))

    def residual(x):
        w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
        lp1 = replace(lp, d1=d1)
        fld, con = _ref_is_residual_values(lp1, w, tau, h)
        phase = h * float(np.sum(phi * (w - w_star(lp, d1)))) - s_target
        return max(float(np.max(np.abs(fld))), abs(con), abs(phase)), \
            residual_floor(h, float(np.max(np.abs(w)))), (fld, con, phase, lp1)

    def step(x, data):
        w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
        fld, con, phase, lp1 = data
        q_w, q_t, f_w, f_t, u, v, S = _ref_is_linearization(lp1, w, tau)
        u_d = lp.gamma * lp.d2 * tau / (d1 * S) - u / d1
        v_d = tau / S
        fu, fv, gu, gv = kinetic_partials(lp, u, v)
        q_d = (fu - lp.gamma * gu) * u_d + (fv - lp.gamma * gv) * v_d
        f_d = fu * u_d + fv * v_d
        ab = lap.copy()
        ab[1, :] += q_w
        cols = np.column_stack([q_t, q_d])
        rows = np.vstack([h * f_w, h * phi])
        corner = np.array([
            [h * float(np.sum(f_t)), h * float(np.sum(f_d))],
            [0.0, phase_d1],
        ])
        dw, dy = _ref_solve_bordered(ab, cols, rows, corner, -fld,
                                     np.array([-con, -phase]))
        return np.concatenate((dw, dy))

    def feasible(x):
        if x[-2] <= 1e-12 or x[-1] <= 0.0:
            return TauCollapse("branch iterate left the admissible cone "
                               f"(last tau = {float(x[-2])!r})")

    x, _, _, it, _, _ = _damped_newton(residual, step, x0, tol, max_iter,
                                       "branch corrector", feasible)
    return x, it


def _branch_corrector(lp, x0, phi, s_target, g, tol=1e-11, fold=1):
    """The branch corrector as switch_and_continue calls it, from x0 = (w,
    tau, d1): (x, iterations)."""
    x, _, _, it, _, _ = limits._is_corrector(lp, x0, g.h, tol, 30, "branch corrector",
                                             phase=(phi, s_target), fold=fold)
    return x, it


def _ref_is_newton(lp, w0, tau0, tol=1e-11, max_iter=40):
    h = w0.grid.h
    lap = lap_band(w0.grid.n_cells, h)

    def residual(x):
        fld, con = _ref_is_residual_values(lp, x[:-1], float(x[-1]), h)
        return max(float(np.max(np.abs(fld))), abs(con)), \
            residual_floor(h, float(np.max(np.abs(x[:-1])))), (fld, con)

    def step(x, data):
        fld, con = data
        q_w, q_t, f_w, f_t, _, _, _ = _ref_is_linearization(lp, x[:-1], float(x[-1]))
        ab = lap.copy()
        ab[1, :] += q_w
        corner = np.array([[h * float(np.sum(f_t))]])
        dw, dtau = _ref_solve_bordered(ab, q_t, (h * f_w)[None, :], corner, -fld,
                                       np.array([-con]))
        return np.concatenate((dw, dtau))

    def feasible(x):
        if x[-1] < limits._TAU_FLOOR:
            return TauCollapse("tau fell below the collapse floor "
                               f"(last tau = {float(x[-1])!r})")

    return _damped_newton(residual, step, np.concatenate((w0.values, [float(tau0)])),
                          tol, max_iter, "bordered Newton", feasible)


def _outcome(solve):
    """The solver's result, or the type and message of what it raised."""
    try:
        return solve()
    except (NoConvergence, TauCollapse) as exc:
        return type(exc), str(exc)


def _assert_bit_equal(new, ref):
    assert type(new) is type(ref) and len(new) == len(ref)
    for a, b in zip(new, ref):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        elif isinstance(a, list):
            assert a == b
        else:
            assert a == b and type(a) is type(b)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("mode", [1, 2])
def test_branch_newton_bit_equal_to_reference(p1_limit, mode, n):
    g = Grid(n)
    bp = detect_crossing(p1_limit, mode, g)
    phi = bp.phi_j.values
    tau0 = constant_state(p1_limit).tau_star
    w_base = np.full(n, w_star(p1_limit, bp.delta_j))
    iters = []
    # the linear predictor of the first continuation step, near and far
    for s in (0.005, 0.05, 0.2, 0.45):
        args = (p1_limit, np.concatenate((w_base + s * phi, [tau0, bp.delta_j])), phi, s, g)
        new = _outcome(lambda: _branch_corrector(*args))
        ref = _outcome(lambda: _ref_branch_newton(*args))
        _assert_bit_equal(new, ref)
        if isinstance(new[-1], int):
            iters.append(new[-1])
    assert iters and max(iters) >= 3


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("mode", [1, 2])
def test_is_newton_bit_equal_to_reference(p1_limit, monkeypatch, mode, n):
    runs = []

    def spy(*args, **kwargs):
        runs.append(_damped_newton(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(limits, "_damped_newton", spy)
    g = Grid(n)
    _, phi = neumann_eigenpair(g, mode)
    tau0 = constant_state(p1_limit).tau_star
    # below, near and above the first threshold, small and large starts;
    # the full steps from the last start overshoot tau < 0: halved, they
    # converge for mode 1 and collapse tau for mode 2
    for d1, amp in ((0.5, 0.1), (0.66, 0.5), (1.0, 2.0), (0.5, 10.0)):
        lp = replace(p1_limit, d1=d1)
        w0 = GridFn(g, w_star(lp, d1) + amp * phi.values)
        runs.clear()
        new = _outcome(lambda: is_newton(lp, w0, tau0))
        ref = _outcome(lambda: _ref_is_newton(lp, w0, tau0))
        if isinstance(ref[0], type):
            assert new == ref
            continue
        assert len(runs) == 1
        x, (fld, con, _), rnorm, it, history, _ = runs[0]
        x_ref, (fld_ref, con_ref), rnorm_ref, it_ref, history_ref, _ = ref
        assert np.array_equal(x, x_ref) and np.array_equal(fld, fld_ref)
        assert (con, rnorm, it, history) == (con_ref, rnorm_ref, it_ref, history_ref)
        assert np.array_equal(new.w.values, x_ref[:-1]) and new.tau == x_ref[-1]


@pytest.mark.parametrize("n", (64, 256))
@pytest.mark.parametrize("s", (0.48, 0.485))
def test_branch_newton_halves_an_infeasible_trial(p1_limit, monkeypatch, s, n):
    # near the end of the mode-2 branch (d1 -> 0 as s -> 0.486) the full
    # step from the linear predictor leaves d1 > 0; the corrector halves it
    # and converges instead of raising
    rejected = []

    def spy(residual, step, x, tol, max_iter, what, feasible=None):
        def counted(xt):
            err = feasible(xt)
            if err is not None:
                rejected.append(err)
            return err
        return _damped_newton(residual, step, x, tol, max_iter, what, counted)

    g = Grid(n)
    bp = detect_crossing(p1_limit, 2, g)
    phi = bp.phi_j.values
    tau0 = constant_state(p1_limit).tau_star
    args = (p1_limit, np.concatenate((np.full(n, w_star(p1_limit, bp.delta_j)) + s * phi,
                                      [tau0, bp.delta_j])), phi, s, g)
    ref = _ref_branch_newton(*args)
    monkeypatch.setattr(limits, "_damped_newton", spy)
    new = _branch_corrector(*args)
    _assert_bit_equal(new, ref)
    x, it = new
    assert it == 7 and x[-1] > 0.0
    assert rejected and all(isinstance(err, TauCollapse) for err in rejected)
    if (s, n) == (0.48, 64):
        assert x[-1] == 0.0008770066516938191
