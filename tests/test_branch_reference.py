"""The branch continuation against two earlier loops.

`_ref_switch_and_continue` keeps the loop that predicted every step after
the first by the secant through the last two accepted points.  The
predictor only moves the corrector's start, so both loops must trace the
same s grid and agree at every point to well within the corrector
tolerance, while the polynomial predictor needs fewer corrector
iterations.

`_ref_two_sided` keeps the polynomial-predictor loop as it was before the
branch was folded and mirrored: it continues both signs of s on the full
grid.  The folded, mirrored branch must trace the same s grid, end with
the same truncation flag and agree with it to 1e-9 at every point.
"""

import math
from collections import deque

import numpy as np
import pytest

from sktlab import bifurcation, limits
from sktlab.bifurcation import (_PREDICTOR_NODES, Branch, BranchPoint,
                                _extrapolation_weights, detect_crossing,
                                switch_and_continue)
from sktlab.errors import NoConvergence, TauCollapse
from sktlab.grid import Grid, GridFn
from sktlab.limits import LimitParams, w_star
from sktlab.model import constant_state

from conftest import P1
from test_newton_reference import _branch_corrector


def _ref_switch_and_continue(lp, bp, s_max, ds, tol=1e-11):
    g = bp.phi_j.grid
    cs = constant_state(lp)
    phi = bp.phi_j.values
    base = BranchPoint(s=0.0, d1=bp.delta_j, tau=cs.tau_star,
                       w=GridFn(g, np.full(g.n_cells, w_star(lp, cs, bp.delta_j))),
                       arclength=0.0, newton_iters=0)
    truncated = False
    sides = []
    for sign in (+1.0, -1.0):
        pts = []
        prev = (base.w.values.copy(), base.tau, base.d1)
        prev2 = None
        s_prev = 0.0
        step = ds
        arclen = 0.0
        while abs(s_prev) < s_max - 1e-14:
            s_next = s_prev + sign * step
            if abs(s_next) > s_max:
                s_next = sign * s_max
            if prev2 is None:
                w_pred = prev[0] + (s_next - s_prev) * phi
                tau_pred, d1_pred = prev[1], prev[2]
            else:
                frac = (s_next - s_prev) / (s_prev - s_prev2)
                w_pred = prev[0] + frac * (prev[0] - prev2[0])
                tau_pred = prev[1] + frac * (prev[1] - prev2[1])
                d1_pred = prev[2] + frac * (prev[2] - prev2[2])
            if d1_pred <= 0.0 or tau_pred <= 0.0:
                raise NoConvergence("branch predictor left d1 > 0 / tau > 0 "
                                    f"at s = {s_next:.6g}")
            try:
                x, iters = _branch_corrector(lp, np.concatenate((w_pred, [tau_pred, d1_pred])),
                                             phi, s_next, g, tol=tol)
            except (NoConvergence, TauCollapse):
                step *= 0.5
                if step < 1e-6 * ds:
                    truncated = True
                    break
                continue
            w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
            dl = math.sqrt(g.h * float(np.sum((w - prev[0]) ** 2))
                           + (tau - prev[1]) ** 2 + (d1 - prev[2]) ** 2)
            arclen += dl
            pts.append(BranchPoint(s=s_next, d1=d1, tau=tau, w=GridFn(g, w),
                                   arclength=arclen, newton_iters=iters))
            prev2, s_prev2 = prev, s_prev
            prev, s_prev = (w, tau, d1), s_next
            if iters <= 3:
                step = min(step * 1.5, 10.0 * ds)
            elif iters >= 7:
                step = max(step * 0.5, 1e-6 * ds)
        sides.append(pts)
    plus, minus = sides
    ordered = [BranchPoint(p.s, p.d1, p.tau, p.w, -p.arclength, p.newton_iters)
               for p in reversed(minus)] + [base] + plus
    return Branch(points=tuple(ordered), truncated=truncated)


def _ref_two_sided(lp, bp, s_max, ds, tol=1e-11):
    g = bp.phi_j.grid
    cs = constant_state(lp)
    phi = bp.phi_j.values
    base = BranchPoint(s=0.0, d1=bp.delta_j, tau=cs.tau_star,
                       w=GridFn(g, np.full(g.n_cells, w_star(lp, cs, bp.delta_j))),
                       arclength=0.0, newton_iters=0)
    truncated = False
    sides = []
    for sign in (+1.0, -1.0):
        pts = []
        hist = deque([(0.0, np.concatenate((base.w.values, [base.tau, base.d1])))],
                     maxlen=_PREDICTOR_NODES)
        step = ds
        arclen = 0.0
        while abs(hist[-1][0]) < s_max - 1e-14:
            s_prev, prev = hist[-1]
            s_next = s_prev + sign * step
            if abs(s_next) > s_max:
                s_next = sign * s_max
            if len(hist) == 1:
                pred = np.concatenate((prev[:-2] + s_next * phi, prev[-2:]))
            else:
                s_nodes, x_nodes = zip(*hist)
                pred = _extrapolation_weights(s_nodes, s_next) @ np.array(x_nodes)
            if pred[-1] <= 0.0 or pred[-2] <= 0.0:
                raise NoConvergence("branch predictor left d1 > 0 / tau > 0 "
                                    f"at s = {s_next:.6g}")
            try:
                x, iters = _branch_corrector(lp, pred, phi, s_next, g, tol=tol)
            except (NoConvergence, TauCollapse):
                step *= 0.5
                if step < 1e-6 * ds:
                    truncated = True
                    break
                continue
            w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
            arclen += math.sqrt(g.h * float(np.sum((w - prev[:-2]) ** 2))
                                + (tau - prev[-2]) ** 2 + (d1 - prev[-1]) ** 2)
            pts.append(BranchPoint(s=s_next, d1=d1, tau=tau, w=GridFn(g, w),
                                   arclength=arclen, newton_iters=iters))
            hist.append((s_next, np.concatenate((w, [tau, d1]))))
            if iters <= 3:
                step = min(step * 1.5, 10.0 * ds)
            elif iters >= 7:
                step = max(step * 0.5, 1e-6 * ds)
        sides.append(pts)
    plus, minus = sides
    ordered = [BranchPoint(p.s, p.d1, p.tau, p.w, -p.arclength, p.newton_iters)
               for p in reversed(minus)] + [base] + plus
    return Branch(points=tuple(ordered), truncated=truncated)


# unequal nodes as an adapted amplitude step leaves them, both signs of s
NODES = ([0.0, 0.005, 0.0125, 0.02375, 0.040625],
         [0.0, -0.003, -0.0075, -0.0105, -0.021])


@pytest.mark.parametrize("nodes", NODES)
def test_extrapolation_weights_reproduce_polynomials(nodes):
    rng = np.random.default_rng(3)
    t = nodes[-1] + 1.5 * (nodes[-1] - nodes[-2])
    for k in range(1, len(nodes) + 1):
        c = _extrapolation_weights(nodes[-k:], t)
        # k nodes reproduce every polynomial of degree below k
        for deg in range(k):
            coef = rng.standard_normal(deg + 1)
            exact = np.polyval(coef, t)
            got = c @ np.polyval(coef, np.array(nodes[-k:]))
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_two_node_weights_are_the_secant():
    rng = np.random.default_rng(5)
    for s_prev2, s_prev, s_next in ((0.0, 0.005, 0.0125), (0.01, 0.0125, 0.02),
                                    (-0.003, -0.0075, -0.0105)):
        frac = (s_next - s_prev) / (s_prev - s_prev2)
        c = _extrapolation_weights([s_prev2, s_prev], s_next)
        assert np.allclose(c, [-frac, 1.0 + frac], rtol=1e-14, atol=0.0)
        prev2, prev = rng.standard_normal(7), rng.standard_normal(7)
        secant = prev + frac * (prev - prev2)
        assert np.allclose(c @ np.array([prev2, prev]), secant, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", (64, 256, 1024))
@pytest.mark.parametrize("mode, s_max", ((1, 0.5), (2, 0.45)))
def test_branch_matches_secant_reference(p1_limit, mode, s_max, n):
    bp = detect_crossing(p1_limit, mode, Grid(n))
    new = switch_and_continue(p1_limit, bp, s_max=s_max, ds=0.005)
    ref = _ref_switch_and_continue(p1_limit, bp, s_max=s_max, ds=0.005)
    assert new.truncated == ref.truncated
    assert [pt.s for pt in new.points] == [pt.s for pt in ref.points]
    for a, b in zip(new.points, ref.points):
        assert abs(a.d1 - b.d1) <= 1e-9 and abs(a.tau - b.tau) <= 1e-9
        assert float(np.max(np.abs(a.w.values - b.w.values))) <= 1e-9
    iters_new = sum(pt.newton_iters for pt in new.points)
    iters_ref = sum(pt.newton_iters for pt in ref.points)
    assert iters_new <= 0.75 * iters_ref


# (parameter set, mode, cells, s_max, ds, fold k = gcd(j, n), mirrored):
# mode 1; mode 2 (k = 2); mode 250 of 256 cells (k = 2, reduced mode 125,
# truncated); mode 4 of 90 cells, whose reduced mode 2 is even: both sides
# are continued on the folded grid
FOLDS = [(P1, 1, 1024, 0.5, 0.005, 1, True),
         (P1, 2, 256, 0.45, 0.005, 2, True),
         (dict(P1, d2=1e-9), 250, 256, 0.1, 0.005, 2, True),
         (dict(P1, d2=1e-3), 4, 90, 0.08, 0.005, 2, False)]


@pytest.mark.parametrize("params, mode, n, s_max, ds, fold, mirrored", FOLDS)
def test_folded_branch_matches_the_two_sided_loop(params, mode, n, s_max, ds,
                                                  fold, mirrored):
    lp = LimitParams(gamma=1.0, **params)
    bp = detect_crossing(lp, mode, Grid(n))
    new = switch_and_continue(lp, bp, s_max=s_max, ds=ds)
    ref = _ref_two_sided(lp, bp, s_max=s_max, ds=ds)
    assert (new.fold, new.mirrored) == (fold, mirrored)
    assert new.truncated == ref.truncated
    assert [pt.s for pt in new.points] == [pt.s for pt in ref.points]
    assert any(pt.s < 0.0 for pt in new.points)
    for a, b in zip(new.points, ref.points):
        assert abs(a.d1 - b.d1) <= 1e-9 and abs(a.tau - b.tau) <= 1e-9
        assert float(np.max(np.abs(a.w.values - b.w.values))) <= 1e-9
    if mirrored:
        # the s < 0 side is the reversed reduced field of the s > 0 side
        m = n // fold
        zero = next(i for i, pt in enumerate(new.points) if pt.s == 0.0)
        for a, b in zip(new.points[zero - 1::-1], new.points[zero + 1:]):
            assert (a.s, a.d1, a.tau, a.arclength) == (-b.s, b.d1, b.tau, -b.arclength)
            assert np.array_equal(a.w.values[:m], b.w.values[m - 1::-1])
            assert a.newton_iters == 0


@pytest.mark.parametrize("params, mode, n, s_max, ds, fold, mirrored", FOLDS)
def test_corrector_runs_only_on_the_sides_no_symmetry_supplies(
        params, mode, n, s_max, ds, fold, mirrored, monkeypatch):
    # one _is_corrector call per attempted point, on the reduced (w, tau, d1)
    # vector, at the targets of the two-sided loop where no reflection
    # supplies the point; each traced point keeps its call's iterations
    calls, ref_targets = [], []
    is_corrector = limits._is_corrector

    def recorder(into):
        def spy(lp, x, h, tol, max_iter, what, phase, fold):
            try:
                x_new, data, rnorm, it, history, floor = is_corrector(
                    lp, x, h, tol, max_iter, what, phase=phase, fold=fold)
            except (NoConvergence, TauCollapse):
                into.append((phase[1], x.size, fold, None))
                raise
            into.append((phase[1], x.size, fold, it))
            return x_new, data, rnorm, it, history, floor
        return spy

    lp = LimitParams(gamma=1.0, **params)
    bp = detect_crossing(lp, mode, Grid(n))
    monkeypatch.setattr(bifurcation, "_is_corrector", recorder(calls))
    monkeypatch.setattr(limits, "_is_corrector", recorder(ref_targets))
    branch = switch_and_continue(lp, bp, s_max=s_max, ds=ds)
    _ref_two_sided(lp, bp, s_max=s_max, ds=ds)
    assert all((size, k) == (n // fold + 2, fold) for _, size, k, _ in calls)
    targets = [s for s, _, _, _ in calls]
    assert targets == [s for s, _, _, _ in ref_targets if s > 0.0 or not mirrored]
    assert any(s > 0.0 for s in targets)
    assert any(s < 0.0 for s in targets) != mirrored
    zero = next(i for i, pt in enumerate(branch.points) if pt.s == 0.0)
    traced = branch.points[zero + 1:] + (() if mirrored else branch.points[:zero][::-1])
    assert [(s, it) for s, _, _, it in calls if it is not None] == \
        [(pt.s, pt.newton_iters) for pt in traced]
