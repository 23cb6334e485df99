"""Local bifurcation of the incomplete-segregation system in d1.

The constant branch w*(d1) loses invertibility of its linearization when a
scalar potential crosses a Neumann eigenvalue; this module provides the
closed-form threshold, the same closed form at the discrete eigenvalue,
an inverse-iteration oracle for the critical eigenvalue, and
branch switching with amplitude continuation of the emerging nonconstant
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, NoConvergence, NoThreshold, TauCollapse
from .grid import (Grid, GridFn, discrete_eigenvalue, integrate,
                   laplacian_values, neumann_eigenpair)
from .limits import LimitParams, _is_linearization, _is_residual_values, _uv_root
from .linalg import (_damped_newton, lap_band, residual_floor, solve_bordered,
                     solve_tridiag)
from .model import constant_state


@dataclass(frozen=True)
class BifurcationPoint:
    j: int
    lambda_j: float
    delta_j: float
    phi_j: GridFn


@dataclass(frozen=True)
class BranchPoint:
    s: float
    d1: float
    tau: float
    w: GridFn
    arclength: float
    newton_iters: int


@dataclass(frozen=True)
class Branch:
    origin: BifurcationPoint
    points: tuple            # ordered by s, constant state at s = 0 included
    truncated: bool = False


def w_star(lp: LimitParams, d1: float) -> float:
    """Constant-branch value d1*u* - gamma*d2*v*."""
    cs = constant_state(lp)
    return d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star


def kinetic_strength(lp: LimitParams) -> float:
    """K = (c1 + gamma*b2)*tau* - b1*u*^2 - gamma*c2*v*^2.

    The numerator of the linearization potential; its sign decides whether
    any bifurcation threshold exists at all.
    """
    cs = constant_state(lp)
    return ((lp.c1 + lp.gamma * lp.b2) * cs.tau_star
            - lp.b1 * cs.u_star ** 2 - lp.gamma * lp.c2 * cs.v_star ** 2)


def potential(lp: LimitParams, d1: float) -> float:
    """K / (d1*u* + gamma*d2*v*): the scalar multiplying the identity in the
    linearized field operator at the constant state."""
    cs = constant_state(lp)
    return kinetic_strength(lp) / (d1 * cs.u_star + lp.gamma * lp.d2 * cs.v_star)


def l22_value(lp: LimitParams, d1: float, length: float = 1.0) -> float:
    """Scalar block of the linearized constraint in the constant/scalar
    direction; strictly negative for positive parameters."""
    if d1 <= 0.0:
        raise ValueError("d1 must be positive")
    cs = constant_state(lp)
    return (-cs.u_star * length / (4.0 * (d1 * cs.u_star + lp.gamma * lp.d2 * cs.v_star))
            * (lp.b1 / d1 + lp.c1 / (lp.gamma * lp.d2)))


def l21_value(lp: LimitParams, d1: float, psi: GridFn) -> float:
    """Constraint-row action on a field direction at the constant state.

    Equals (scalar) * integrate(psi), so it vanishes identically on
    mean-zero fields; returned in that factored form on purpose.
    """
    lp = lp.with_d1(d1)      # ValueError unless d1 > 0
    root = _uv_root(lp, np.array([w_star(lp, d1)]), constant_state(lp).tau_star, d1)
    _, _, f_w, _, _ = _is_linearization(lp, root, d1)
    return float(f_w[0]) * integrate(psi)


def _threshold(lp: LimitParams, lam: float) -> float:
    """The d1 at which potential(d1) = lam: (K/lam - gamma*d2*v*)/u*."""
    cs = constant_state(lp)
    return (kinetic_strength(lp) / lam - lp.gamma * lp.d2 * cs.v_star) / cs.u_star


def delta_j(lp: LimitParams, j: int, length: float = 1.0) -> float:
    """Closed-form threshold for mode j: (K/lambda_j - gamma*d2*v*)/u*.

    Uses the continuum eigenvalue (j*pi/L)^2; raises NoThreshold when K <= 0
    or the rearrangement is nonpositive.
    """
    if j < 1:
        raise ValueError("mode index must be >= 1")
    if kinetic_strength(lp) <= 0.0:
        raise NoThreshold("K <= 0: no positive threshold for any mode")
    d1 = _threshold(lp, (j * math.pi / length) ** 2)
    if d1 <= 0.0:
        raise NoThreshold(f"mode {j}: rearranged threshold is nonpositive")
    return d1


def detect_crossing(lp: LimitParams, j: int, g: Grid,
                    bracket: tuple[float, float] = (0.0, math.inf)) -> BifurcationPoint:
    """The discrete threshold: the d1 where potential(d1) = lambda_j^h.

    The closed form of delta_j with the discrete eigenvalue in place of the
    continuum one.  There the discrete linearized field operator, restricted
    to mean-zero fields, becomes singular in the direction of the j-th
    cosine mode (l11_min_eigenvalue checks this independently).  Raises
    BracketError when the threshold lies outside bracket (by default, when
    it is not positive).
    """
    if j < 1:
        raise ValueError("mode index must be >= 1 (the constant mode is excluded)")
    lam_h = discrete_eigenvalue(g, j)
    root = _threshold(lp, lam_h)
    if not bracket[0] <= root <= bracket[1]:
        raise BracketError(f"potential - lambda_{j}^h has no root on {bracket}")
    _, phi = neumann_eigenpair(g, j)
    return BifurcationPoint(j=j, lambda_j=lam_h, delta_j=root, phi_j=phi)


def l11_min_eigenvalue(lp: LimitParams, d1: float, g: Grid,
                       iters: int = 60) -> float:
    """Smallest-magnitude eigenvalue of the discrete linearized field block
    laplacian + potential(d1), restricted to mean-zero fields, by shifted
    inverse iteration."""
    n = g.n_cells
    pot = potential(lp, d1)
    shift = 1e-13 * max(1.0, abs(pot))
    ab = lap_band(n, g.h, diag=pot - shift)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    x -= x.mean()
    x /= np.linalg.norm(x)
    lam = pot
    for _ in range(iters):
        y = solve_tridiag(ab, x)
        y -= y.mean()
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            break
        y /= ny
        ay = laplacian_values(y, g.h) + pot * y
        lam_new = float(y @ ay)
        if abs(lam_new - lam) <= 1e-16 * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam, x = lam_new, y
    return lam


def _branch_newton(lp: LimitParams, w, tau, d1, phi, s_target, g,
                   tol=1e-11, max_iter=30):
    """Corrector for the amplitude-parametrized branch system.

    Unknowns (w, tau, d1), stacked; equations: field residual, integral
    constraint, phase condition fixing the Phi_j-amplitude of w - w*(d1) at
    s_target.  The start needs tau, d1 > 0; trials with tau <= 1e-12 or
    d1 <= 0 are halved, and TauCollapse is raised if no step stays admissible.
    """
    h = g.h
    cs = constant_state(lp)
    v_off = lp.gamma * lp.d2 * cs.v_star      # w*(d1) = d1*u* - v_off
    h_phi = h * phi
    phase_d1 = -cs.u_star * h * float(np.sum(phi))

    def residual(x):
        w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
        fld, con, root = _is_residual_values(lp, w, tau, h, d1)
        phase = h * float(np.sum(phi * (w - (d1 * cs.u_star - v_off)))) - s_target
        return max(float(np.max(np.abs(fld))), abs(con), abs(phase)), \
            (fld, con, phase, root, tau, d1)

    def step(_x, data):
        fld, con, phase, root, tau, d1 = data
        # d1 enters through the transform (u, v)(w, tau; d1) and the
        # constant-branch offset in the phase row
        q_w, q_t, f_w, f_t, (q_u, q_v, f_u, f_v) = _is_linearization(lp, root, d1)
        u, _, S = root
        u_d = lp.gamma * lp.d2 * tau / (d1 * S) - u / d1
        v_d = tau / S
        q_d = q_u * u_d + q_v * v_d
        f_d = f_u * u_d + f_v * v_d

        corner = np.array([[h * float(np.sum(f_t)), h * float(np.sum(f_d))],
                           [0.0, phase_d1]])
        dw, dy = solve_bordered(lap_band(g.n_cells, h, diag=q_w), (q_t, q_d),
                                (h * f_w, h_phi), corner, -fld,
                                np.array([-con, -phase]))
        return np.concatenate((dw, dy))

    def done(x, rnorm):
        return rnorm <= max(tol, residual_floor(h, float(np.max(np.abs(x[:-2])))))

    def feasible(x):
        if x[-2] <= 1e-12 or x[-1] <= 0.0:
            return TauCollapse("branch iterate left the admissible cone", tau=x[-2])

    x, _, _, it, _ = _damped_newton(residual, step, np.concatenate((w, [tau, d1])),
                                    done, max_iter, "branch corrector", feasible)
    return x[:-2], float(x[-2]), float(x[-1]), it


def switch_and_continue(lp: LimitParams, bp: BifurcationPoint, s_max: float,
                        ds: float, tol: float = 1e-11) -> Branch:
    """Continue the branch emerging at bp in its amplitude s, both ways,
    on the grid of bp.phi_j.

    The predictor is linear at the first step (constant state plus s times
    the eigenfunction) and secant afterwards; the amplitude step adapts to
    the corrector's iteration count.  A failing step truncates the branch
    on that side and sets the flag rather than raising; a predictor with
    d1 <= 0 or tau <= 0 raises NoConvergence.
    """
    g = bp.phi_j.grid
    cs = constant_state(lp)
    phi = bp.phi_j.values
    base = BranchPoint(s=0.0, d1=bp.delta_j, tau=cs.tau_star,
                       w=GridFn(g, np.full(g.n_cells, w_star(lp, bp.delta_j))),
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
                w, tau, d1, iters = _branch_newton(
                    lp, w_pred.copy(), tau_pred, d1_pred, phi, s_next, g, tol=tol)
            except (NoConvergence, TauCollapse):
                step *= 0.5
                if step < 1e-6 * ds:
                    truncated = True
                    break
                continue
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
    return Branch(origin=bp, points=tuple(ordered), truncated=truncated)
