"""The two limiting systems of the simultaneous large-rate regime.

When both cross-diffusion rates blow up with their ratio tending to gamma,
solution sequences accumulate either on the incomplete-segregation system
(unknowns: a zero-flux field w and a positive constant tau = uv, coupled by
a nonlocal integral constraint) or on the complete-segregation system (a
single sign-changing field w with positive/negative-part nonlinearity).
This module provides the change of variables (u, v) -> (w, z), its
(w, tau) -> (u, v) inversion, the constant branch w*(d1), Newton solvers
for the two reduced systems, and one for the full system in the regular
form in eps = 1/alpha that tends to the incomplete one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TauCollapse
from .grid import GridFn, laplacian_values
from .linalg import (_damped_newton, lap_band, pair_band, residual_floor,
                     solve_bordered, solve_tridiag)
from .model import (Coefficients, ModelParams, constant_state, kinetic_partials,
                    reaction_f, reaction_g)

_TAU_FLOOR = 1e-10


@dataclass(frozen=True)
class LimitParams(Coefficients):
    """The coefficients plus the rate-ratio limit gamma > 0."""

    gamma: float

    def __post_init__(self):
        super().__post_init__()
        if self.gamma <= 0.0:
            raise ValueError("gamma must be strictly positive")

    @classmethod
    def from_model(cls, p: ModelParams, gamma: float) -> "LimitParams":
        return cls(a1=p.a1, a2=p.a2, b1=p.b1, b2=p.b2, c1=p.c1, c2=p.c2,
                   d1=p.d1, d2=p.d2, gamma=gamma)


@dataclass(frozen=True)
class ISState:
    """Incomplete-segregation solution: field w and constant tau = uv > 0."""

    w: GridFn
    tau: float
    residual_inf: float = np.nan
    constraint: float = np.nan
    newton_iters: int = 0

    def densities(self, lp: LimitParams) -> tuple[GridFn, GridFn]:
        u, v = uv_from_w_tau(lp, self.w.values, self.tau)
        return GridFn(self.w.grid, u), GridFn(self.w.grid, v)


@dataclass(frozen=True)
class CSState:
    """Complete-segregation solution: sign-changing w, tau = 0."""

    w: GridFn
    residual_inf: float = np.nan

    def densities(self, lp: LimitParams) -> tuple[GridFn, GridFn]:
        """u = w_+/d1 and v = w_-/(gamma d2), the tau = 0 root."""
        w = self.w.values
        u, v = _uv_of_root(lp, w, np.abs(w), lp.d1)
        return GridFn(self.w.grid, u), GridFn(self.w.grid, v)


def uv_from_w_tau(lp: LimitParams, w, tau):
    """(u, v) from (w, tau): the inversion of w = d1 u - gamma d2 v under
    u v = tau.  At tau = 0 this degenerates to the positive/negative parts."""
    if np.any(np.asarray(tau) < 0.0):
        raise ValueError("tau must be nonnegative")
    u, v, _ = _uv_root(lp, np.asarray(w, dtype=float), tau, lp.d1)
    return u, v


def _uv_root(lp: LimitParams, w: np.ndarray, tau, d1: float):
    """(u, v, S) for float w, tau >= 0 and diffusion d1, where S = sqrt(w^2
    + 4 gamma d1 d2 tau) is the root both densities share."""
    s = np.sqrt(w * w + 4.0 * lp.gamma * d1 * lp.d2 * tau)
    return (*_uv_of_root(lp, w, s, d1), s)


def _uv_of_root(lp: LimitParams, w, s, d1: float):
    """u = (S + w)/(2 d1), v = (S - w)/(2 gamma d2): the (u, v) of w and the
    root S >= |w| (S = |w| gives w_+/d1 and w_-/(gamma d2) exactly, signed
    zeros included)."""
    return (s + w) / (2.0 * d1), (s - w) / (2.0 * lp.gamma * lp.d2)


def w_z_from_uv(p: ModelParams, u: GridFn, v: GridFn) -> tuple[GridFn, GridFn]:
    """Forward transform: w = d1 u - (alpha/beta) d2 v, z = (d1/alpha) u + u v."""
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise ValueError("transform requires alpha, beta > 0")
    gamma = p.alpha / p.beta
    w = p.d1 * u.values - gamma * p.d2 * v.values
    z = (p.d1 / p.alpha) * u.values + u.values * v.values
    return GridFn(u.grid, w), GridFn(u.grid, z)


def w_star(lp: LimitParams, d1: float) -> float:
    """Constant-branch value d1*u* - gamma*d2*v*."""
    cs = constant_state(lp)
    return d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star


def _is_residual_values(lp: LimitParams, w, tau: float, h: float, d1: float):
    """(field residual, constraint, root (u, v, S) of _uv_root) at d1."""
    u, v, _ = root = _uv_root(lp, w, tau, d1)
    fval = reaction_f(lp, u, v)
    gval = reaction_g(lp, u, v)
    fld = laplacian_values(w, h) + fval - lp.gamma * gval
    return fld, h * float(np.sum(fval)), root


def is_residual(lp: LimitParams, s: ISState) -> tuple[GridFn, float]:
    """(field residual, integral constraint value) of the incomplete system."""
    if s.tau <= 0.0:
        raise ValueError("incomplete-segregation residual needs tau > 0")
    fld, con, _ = _is_residual_values(lp, s.w.values, s.tau, s.w.grid.h, lp.d1)
    return GridFn(s.w.grid, fld), con


def _is_linearization(lp: LimitParams, root, d1: float):
    """Nodewise partials of q = f - gamma g and of f wrt (w, tau) at the root
    (u, v, S) that _is_residual_values computed for (w, tau) at diffusion
    d1, followed by those of q and f wrt (u, v): (q_u, q_v, f_u, f_v)."""
    u, v, s = root
    u_w = u / s
    v_w = -v / s
    u_t = lp.gamma * lp.d2 / s
    v_t = d1 / s
    fu, fv, gu, gv = kinetic_partials(lp, u, v)
    q_u, q_v = fu - lp.gamma * gu, fv - lp.gamma * gv
    q_w = q_u * u_w + q_v * v_w
    q_t = q_u * u_t + q_v * v_t
    f_w = fu * u_w + fv * v_w
    f_t = fu * u_t + fv * v_t
    return q_w, q_t, f_w, f_t, (q_u, q_v, fu, fv)


def _collapse(what: str, tau) -> TauCollapse:
    return TauCollapse(f"{what} (last tau = {float(tau)!r})")


def _is_corrector(lp: LimitParams, x: np.ndarray, h: float, tol: float,
                  max_iter: int, what: str, phase=None, fold=1):
    """Bordered Newton on the incomplete-segregation system from x = (w, tau)
    at lp.d1; returns _damped_newton's result.  With phase = (phi, s_target),
    x = (w, tau, d1) and con stacks the constraint with the phase equation
    h*sum(phi*(w - w*(d1))) = s_target.  The tridiagonal field block gets one
    border column and row per scalar unknown, eliminated by solve_bordered.
    A trial with tau < 1e-10 (or, with phase, d1 <= 0) is infeasible: it is
    halved, and TauCollapse is raised only if the step falls below 2**-20.
    fold = k: w is one of k mirror images tiling the domain, sums weigh k*h.
    """
    n = x.size - (1 if phase is None else 2)
    wq = fold * h                                  # quadrature weight
    if phase is not None:
        phi, s_target = phase
        phase_d1 = -constant_state(lp).u_star * wq * float(np.sum(phi))

    def residual(x):
        d1 = lp.d1 if phase is None else float(x[-1])
        fld, con, root = _is_residual_values(lp, x[:n], float(x[n]), h, d1)
        con *= fold
        rnorm = max(float(np.max(np.abs(fld))), abs(con))
        if phase is not None:
            ph = wq * float(np.sum(phi * (x[:n] - w_star(lp, d1)))) - s_target
            rnorm, con = max(rnorm, abs(ph)), np.array([con, ph])
        return rnorm, residual_floor(h, float(np.max(np.abs(x[:n])))), (fld, con, root)

    def step(x, data):
        fld, con, root = data
        d1 = lp.d1 if phase is None else float(x[-1])
        q_w, q_t, f_w, f_t, (q_u, q_v, f_u, f_v) = _is_linearization(lp, root, d1)
        cols, rows, corner = (q_t,), (wq * f_w,), wq * float(np.sum(f_t))
        if phase is not None:
            # d1 enters through the transform (u, v)(w, tau; d1) and the
            # constant-branch offset in the phase row
            u, _, S = root
            tau = float(x[n])
            u_d = lp.gamma * lp.d2 * tau / (d1 * S) - u / d1
            v_d = tau / S
            cols, rows = cols + (q_u * u_d + q_v * v_d,), rows + (wq * phi,)
            corner = np.array([[corner, wq * float(np.sum(f_u * u_d + f_v * v_d))],
                               [0.0, phase_d1]])
        dw, dy = solve_bordered(lap_band(n, h, diag=q_w), cols, rows, corner, -fld, -con)
        return np.concatenate((dw, dy))

    def feasible(x):
        if x[n] < _TAU_FLOOR:
            return _collapse("tau fell below the collapse floor", x[n])
        if phase is not None and x[-1] <= 0.0:
            return _collapse("branch iterate left d1 > 0", x[n])

    return _damped_newton(residual, step, x, tol, max_iter, what, feasible)


def is_newton(lp: LimitParams, w0: GridFn, tau0: float,
              tol: float = 1e-11) -> ISState:
    """Bordered Newton (_is_corrector) on the field equations plus the
    integral constraint, for (w, tau) at lp.d1, in at most 40 iterations.
    A line-search trial whose tau falls below 1e-10 is halved; TauCollapse,
    the complete-segregation signature, is raised only when halving reaches
    a step below 2**-20, or at once when tau0 is already below that floor
    (a tau* = u* v* that is tiny or underflowed).
    """
    if not tau0 >= _TAU_FLOOR:
        raise _collapse(f"start tau is below the collapse floor {_TAU_FLOOR:g}", tau0)
    g = w0.grid
    x, (fld, con, _), _, it, _, _ = _is_corrector(
        lp, np.concatenate((w0.values, [float(tau0)])), g.h, tol, 40, "bordered Newton")
    return ISState(w=GridFn(g, x[:-1]), tau=float(x[-1]),
                   residual_inf=float(np.max(np.abs(fld))), constraint=con,
                   newton_iters=it)


def _eps_newton(lp: LimitParams, x: np.ndarray, eps: float, h: float, tol: float):
    """Damped Newton (at most 40 iterations) on the full system at alpha =
    1/eps in its regular form: x = (w, zeta, T), tau = uv = T + eps*zeta,
    (u, v) = _uv_root(lp, w, tau, lp.d1), rows lap(w) + f - gamma g,
    lap(d1 u + zeta) + f (the first equation: lap(alpha tau) = lap(zeta))
    and h*sum(zeta), all O(1) as eps -> 0; the (w, zeta) pair band is
    bordered by the T column and mean row, and the floor is that of max|w|
    + max|d1 u + zeta|.  x is infeasible where tau <= 0 at a node or its
    (u, v) lose tau (v or u is lost where 4 gamma d1 d2 tau is below the
    rounding of w^2): it never counts as converged, and a trial is halved
    (TauCollapse if no step stays feasible).  Returns _damped_newton's
    result, data (r1, r2, mean, (u, v, S)).
    """
    n = (x.size - 1) // 2
    d1 = lp.d1
    mean_row = (np.zeros(n), np.full(n, h))

    def residual(x):
        zeta = x[n:-1]
        r1, _, root = _is_residual_values(lp, x[:n], x[-1] + eps * zeta, h, d1)
        pot = d1 * root[0] + zeta
        r2 = laplacian_values(pot, h) + reaction_f(lp, *root[:2])
        mean = h * float(np.sum(zeta))
        floor = residual_floor(h, float(np.max(np.abs(x[:n]))) + float(np.max(np.abs(pot))))
        return (max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))), abs(mean)),
                floor, (r1, r2, mean, root))

    def step(_x, data):
        r1, r2, mean, root = data
        u, _, s = root
        q_w, q_t, f_w, f_t, _ = _is_linearization(lp, root, d1)
        u_t = lp.gamma * lp.d2 / s
        ab = pair_band(n, h, [[(1.0, q_w), (0.0, eps * q_t)],
                              [(d1 * u / s, f_w), (1.0 + eps * d1 * u_t, eps * f_t)]])
        col = (q_t, laplacian_values(d1 * u_t, h) + f_t)      # d/dT of the two rows
        return np.concatenate(solve_bordered(ab, (col,), (mean_row,), 0.0, (-r1, -r2), -mean))

    def feasible(x):
        tau = x[-1] + eps * x[n:-1]
        if not float(np.min(tau)) > 0.0:
            return _collapse("T + eps*zeta left tau > 0", x[-1])
        u, v, _ = _uv_root(lp, x[:n], tau, d1)
        if not float(np.max(np.abs(u * v - tau))) <= 1e-8 * float(np.max(tau)):
            return _collapse("the (u, v) of (w, tau) lose tau", x[-1])

    return _damped_newton(residual, step, x, tol, 40, "regular-form Newton", feasible)


def _cs_residual_values(lp: LimitParams, w: np.ndarray, h: float):
    u, v = _uv_of_root(lp, w, np.abs(w), lp.d1)
    q = reaction_f(lp, u, v) - lp.gamma * reaction_g(lp, u, v)
    return laplacian_values(w, h) + q


def _cs_q_w(lp: LimitParams, w: np.ndarray):
    """A fixed element of the generalized derivative of q = f - gamma g in
    w: the derivative of w_+ is taken as 1 at w = 0."""
    pos = w >= 0.0
    u_w = np.where(pos, 1.0 / lp.d1, 0.0)
    v_w = np.where(pos, 0.0, -1.0 / (lp.gamma * lp.d2))
    fu, fv, gu, gv = kinetic_partials(lp, *_uv_of_root(lp, w, np.abs(w), lp.d1))
    return (fu - lp.gamma * gu) * u_w + (fv - lp.gamma * gv) * v_w


def cs_solve(lp: LimitParams, w0: GridFn, tol: float = 1e-10) -> CSState:
    """Solve the complete-segregation system by semismooth damped Newton in
    at most 60 iterations.

    The positive/negative parts are differentiated with a fixed subgradient
    (_cs_q_w), which makes Newton locally superlinear without smoothing
    (Qi & Sun 1993); from a start as close as the two-lobe construction,
    O(h^2) off the discrete root, it converges in a few steps.
    """
    g = w0.grid
    h = g.h

    def residual(w):
        fld = _cs_residual_values(lp, w, h)
        return float(np.max(np.abs(fld))), residual_floor(h, float(np.max(np.abs(w)))), fld

    def step(w, fld):
        return solve_tridiag(lap_band(g.n_cells, h, diag=_cs_q_w(lp, w)), -fld)

    w, _, rnorm, _, _, _ = _damped_newton(residual, step, w0.values.copy(), tol,
                                          60, "semismooth Newton")
    return CSState(w=GridFn(g, w), residual_inf=rnorm)
