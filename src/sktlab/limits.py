"""The two limiting systems of the simultaneous large-rate regime.

When both cross-diffusion rates blow up with their ratio tending to gamma,
solution sequences accumulate either on the incomplete-segregation system
(unknowns: a zero-flux field w and a positive constant tau = uv, coupled by
a nonlocal integral constraint) or on the complete-segregation system (a
single sign-changing field w with positive/negative-part nonlinearity).
This module provides the exact changes of variables in both directions and
Newton solvers for the two reduced systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, TauCollapse
from .grid import GridFn, laplacian_values
from .linalg import (_damped_newton, lap_band, residual_floor, solve_bordered,
                     solve_tridiag)
from .model import ModelParams, kinetic_partials, reaction_f, reaction_g

_TAU_FLOOR = 1e-10


@dataclass(frozen=True)
class LimitParams:
    """Kinetic and linear-diffusion coefficients plus the rate-ratio limit."""

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1: float
    d2: float
    gamma: float

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_model(cls, p: ModelParams, gamma: float | None = None) -> "LimitParams":
        if gamma is None:
            gamma = p.gamma()
        return cls(a1=p.a1, a2=p.a2, b1=p.b1, b2=p.b2, c1=p.c1, c2=p.c2,
                   d1=p.d1, d2=p.d2, gamma=gamma)

    def with_d1(self, d1: float) -> "LimitParams":
        return replace(self, d1=d1)


@dataclass(frozen=True)
class ISState:
    """Incomplete-segregation solution: field w and constant tau = uv > 0."""

    w: GridFn
    tau: float
    residual_inf: float = np.nan
    constraint: float = np.nan

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


def uv_from_w_z(p: ModelParams, w: GridFn, z: GridFn) -> tuple[GridFn, GridFn]:
    """Exact inversion of the forward transform at finite rates.

    Both component formulas share one discriminant; the expressions are
    evaluated in the branch that avoids subtractive cancellation, which
    matters once the rates reach 1e3-1e4.
    """
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise ValueError("transform requires alpha, beta > 0")
    wv, zv = w.values, z.values
    gamma = p.alpha / p.beta
    c = p.d1 * p.d2 / p.beta
    disc = (wv - c) ** 2 + 4.0 * gamma * p.d1 * p.d2 * zv
    slack = 1e-14 * np.maximum(1.0, (wv - c) ** 2 + 4.0 * gamma * p.d1 * p.d2 * np.abs(zv))
    if np.any(disc < -slack):
        raise DomainError("negative discriminant in the inverse transform")
    s = np.sqrt(np.maximum(disc, 0.0))

    # u = (s + (w - c)) / (2 d1), rationalized where w - c < 0
    num_u = 4.0 * gamma * p.d1 * p.d2 * zv
    u = np.where(wv - c >= 0.0,
                 (s + (wv - c)) / (2.0 * p.d1),
                 num_u / (2.0 * p.d1 * np.maximum(s - (wv - c), 1e-300)))
    # v = (s - (w + c)) / (2 gamma d2), rationalized where w + c > 0;
    # (s^2 - (w + c)^2) = 4 d1 d2 (gamma z - w / beta)
    num_v = 4.0 * p.d1 * p.d2 * (gamma * zv - wv / p.beta)
    v = np.where(wv + c <= 0.0,
                 (s - (wv + c)) / (2.0 * gamma * p.d2),
                 num_v / (2.0 * gamma * p.d2 * np.maximum(s + (wv + c), 1e-300)))
    return GridFn(w.grid, u), GridFn(w.grid, v)


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


def is_newton(lp: LimitParams, w0: GridFn, tau0: float,
              tol: float = 1e-11, max_iter: int = 40) -> ISState:
    """Bordered Newton on the field equations plus the integral constraint.

    The unknown is (w, tau) stacked.  The (n+1)-dimensional Jacobian is a
    tridiagonal block bordered by one dense column (tau derivative) and one
    dense row (constraint gradient), solved by a Schur complement on the
    scalar.  A line-search trial whose tau falls below 1e-10 raises
    TauCollapse: the complete-segregation signature, an informative outcome
    rather than a failure.
    """
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    g = w0.grid
    h = g.h

    def residual(x):
        fld, con, root = _is_residual_values(lp, x[:-1], float(x[-1]), h, lp.d1)
        return max(float(np.max(np.abs(fld))), abs(con)), (fld, con, root)

    def step(_x, data):
        fld, con, root = data
        q_w, q_t, f_w, f_t, _ = _is_linearization(lp, root, lp.d1)
        corner = h * float(np.sum(f_t))
        dw, dtau = solve_bordered(lap_band(g.n_cells, h, diag=q_w), (q_t,),
                                  (h * f_w,), corner, -fld, -con)
        return np.concatenate((dw, dtau))

    def done(x, rnorm):
        return rnorm <= max(tol, residual_floor(h, float(np.max(np.abs(x[:-1])))))

    def feasible(x):
        if x[-1] < _TAU_FLOOR:
            raise TauCollapse("tau fell below the collapse floor", tau=float(x[-1]))

    x, (fld, con, _), _, _, _ = _damped_newton(
        residual, step, np.concatenate((w0.values, [float(tau0)])), done, max_iter,
        "bordered Newton", feasible)
    return ISState(w=GridFn(g, x[:-1]), tau=float(x[-1]),
                   residual_inf=float(np.max(np.abs(fld))), constraint=con)


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


def cs_solve(lp: LimitParams, w0: GridFn, tol: float = 1e-10,
             max_iter: int = 60) -> CSState:
    """Solve the complete-segregation system by semismooth damped Newton.

    The positive/negative parts are differentiated with a fixed subgradient
    (_cs_q_w), which makes Newton locally superlinear without smoothing
    (Qi & Sun 1993); from a start as close as the two-lobe construction,
    O(h^2) off the discrete root, it converges in a few steps.
    """
    g = w0.grid
    h = g.h

    def residual(w):
        fld = _cs_residual_values(lp, w, h)
        return float(np.max(np.abs(fld))), fld

    def step(w, fld):
        return solve_tridiag(lap_band(g.n_cells, h, diag=_cs_q_w(lp, w)), -fld)

    def done(w, rnorm):
        return rnorm <= max(tol, residual_floor(h, float(np.max(np.abs(w)))))

    w, _, rnorm, _, _ = _damped_newton(residual, step, w0.values.copy(), done,
                                       max_iter, "semismooth Newton")
    return CSState(w=GridFn(g, w), residual_inf=rnorm)
