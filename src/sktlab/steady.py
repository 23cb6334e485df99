"""Steady states of the full cross-diffusion system.

The pipeline is semi-implicit time marching into a basin of attraction
followed by one damped Newton in the densities (u, v), with an
analytically assembled block-tridiagonal Jacobian (interleaved unknown
ordering, direct banded factorization).  Along a large-rate schedule,
limitstudy solves each step in the regular form of limits._eps_newton and
calls newton_solve only where that form cannot hold the state.  The
reduction identity and the maximum-principle sign check on F and G at the
density maxima are oracles of the tests (tests/oracles.py), not part of
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .errors import BandError, BlowUp, DomainError, NegativeState
from .grid import Grid, GridFn, laplacian_values
from .linalg import (_damped_newton, lap_band, pair_band, residual_floor,
                     solve_pair, solve_tridiag)
from .model import ModelParams, kinetic_partials, reaction_f, reaction_g


@dataclass(frozen=True)
class SteadyState:
    params: ModelParams
    grid: Grid
    u: GridFn
    v: GridFn
    residual_inf: float
    residual_floor: float    # the rounding floor the stop rule allowed
    newton_iters: int
    certificate_ok: bool | None
    residual_history: tuple = field(default=(), repr=False)

    @property
    def u_max(self) -> float:
        return float(np.max(self.u.values))

    @property
    def v_max(self) -> float:
        return float(np.max(self.v.values))


def _residual_values(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    r1 = laplacian_values((p.d1 + p.alpha * v) * u, h) + reaction_f(p, u, v)
    r2 = laplacian_values((p.d2 + p.beta * u) * v, h) + reaction_g(p, u, v)
    return r1, r2


def residual_skt(p: ModelParams, u: GridFn, v: GridFn) -> tuple[GridFn, GridFn]:
    """Nodewise residual of both equations; products formed before the
    Laplacian is applied."""
    if u.grid != v.grid:
        raise ValueError("u and v must live on the same grid")
    r1, r2 = _residual_values(p, u.values, v.values, u.grid.h)
    return GridFn(u.grid, r1), GridFn(u.grid, r2)


def _jacobian_banded(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    """Analytic Jacobian of the stacked residual, interleaved ordering
    (u0, v0, u1, v1, ...), in solve_banded's (3, 3) layout."""
    fu, fv, gu, gv = kinetic_partials(p, u, v)
    return pair_band(u.size, h, [[(p.d1 + p.alpha * v, fu), (p.alpha * u, fv)],
                                 [(p.beta * v, gu), (p.d2 + p.beta * u, gv)]])


def _levelset_certificate(p: ModelParams):
    """The level-set sup-bound certificate at eta = min(alpha/beta,
    beta/alpha, 1), or None when a rate is not positive, the band check or
    a level-set root fails or only the small-rate certificate applies."""
    if p.alpha <= 0.0 or p.beta <= 0.0:
        return None
    ratio = p.alpha / p.beta
    if ratio == 0.0:                 # underflow: outside every band
        return None
    try:
        cert = bounds.sup_bound(p, min(ratio, 1.0 / ratio, 1.0))
    except (BandError, DomainError):
        return None
    return cert if cert.kind == "levelset" else None


def _steady_state(p, g, u, v, rnorm, floor, it, history) -> SteadyState:
    """The SteadyState of a solve, certified when a level-set bound applies."""
    cert = _levelset_certificate(p)
    ok = None if cert is None else cert.covers(float(np.max(u)), float(np.max(v)))
    return SteadyState(params=p, grid=g, u=GridFn(g, u), v=GridFn(g, v),
                       residual_inf=rnorm, residual_floor=floor, newton_iters=it,
                       certificate_ok=ok, residual_history=tuple(history))


def newton_solve(p: ModelParams, u0: GridFn, v0: GridFn,
                 tol: float = 1e-11) -> SteadyState:
    """Damped Newton on the stacked residual, in at most 60 iterations.

    Line-search trial residuals are evaluated with the negative part
    clipped at zero; a trial more than 1e-12 outside the nonnegative cone is
    halved, and NegativeState is raised if no step stays inside.  The
    accepted iterate itself is never clipped; the returned densities are.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    g = u0.grid
    h = g.h
    n = g.n_cells

    def residual(x):
        r1, r2 = _residual_values(p, np.maximum(x[:n], 0.0),
                                  np.maximum(x[n:], 0.0), h)
        u, v = np.abs(x[:n]), np.abs(x[n:])
        floor = residual_floor(h, float(np.max((p.d1 + p.alpha * v) * u))
                               + float(np.max((p.d2 + p.beta * u) * v)))
        return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))), floor, (r1, r2)

    def step(x, r):
        return solve_pair(_jacobian_banded(p, x[:n], x[n:], h), *r)

    def feasible(x):
        if float(np.min(x)) < -1e-12:
            return NegativeState("no Newton step stays in the nonnegative cone")

    x, _, rnorm, it, history, floor = _damped_newton(
        residual, step, np.concatenate((u0.values, v0.values)), tol, 60,
        "Newton", feasible)
    return _steady_state(p, g, np.maximum(x[:n], 0.0), np.maximum(x[n:], 0.0),
                         rnorm, floor, it, history)


def _blowup_cap(p: ModelParams) -> float:
    cert = _levelset_certificate(p)
    return 1e8 if cert is None else 10.0 * max(cert.u_bound, cert.v_bound)


def time_march(p: ModelParams, u0: GridFn, v0: GridFn,
               dt: float, t_end: float) -> tuple[GridFn, GridFn]:
    """Positive semi-implicit marching (Patankar split): lagged diffusion
    coefficients, production a1*u / a2*v explicit, loss (b1*u + c1*v)*u /
    (b2*u + c2*v)*v implicit on the diagonal.  Each step solves two
    M-matrix systems with positive right-hand sides, so positive fields
    stay strictly positive for any dt; fixed points are exactly the discrete
    steady states.  Used as a basin finder for the Newton polish."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = u0.grid
    h = g.h
    u = u0.values.copy()
    v = v0.values.copy()
    cap = _blowup_cap(p)
    steps = max(1, int(round(t_end / dt)))
    # an overflow reaches solve_tridiag as NonFiniteSystem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            ab_u = lap_band(g.n_cells, h, -dt * (p.d1 + p.alpha * v),
                            1.0 + dt * (p.b1 * u + p.c1 * v))
            ab_v = lap_band(g.n_cells, h, -dt * (p.d2 + p.beta * u),
                            1.0 + dt * (p.b2 * u + p.c2 * v))
            rhs_u = (1.0 + dt * p.a1) * u
            rhs_v = (1.0 + dt * p.a2) * v
            u = solve_tridiag(ab_u, rhs_u)
            v = solve_tridiag(ab_v, rhs_v)
            if k % 16 == 0 or k == steps - 1:
                if max(float(np.max(np.abs(u))), float(np.max(np.abs(v)))) > cap:
                    raise BlowUp(f"state exceeded 10x the certificate cap {cap:g}")
    return GridFn(g, u), GridFn(g, v)


def march_then_newton(p: ModelParams, u0: GridFn, v0: GridFn, dt: float,
                      t_end: float, tol: float = 1e-11) -> SteadyState:
    """Convenience pipeline: time march into a basin, then polish."""
    u, v = time_march(p, u0, v0, dt, t_end)
    return newton_solve(p, u, v, tol=tol)
