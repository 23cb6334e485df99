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

from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
from .errors import BandError, BlowUp, DomainError, NegativeState, ValidationError
from .grid import Grid, GridFn, laplacian_values
from .linalg import (_damped_newton, pair_band, residual_floor, solve_pair,
                     solve_tridiag, write_lap_bands)
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
    march_steps: int = 0     # time-march steps before the Newton polish
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


def _stop_norm(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    """(sup norm of the residual at u, v clipped at 0, its residual_floor,
    (r1, r2)); Newton's stop test is norm <= max(tol, floor)."""
    r1, r2 = _residual_values(p, np.maximum(u, 0.0), np.maximum(v, 0.0), h)
    u, v = np.abs(u), np.abs(v)
    floor = residual_floor(h, float(np.max((p.d1 + p.alpha * v) * u))
                           + float(np.max((p.d2 + p.beta * u) * v)))
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))), floor, (r1, r2)


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
        return _stop_norm(p, x[:n], x[n:], h)

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


def time_march(p: ModelParams, u0: GridFn, v0: GridFn, dt: float,
               t_end: float, tol: float) -> tuple[GridFn, GridFn, int]:
    """Positive semi-implicit marching (Patankar split): lagged diffusion
    coefficients, production a1*u / a2*v explicit, loss (b1*u + c1*v)*u /
    (b2*u + c2*v)*v implicit on the diagonal.  Each step solves the two
    M-matrix systems with positive right-hand sides, stacked as one
    block-diagonal tridiagonal system, so positive fields stay strictly
    positive for any dt; fixed points are exactly the discrete steady
    states.  Used as a basin finder for the Newton polish.

    Runs round(t_end/dt) >= 1 steps, at most 10^6 (else ValidationError on
    run.dt).  Every 16th step checks for blow-up, and ends the march once
    the state meets Newton's stop test at tol and its residual has fallen
    1e6-fold from the start's, so that it does not stop on an unstable
    state it starts near.  Returns (u, v, steps run).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not t_end / dt <= 1e6:
        raise ValidationError(f"run.dt: run.t_march / run.dt = {t_end / dt:g} march "
                              "steps, more than 1e6", key="run.dt")
    g = u0.grid
    h = g.h
    n = g.n_cells
    x = np.array((u0.values, v0.values))            # u's equation in row 0, v's in 1
    ab = np.empty((3, 2 * n))                       # one band for both fields
    blocks, (mult, diag) = ab.reshape(3, 2, n), np.empty((2, 2, n))
    d, rate, own, other, growth = np.array(
        [[p.d1, p.alpha, p.b1, p.c1, 1.0 + dt * p.a1],
         [p.d2, p.beta, p.c2, p.b2, 1.0 + dt * p.a2]]).T[:, :, None]
    cap = _blowup_cap(p)
    steps = max(1, int(round(t_end / dt)))
    # an overflow reaches solve_tridiag as NonFiniteSystem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start = _stop_norm(p, x[0], x[1], h)[0]
        for k in range(steps):
            y = x[::-1]
            np.multiply(rate, y, out=mult)          # -dt * (d1 + alpha v), ...
            mult += d
            mult *= -dt
            np.multiply(own, x, out=diag)           # 1 + dt * (b1 u + c1 v), ...
            diag += other * y
            diag *= dt
            diag += 1.0
            write_lap_bands(blocks, h, mult, diag)
            x *= growth                             # (1 + dt a1) u, ...
            x = solve_tridiag(ab, x.ravel(), overwrite_rhs=True).reshape(2, n)
            if k % 16 == 0 or k == steps - 1:
                if float(np.max(np.abs(x))) > cap:
                    raise BlowUp(f"state exceeded 10x the certificate cap {cap:g}")
                norm, floor, _ = _stop_norm(p, x[0], x[1], h)
                if norm <= max(tol, floor) and norm <= 1e-6 * start:
                    steps = k + 1
                    break
    return GridFn(g, x[0]), GridFn(g, x[1]), steps


def march_then_newton(p: ModelParams, u0: GridFn, v0: GridFn, dt: float,
                      t_end: float, tol: float = 1e-11) -> SteadyState:
    """Convenience pipeline: time march into a basin, then polish."""
    u, v, steps = time_march(p, u0, v0, dt, t_end, tol)
    return replace(newton_solve(p, u, v, tol=tol), march_steps=steps)
