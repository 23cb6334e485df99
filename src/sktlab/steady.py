"""Steady states of the full cross-diffusion system.

`solve` is Newton first.  At the constant coexistence state (u*, v*) the
Jacobian splits exactly over the discrete cosine modes, so its spectrum
is that of one 2x2 matrix per mode; where every mode is stable, damped
Newton in the densities (u, v) runs straight from the start and its state
is kept when it is (u*, v*).  Otherwise, or when that Newton fails, `search`
marches semi-implicitly into a basin of attraction, on 256 cells first
where the grid is finer, and the same Newton polishes it on the grid;
search is also the limit-study seed's fallback where its own Newton fails.
Newton uses an analytically assembled block-tridiagonal Jacobian
(interleaved ordering, direct banded factorization).  Along a large-rate
schedule, limitstudy solves each step in the regular form of
limits._eps_newton and calls newton_solve only where that form cannot hold
the state.  The reduction identity and the maximum-principle sign check on
F and G at the density maxima are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence
from .grid import Grid, GridFn, laplacian_values
from .linalg import (_EPS, _FAILED, _damped_newton, pair_band, residual_floor,
                     solve_pair, solve_tridiag, write_lap_bands)
from .model import (ConstantState, ModelParams, constant_state,
                    kinetic_partials, reaction_f, reaction_g)

_MARCH_CELLS = 256   # search marches on this grid first where n is larger


@dataclass(frozen=True)
class SteadyState:
    params: ModelParams
    grid: Grid
    u: GridFn
    v: GridFn
    residual_inf: float
    residual_floor: float    # the rounding floor the stop rule allowed
    newton_iters: int
    march_steps: int = 0     # time-march steps before the Newton polish
    march_cells: int = 0     # cells of the grid the march ran on, 0 if none
    constant_rate: float = math.nan   # set by solve: see _constant_rate

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
    r1, r2 = _residual_values(p, u.values, v.values, u.grid.h)
    return GridFn(u.grid, r1), GridFn(u.grid, r2)


def _jacobian_banded(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    """Analytic Jacobian of the stacked residual, interleaved ordering
    (u0, v0, u1, v1, ...), as a pair_band (LAPACK gbsv's band storage)."""
    fu, fv, gu, gv = kinetic_partials(p, u, v)
    return pair_band(u.size, h, [[(p.d1 + p.alpha * v, fu), (p.alpha * u, fv)],
                                 [(p.beta * v, gu), (p.d2 + p.beta * u, gv)]])


def _steady_state(p, g, u, v, rnorm, floor, it) -> SteadyState:
    """The SteadyState of a solve."""
    return SteadyState(params=p, grid=g, u=GridFn(g, u), v=GridFn(g, v),
                       residual_inf=rnorm, residual_floor=floor, newton_iters=it)


def _stop_norm(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    """(sup norm of the residual at u, v clipped at 0, floor, (r1, r2)); the floor is
    the larger of the fluxes' residual_floor and 4 eps x the kinetic terms, 0 if inf."""
    r1, r2 = _residual_values(p, np.maximum(u, 0.0), np.maximum(v, 0.0), h)
    norm = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    u, v = np.abs(u), np.abs(v)
    floor = max(residual_floor(h, float(np.max((p.d1 + p.alpha * v) * u))
                               + float(np.max((p.d2 + p.beta * u) * v))),
                4.0 * _EPS * (float(np.max(u * (p.a1 + p.b1 * u + p.c1 * v)))
                              + float(np.max(v * (p.a2 + p.b2 * u + p.c2 * v)))))
    return norm, floor if norm < math.inf else 0.0, (r1, r2)


def newton_solve(p: ModelParams, u0: GridFn, v0: GridFn,
                 tol: float = 1e-11) -> SteadyState:
    """Damped Newton on the stacked residual, in at most 60 iterations.

    Line-search trial residuals are evaluated with the negative part
    clipped at zero; a trial more than 1e-12 outside the nonnegative cone is
    halved, and NoConvergence is raised if no step stays inside.  The
    accepted iterate itself is never clipped; the returned densities are.
    """
    g = u0.grid
    h = g.h
    n = g.n_cells

    def residual(x):
        return _stop_norm(p, x[:n], x[n:], h)

    def step(x, r):
        return solve_pair(_jacobian_banded(p, x[:n], x[n:], h), *r)

    def feasible(x):
        if float(np.min(x)) < -1e-12:
            return NoConvergence("no Newton step stays in the nonnegative cone")

    x, _, rnorm, it, _, floor = _damped_newton(
        residual, step, np.concatenate((u0.values, v0.values)), tol, 60,
        "Newton", feasible)
    return _steady_state(p, g, np.maximum(x[:n], 0.0), np.maximum(x[n:], 0.0),
                         rnorm, floor, it)


def time_march(p: ModelParams, u0: GridFn, v0: GridFn, dt: float,
               steps: int, tol: float) -> tuple[GridFn, GridFn, int]:
    """Positive semi-implicit marching (Patankar split): lagged diffusion
    coefficients, production a1*u / a2*v explicit, loss (b1*u + c1*v)*u /
    (b2*u + c2*v)*v implicit on the diagonal.  Each step solves the two
    M-matrix systems with positive right-hand sides, stacked as one
    block-diagonal tridiagonal system, so positive fields stay strictly
    positive for any dt; fixed points are exactly the discrete steady
    states.  Used as a basin finder for the Newton polish.

    Runs at most steps steps: every 16th step ends the march once the state
    meets Newton's stop test at tol and its residual has fallen 1e6-fold from
    the start's, so that it does not stop on an unstable state it starts
    near.  The transient is not capped.  Returns (u, v, steps run).
    """
    g = u0.grid
    h = g.h
    n = g.n_cells
    x = np.array((u0.values, v0.values))            # u's equation in row 0, v's in 1
    ab = np.empty((3, 2 * n))                       # one band for both fields
    blocks, (mult, diag) = ab.reshape(3, 2, n), np.empty((2, 2, n))
    d, rate, own, other, growth = np.array(
        [[p.d1, p.alpha, p.b1, p.c1, 1.0 + dt * p.a1],
         [p.d2, p.beta, p.c2, p.b2, 1.0 + dt * p.a2]]).T[:, :, None]
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
            if k % 16 == 0:
                norm, floor, _ = _stop_norm(p, x[0], x[1], h)
                if norm <= max(tol, floor) and norm <= 1e-6 * start:
                    steps = k + 1
                    break
    return GridFn(g, x[0]), GridFn(g, x[1]), steps


def _on(g: Grid, f: GridFn) -> GridFn:
    """f on g: f itself where it lives on g, else linearly interpolated."""
    return f if f.grid == g else GridFn(g, np.interp(g.x, f.grid.x, f.values))


def _constant_rate(p: ModelParams, cs: ConstantState, g: Grid) -> tuple[float, bool]:
    """(rightmost real part of the spectrum of the Jacobian at the constant
    state, whether that state is shown linearly stable).

    At a constant state the cosine modes are exact eigenfunctions of the
    Neumann Laplacian, so the Jacobian splits over them: mode j contributes
    the eigenvalues of K - lambda_j D, with K the kinetic partials at
    (u*, v*), D = [[d1 + alpha v*, alpha u*], [beta v*, d2 + beta u*]] and
    lambda_j = (2/h^2)(1 - cos(j pi h/L)).  The state is shown stable when
    every mode has a finite trace < 0 and a finite determinant > 0.  The
    determinant is expanded in lambda_j, with det D = d1 d2 + d1 beta u* +
    d2 alpha v* formed without cancellation.
    """
    u, v, h = cs.u_star, cs.v_star, g.h
    k11, k12, k21, k22 = kinetic_partials(p, u, v)
    d11, d12, d21, d22 = p.d1 + p.alpha * v, p.alpha * u, p.beta * v, p.d2 + p.beta * u
    # an overflow is a non-finite lambda_j, trace or determinant: not shown stable
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (2.0 / (h * h)) * (1.0 - np.cos(np.arange(g.n_cells) * math.pi * h / g.length))
        tr = (k11 + k22) - lam * (d11 + d22)
        det = ((k11 * k22 - k12 * k21) - lam * (k11 * d22 + k22 * d11 - k12 * d21 - k21 * d12)
               + lam * lam * (p.d1 * p.d2 + p.d1 * p.beta * u + p.d2 * p.alpha * v))
        disc = tr * tr - 4.0 * det
        rate = float(np.max(0.5 * (tr + np.sqrt(np.maximum(disc, 0.0)))))
    stable = bool(np.all(np.isfinite(tr) & np.isfinite(det) & (tr < 0.0) & (det > 0.0)))
    return rate, stable


def search(p: ModelParams, u0: GridFn, v0: GridFn, dt: float, steps: int,
           tol: float) -> SteadyState:
    """March on min(n, _MARCH_CELLS) cells, then on n, and polish at n with
    newton_solve (linear interpolation both ways) where the march stops
    before its last step or ran on n cells; a failure passes from the coarse
    grid to n, where it is raised.  Needs no constant state; constant_rate
    stays NaN.
    """
    g = u0.grid
    n = g.n_cells
    for m in sorted({min(n, _MARCH_CELLS), n}):
        gm = Grid(m, g.length)
        try:
            u, v, ran = time_march(p, _on(gm, u0), _on(gm, v0), dt, steps, tol)
            if ran < steps or m == n:
                return replace(newton_solve(p, _on(g, u), _on(g, v), tol=tol),
                               march_steps=ran, march_cells=m)
        except _FAILED:
            if m == n:
                raise


def solve(p: ModelParams, u0: GridFn, v0: GridFn, dt: float, steps: int,
          tol: float) -> SteadyState:
    """Newton first where (u*, v*) is the stable attractor, else search.

    Where _constant_rate shows the constant coexistence state stable,
    newton_solve runs from (u0, v0), and its state is kept when it equals
    (u*, v*) to 1e-8 relative in each field, with march_steps = march_cells
    = 0.  Otherwise, or when that Newton fails, search marches.  With no
    positive finite constant coexistence state, NotApplicable; constant_rate
    is the rightmost real part of the constant state's spectrum.
    """
    cs = constant_state(p)
    rate, stable = _constant_rate(p, cs, u0.grid)
    if stable:
        try:
            st = newton_solve(p, u0, v0, tol=tol)
        except _FAILED:
            st = None
        if st is not None \
                and float(np.max(np.abs(st.u.values - cs.u_star))) <= 1e-8 * cs.u_star \
                and float(np.max(np.abs(st.v.values - cs.v_star))) <= 1e-8 * cs.v_star:
            return replace(st, constant_rate=rate)
    return replace(search(p, u0, v0, dt, steps, tol), constant_rate=rate)
