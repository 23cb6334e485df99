"""Steady states of the full cross-diffusion system.

The pipeline is semi-implicit time marching into a basin of attraction
followed by damped Newton with an analytically assembled block-tridiagonal
Jacobian (interleaved unknown ordering, direct banded factorization).
Newton runs in one of two formulations: the densities (u, v), or
(w, log tau) with w = d1 u - gamma d2 v and tau = u v, which keeps both
densities positive at large rates.  Two diagnostics accompany the solver:
the algebraic identity tying the divergence-form residuals to the
reduced-form ones, and the discrete maximum-principle sign check on F and
G at the density maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .analytic import TrigPoly
from .errors import BandError, BlowUp, NegativeState
from .grid import Grid, GridFn, laplacian_values
from .limits import LimitParams, _is_linearization, _uv_root
from .linalg import (_damped_newton, lap_band, pair_band, residual_floor,
                     solve_pair, solve_tridiag)
from .model import (ModelParams, big_F, big_G, kinetic_partials, reaction_f,
                    reaction_g)


@dataclass(frozen=True)
class SteadyState:
    params: ModelParams
    grid: Grid
    u: GridFn
    v: GridFn
    residual_inf: float
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


def _norm_inf(r1: np.ndarray, r2: np.ndarray) -> float:
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def _levelset_certificate(p: ModelParams):
    """The level-set sup-bound certificate at eta = min(alpha/beta,
    beta/alpha, 1), or None when a rate is not positive, the band check
    fails or only the small-rate certificate applies."""
    if p.alpha <= 0.0 or p.beta <= 0.0:
        return None
    ratio = p.alpha / p.beta
    try:
        cert = bounds.sup_bound(p, min(ratio, 1.0 / ratio, 1.0))
    except BandError:
        return None
    return cert if cert.kind == "levelset" else None


def _certificate_ok(p: ModelParams, u: np.ndarray, v: np.ndarray) -> bool | None:
    cert = _levelset_certificate(p)
    return None if cert is None else cert.covers(float(np.max(u)), float(np.max(v)))


def _steady_state(p, g, u, v, rnorm, it, history) -> SteadyState:
    return SteadyState(params=p, grid=g, u=GridFn(g, u), v=GridFn(g, v),
                       residual_inf=rnorm, newton_iters=it,
                       certificate_ok=_certificate_ok(p, u, v),
                       residual_history=tuple(history))


def newton_solve(p: ModelParams, u0: GridFn, v0: GridFn,
                 tol: float = 1e-11, max_iter: int = 60) -> SteadyState:
    """Damped Newton on the stacked residual.

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
        return _norm_inf(r1, r2), (r1, r2)

    def step(x, r):
        return solve_pair(_jacobian_banded(p, x[:n], x[n:], h), *r)

    def done(x, rnorm):
        u, v = np.abs(x[:n]), np.abs(x[n:])
        prod_scale = float(np.max((p.d1 + p.alpha * v) * u)) \
            + float(np.max((p.d2 + p.beta * u) * v))
        return rnorm <= max(tol, residual_floor(h, prod_scale))

    def feasible(x):
        if float(np.min(x)) < -1e-12:
            return NegativeState("no Newton step stays in the nonnegative cone")

    x, _, rnorm, it, history = _damped_newton(
        residual, step, np.concatenate((u0.values, v0.values)), done, max_iter,
        "Newton", feasible)
    return _steady_state(p, g, np.maximum(x[:n], 0.0), np.maximum(x[n:], 0.0),
                         rnorm, it, history)


def _wq_residual(p: ModelParams, w: np.ndarray, q: np.ndarray, h: float,
                 lp: LimitParams):
    """Residual in the (w, log tau) parametrization, tau = u*v.

    Equivalent to the (w, z) form through z = d1*u/alpha + tau, but both
    densities recovered from (w, tau) are nonnegative by construction, so
    Newton cannot wander onto the spurious sign-flipped branches that exist
    when the segregated regions carry only O(1/rate) density.  lp is
    LimitParams.from_model(p), built once by the caller.  Returns (r1, r2, (u, v, S), tau).
    """
    tau = np.exp(q)
    u, v, _ = root = _uv_root(lp, w, tau, lp.d1)
    fval = reaction_f(p, u, v)
    gval = reaction_g(p, u, v)
    r1 = laplacian_values(w, h) + fval - lp.gamma * gval
    y = p.d1 * u / p.alpha + tau
    r2 = laplacian_values(y, h) + fval / p.alpha
    return r1, r2, root, tau


def _wq_jacobian_banded(p: ModelParams, root, tau: np.ndarray, h: float,
                        lp: LimitParams):
    """Banded Jacobian of the (w, log tau) residual at the (root, tau) of
    _wq_residual, interleaved ordering, bandwidth (3, 3); the partials are
    those of the incomplete-segregation system; lp as in _wq_residual."""
    u, _, S = root
    q_w, q_t, f_w, f_t, _ = _is_linearization(lp, root, lp.d1)
    m1 = p.d1 * (u / S) / p.alpha                  # dy/dw
    m2 = (p.d1 * (lp.gamma * lp.d2 / S) / p.alpha + 1.0) * tau   # dy/dq
    return pair_band(u.size, h, [[(1.0, q_w), (0.0, q_t * tau)],
                                 [(m1, f_w / p.alpha), (m2, f_t * tau / p.alpha)]])


def newton_solve_wq(p: ModelParams, w0: GridFn, tau0,
                    tol: float = 1e-11, max_iter: int = 80) -> SteadyState:
    """Damped Newton in (w, log tau): the segregated-regime solver.

    tau0 may be a scalar or nodal array of strictly positive values.  Both
    densities are recovered from (w, tau) through the positive root, so
    every iterate keeps them nonnegative; this is the formulation that stays
    on the positive branch when the rates are large and one density is
    O(1/rate) on part of the domain.  The log-step is capped at 8 per sweep.
    """
    g = w0.grid
    h = g.h
    n = g.n_cells
    tau0 = np.broadcast_to(np.asarray(tau0, dtype=float), w0.values.shape)
    if np.any(tau0 <= 0.0):
        raise ValueError("tau0 must be strictly positive")
    lp = LimitParams.from_model(p)

    def residual(x):
        r = _wq_residual(p, x[:n], x[n:], h, lp)
        return _norm_inf(r[0], r[1]), r

    def step(_x, r):
        dx = solve_pair(_wq_jacobian_banded(p, r[2], r[3], h, lp), r[0], r[1])
        # cap the log-step so tau cannot jump by more than e^8 per sweep
        mx = float(np.max(np.abs(dx[n:])))
        if mx > 8.0:
            dx[n:] *= 8.0 / mx
        return dx

    def done(x, rnorm):
        scale = max(float(np.max(np.abs(x[:n]))), float(np.max(np.exp(x[n:]))))
        return rnorm <= max(tol, residual_floor(h, scale))

    x, (_, _, (u, v, _), _), rnorm, it, history = _damped_newton(
        residual, step, np.concatenate((w0.values, np.log(tau0))), done, max_iter,
        "log-product Newton")
    return _steady_state(p, g, u, v, rnorm, it, history)


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


def reduction_identity_defect(p: ModelParams, u_field: TrigPoly,
                              v_field: TrigPoly, n_samples: int = 257) -> float:
    """Maximal relative defect of the reduction identity on sample points.

    The expanded divergence-form residuals E1, E2 and the reduced-form
    residuals are formed from exact derivatives of the supplied fields;
    their combination is an algebraic identity, so the returned value is
    rounding noise (of order 1e-15) for any fields whatsoever.
    """
    x = np.linspace(0.0, u_field.length, n_samples)
    u, up, upp = u_field.val(x), u_field.deriv(x), u_field.deriv2(x)
    v, vp, vpp = v_field.val(x), v_field.deriv(x), v_field.deriv2(x)

    e1 = (p.d1 + p.alpha * v) * upp + 2.0 * p.alpha * up * vp \
        + p.alpha * u * vpp + reaction_f(p, u, v)
    e2 = (p.d2 + p.beta * u) * vpp + 2.0 * p.beta * up * vp \
        + p.beta * v * upp + reaction_g(p, u, v)
    coeff = p.d1 * p.d2 + p.d1 * p.beta * u + p.d2 * p.alpha * v
    t1 = coeff * upp + 2.0 * p.d2 * p.alpha * up * vp + u * big_F(p, u, v)
    t2 = coeff * vpp + 2.0 * p.d1 * p.beta * up * vp + v * big_G(p, u, v)

    lhs1 = (p.d2 + p.beta * u) * e1 - p.alpha * u * e2
    lhs2 = (p.d1 + p.alpha * v) * e2 - p.beta * v * e1
    scale = max(float(np.max(np.abs(t1))), float(np.max(np.abs(t2))), 1.0)
    defect = max(float(np.max(np.abs(t1 - lhs1))), float(np.max(np.abs(t2 - lhs2))))
    return defect / scale


def check_max_principle(s: SteadyState) -> tuple[float, float]:
    """(F at the argmax of u, G at the argmax of v).

    On a converged state both values are bounded below by a discretization
    tolerance; the check is meaningless on arbitrary fields.
    """
    iu = int(np.argmax(s.u.values))
    iv = int(np.argmax(s.v.values))
    f_at = float(big_F(s.params, s.u.values[iu], s.v.values[iu]))
    g_at = float(big_G(s.params, s.u.values[iv], s.v.values[iv]))
    return f_at, g_at
