"""Steady states of the full cross-diffusion system.

The pipeline is semi-implicit time marching into a basin of attraction
followed by damped Newton with an analytically assembled block-tridiagonal
Jacobian (interleaved unknown ordering, direct banded factorization).  Two
diagnostics accompany the solver: the algebraic identity tying the
divergence-form residuals to the reduced-form ones, and the discrete
maximum-principle sign check on F and G at the density maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from . import bounds, model
from .analytic import TrigPoly
from .errors import BandError, BlowUp, DomainError, NegativeState, NoConvergence
from .grid import Grid, GridFn, laplacian_values
from .linalg import (lap_of_diag_band, lap_stencil_diag, residual_floor,
                     solve_tridiag)
from .model import ModelParams, big_F, big_G, reaction_f, reaction_g

_MIN_STEP = 2.0 ** -20
_ARMIJO = 1e-4


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
    n = u.size
    inv = 1.0 / (h * h)
    diagc = lap_stencil_diag(n, h)
    m1 = p.d1 + p.alpha * v
    m2 = p.d2 + p.beta * u
    fu = p.a1 - 2.0 * p.b1 * u - p.c1 * v
    fv = -p.c1 * u
    gu = -p.b2 * v
    gv = p.a2 - p.b2 * u - 2.0 * p.c2 * v

    ab = np.zeros((7, 2 * n))
    # diagonal
    ab[3, 0::2] = diagc * m1 + fu
    ab[3, 1::2] = diagc * m2 + gv
    # in-node cross couplings
    ab[2, 1::2] = diagc * (p.alpha * u) + fv          # dR1_i/dv_i
    ab[4, 0::2] = diagc * (p.beta * v) + gu           # dR2_i/du_i
    # neighbour couplings through the Laplacian of the products
    ab[1, 2::2] = inv * m1[1:]                        # dR1_i/du_{i+1}
    ab[1, 3::2] = inv * m2[1:]                        # dR2_i/dv_{i+1}
    ab[5, 0:2 * n - 2:2] = inv * m1[:-1]              # dR1_i/du_{i-1}
    ab[5, 1:2 * n - 2:2] = inv * m2[:-1]              # dR2_i/dv_{i-1}
    ab[0, 3::2] = inv * (p.alpha * u[1:])             # dR1_i/dv_{i+1}
    ab[4, 1:2 * n - 2:2] = inv * (p.alpha * u[:-1])   # dR1_i/dv_{i-1}
    ab[2, 2::2] = inv * (p.beta * v[1:])              # dR2_i/du_{i+1}
    ab[6, 0:2 * n - 2:2] = inv * (p.beta * v[:-1])    # dR2_i/du_{i-1}
    return ab


def _norm_inf(r1: np.ndarray, r2: np.ndarray) -> float:
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def _certificate_ok(p: ModelParams, u: np.ndarray, v: np.ndarray) -> bool | None:
    if p.alpha <= 0.0 or p.beta <= 0.0:
        return None
    ratio = p.alpha / p.beta
    eta = min(ratio, 1.0 / ratio, 1.0)
    try:
        cert = bounds.sup_bound(p.with_rates(p.alpha, p.beta), eta)
    except BandError:
        return None
    if cert.kind != "levelset":
        return None
    return cert.covers(float(np.max(u)), float(np.max(v)))


def newton_solve(p: ModelParams, u0: GridFn, v0: GridFn,
                 tol: float = 1e-11, max_iter: int = 60) -> SteadyState:
    """Damped Newton on the stacked residual.

    Line-search trial residuals are evaluated with the negative part
    clipped at zero; the accepted iterate itself is never clipped and must
    stay within 1e-12 of the nonnegative cone.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    g = u0.grid
    h = g.h
    u = u0.values.copy()
    v = v0.values.copy()
    r1, r2 = _residual_values(p, np.maximum(u, 0.0), np.maximum(v, 0.0), h)
    rnorm = _norm_inf(r1, r2)
    history = [rnorm]

    for it in range(max_iter):
        prod_scale = float(np.max((p.d1 + p.alpha * np.abs(v)) * np.abs(u))) \
            + float(np.max((p.d2 + p.beta * np.abs(u)) * np.abs(v)))
        if rnorm <= max(tol, residual_floor(h, prod_scale)):
            uu = GridFn(g, np.maximum(u, 0.0))
            vv = GridFn(g, np.maximum(v, 0.0))
            return SteadyState(
                params=p, grid=g, u=uu, v=vv, residual_inf=rnorm,
                newton_iters=it, certificate_ok=_certificate_ok(p, uu.values, vv.values),
                residual_history=tuple(history),
            )
        ab = _jacobian_banded(p, u, v, h)
        rhs = np.empty(2 * u.size)
        rhs[0::2] = -r1
        rhs[1::2] = -r2
        delta = solve_banded((3, 3), ab, rhs)
        du, dv = delta[0::2], delta[1::2]

        lam = 1.0
        while True:
            ut, vt = u + lam * du, v + lam * dv
            t1, t2 = _residual_values(p, np.maximum(ut, 0.0), np.maximum(vt, 0.0), h)
            tnorm = _norm_inf(t1, t2)
            if tnorm <= (1.0 - _ARMIJO * lam) * rnorm:
                break
            lam *= 0.5
            if lam < _MIN_STEP:
                raise NoConvergence("line search stalled", residual=rnorm, iterations=it)
        if min(float(np.min(ut)), float(np.min(vt))) < -1e-12:
            raise NegativeState("accepted Newton iterate left the nonnegative cone")
        u, v = ut, vt
        r1, r2, rnorm = t1, t2, tnorm
        history.append(rnorm)

    raise NoConvergence("Newton did not converge", residual=rnorm, iterations=max_iter)


def _wz_residual(p: ModelParams, w: np.ndarray, z: np.ndarray, h: float):
    """Residual of the exactly transformed system.

    Linear combinations of the two divergence-form equations turn them into
    Delta w + f - gamma*g = 0 and Delta z + f/alpha = 0 with (u, v)
    recovered pointwise; no rate-sized coefficients remain, so Newton in
    (w, z) stays well conditioned at rates where the (u, v) form stalls.
    """
    from .limits import uv_from_w_z_values
    gamma = p.alpha / p.beta
    u, v = uv_from_w_z_values(p, w, z)
    r1 = laplacian_values(w, h) + reaction_f(p, u, v) - gamma * reaction_g(p, u, v)
    r2 = laplacian_values(z, h) + reaction_f(p, u, v) / p.alpha
    return r1, r2, u, v


def _wz_jacobian_banded(p: ModelParams, w: np.ndarray, z: np.ndarray, h: float):
    """Banded Jacobian of the transformed residual, interleaved
    (w0, z0, w1, z1, ...), bandwidth (2, 2)."""
    n = w.size
    gamma = p.alpha / p.beta
    c = p.d1 * p.d2 / p.beta
    from .limits import uv_from_w_z_values
    u, v = uv_from_w_z_values(p, w, z)
    s = np.sqrt((w - c) ** 2 + 4.0 * gamma * p.d1 * p.d2 * np.maximum(z, 0.0))
    s = np.maximum(s, 1e-300)
    u_w = (1.0 + (w - c) / s) / (2.0 * p.d1)
    v_w = ((w - c) / s - 1.0) / (2.0 * gamma * p.d2)
    u_z = gamma * p.d2 / s
    v_z = p.d1 / s
    fu = p.a1 - 2.0 * p.b1 * u - p.c1 * v
    fv = -p.c1 * u
    gu = -p.b2 * v
    gv = p.a2 - p.b2 * u - 2.0 * p.c2 * v
    q_w = (fu - gamma * gu) * u_w + (fv - gamma * gv) * v_w
    q_z = (fu - gamma * gu) * u_z + (fv - gamma * gv) * v_z
    f_w = (fu * u_w + fv * v_w) / p.alpha
    f_z = (fu * u_z + fv * v_z) / p.alpha

    inv = 1.0 / (h * h)
    diagc = lap_stencil_diag(n, h)
    ab = np.zeros((5, 2 * n))
    ab[2, 0::2] = diagc + q_w
    ab[2, 1::2] = diagc + f_z
    ab[1, 1::2] = q_z                      # dR1_i/dz_i
    ab[3, 0::2] = f_w                      # dR2_i/dw_i
    ab[0, 2::2] = inv                      # dR1_i/dw_{i+1}
    ab[4, 0:2 * n - 2:2] = inv             # dR1_i/dw_{i-1}
    ab[0, 3::2] = inv                      # dR2_i/dz_{i+1}
    ab[4, 1:2 * n - 2:2] = inv             # dR2_i/dz_{i-1}
    return ab


def newton_solve_wz(p: ModelParams, w0: GridFn, z0: GridFn,
                    tol: float = 1e-11, max_iter: int = 60) -> SteadyState:
    """Damped Newton on the transformed system; the solver of choice for
    large rates.  Trial iterates must keep the inversion feasible
    (nonnegative discriminant and densities); infeasible steps are halved.
    """
    g = w0.grid
    h = g.h
    w = w0.values.copy()
    z = z0.values.copy()
    r1, r2, u, v = _wz_residual(p, w, z, h)
    rnorm = _norm_inf(r1, r2)
    history = [rnorm]
    # tiny negative excursions are tolerated mid-iteration (the transformed
    # system is defined there); positivity is enforced on the answer only
    feas_floor = -1e-7 * max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1.0)

    for it in range(max_iter):
        wz_scale = max(float(np.max(np.abs(w))), float(np.max(np.abs(z))))
        if rnorm <= max(tol, residual_floor(h, wz_scale)):
            if min(float(np.min(u)), float(np.min(v))) < feas_floor:
                raise NegativeState("converged iterate left the nonnegative cone")
            uu = GridFn(g, np.maximum(u, 0.0))
            vv = GridFn(g, np.maximum(v, 0.0))
            return SteadyState(
                params=p, grid=g, u=uu, v=vv, residual_inf=rnorm,
                newton_iters=it,
                certificate_ok=_certificate_ok(p, uu.values, vv.values),
                residual_history=tuple(history),
            )
        ab = _wz_jacobian_banded(p, w, z, h)
        rhs = np.empty(2 * w.size)
        rhs[0::2] = -r1
        rhs[1::2] = -r2
        delta = solve_banded((2, 2), ab, rhs)
        dw, dz = delta[0::2], delta[1::2]

        lam = 1.0
        while True:
            wt, zt = w + lam * dw, z + lam * dz
            try:
                t1, t2, ut, vt = _wz_residual(p, wt, zt, h)
            except DomainError:
                lam *= 0.5
                if lam < _MIN_STEP:
                    raise NoConvergence("no feasible step in transformed Newton",
                                        residual=rnorm, iterations=it)
                continue
            tnorm = _norm_inf(t1, t2)
            if tnorm <= (1.0 - _ARMIJO * lam) * rnorm:
                break
            lam *= 0.5
            if lam < _MIN_STEP:
                raise NoConvergence("line search stalled in transformed Newton",
                                    residual=rnorm, iterations=it)
        w, z = wt, zt
        r1, r2, u, v = t1, t2, ut, vt
        rnorm = tnorm
        history.append(rnorm)

    raise NoConvergence("transformed Newton did not converge",
                        residual=rnorm, iterations=max_iter)


def _wq_residual(p: ModelParams, w: np.ndarray, q: np.ndarray, h: float):
    """Residual in the (w, log tau) parametrization, tau = u*v.

    Equivalent to the (w, z) form through z = d1*u/alpha + tau, but both
    densities recovered from (w, tau) are nonnegative by construction, so
    Newton cannot wander onto the spurious sign-flipped branches that exist
    when the segregated regions carry only O(1/rate) density.
    """
    gamma = p.alpha / p.beta
    tau = np.exp(q)
    s = np.sqrt(w * w + 4.0 * gamma * p.d1 * p.d2 * tau)
    u = (s + w) / (2.0 * p.d1)
    v = (s - w) / (2.0 * gamma * p.d2)
    fval = reaction_f(p, u, v)
    gval = reaction_g(p, u, v)
    r1 = laplacian_values(w, h) + fval - gamma * gval
    y = p.d1 * u / p.alpha + tau
    r2 = laplacian_values(y, h) + fval / p.alpha
    return r1, r2, u, v


def _wq_jacobian_banded(p: ModelParams, w: np.ndarray, q: np.ndarray, h: float):
    """Banded Jacobian of the (w, log tau) residual, interleaved ordering,
    bandwidth (3, 3)."""
    n = w.size
    gamma = p.alpha / p.beta
    tau = np.exp(q)
    S = np.sqrt(w * w + 4.0 * gamma * p.d1 * p.d2 * tau)
    u = (S + w) / (2.0 * p.d1)
    v = (S - w) / (2.0 * gamma * p.d2)
    u_w = u / S
    v_w = -v / S
    u_t = gamma * p.d2 / S
    v_t = p.d1 / S
    fu = p.a1 - 2.0 * p.b1 * u - p.c1 * v
    fv = -p.c1 * u
    gu = -p.b2 * v
    gv = p.a2 - p.b2 * u - 2.0 * p.c2 * v
    q_w = (fu - gamma * gu) * u_w + (fv - gamma * gv) * v_w
    q_t = (fu - gamma * gu) * u_t + (fv - gamma * gv) * v_t
    f_w = fu * u_w + fv * v_w
    f_t = fu * u_t + fv * v_t

    m1 = p.d1 * u_w / p.alpha                    # dy/dw
    m2 = (p.d1 * u_t / p.alpha + 1.0) * tau      # dy/dq
    inv = 1.0 / (h * h)
    diagc = lap_stencil_diag(n, h)
    ab = np.zeros((7, 2 * n))
    ab[3, 0::2] = diagc + q_w
    ab[1, 2::2] = inv
    ab[5, 0:2 * n - 2:2] = inv
    ab[2, 1::2] = q_t * tau
    ab[3, 1::2] = diagc * m2 + f_t * tau / p.alpha
    ab[1, 3::2] = inv * m2[1:]
    ab[5, 1:2 * n - 2:2] = inv * m2[:-1]
    ab[4, 0::2] = diagc * m1 + f_w / p.alpha
    ab[2, 2::2] = inv * m1[1:]
    ab[6, 0:2 * n - 2:2] = inv * m1[:-1]
    return ab


def newton_solve_wq(p: ModelParams, w0: GridFn, tau0,
                    tol: float = 1e-11, max_iter: int = 80) -> SteadyState:
    """Damped Newton in (w, log tau): the segregated-regime solver.

    tau0 may be a scalar or nodal array of strictly positive values.  This
    is the only solver of the three that keeps iterates on the positive
    branch when the rates are large and one density is O(1/rate) on part of
    the domain.
    """
    g = w0.grid
    h = g.h
    w = w0.values.copy()
    tau0 = np.broadcast_to(np.asarray(tau0, dtype=float), w.shape)
    if np.any(tau0 <= 0.0):
        raise ValueError("tau0 must be strictly positive")
    q = np.log(tau0).copy()
    r1, r2, u, v = _wq_residual(p, w, q, h)
    rnorm = _norm_inf(r1, r2)
    history = [rnorm]

    for it in range(max_iter):
        scale = max(float(np.max(np.abs(w))), float(np.max(np.exp(q))))
        if rnorm <= max(tol, residual_floor(h, scale)):
            uu = GridFn(g, u)
            vv = GridFn(g, v)
            return SteadyState(
                params=p, grid=g, u=uu, v=vv, residual_inf=rnorm,
                newton_iters=it,
                certificate_ok=_certificate_ok(p, u, v),
                residual_history=tuple(history),
            )
        ab = _wq_jacobian_banded(p, w, q, h)
        rhs = np.empty(2 * w.size)
        rhs[0::2] = -r1
        rhs[1::2] = -r2
        delta = solve_banded((3, 3), ab, rhs)
        dw, dq = delta[0::2], delta[1::2]
        # cap the log-step so tau cannot jump by more than e^8 per sweep
        mx = float(np.max(np.abs(dq)))
        if mx > 8.0:
            dq = dq * (8.0 / mx)

        lam = 1.0
        while True:
            wt, qt = w + lam * dw, q + lam * dq
            t1, t2, ut, vt = _wq_residual(p, wt, qt, h)
            tnorm = _norm_inf(t1, t2)
            if tnorm <= (1.0 - _ARMIJO * lam) * rnorm:
                break
            lam *= 0.5
            if lam < _MIN_STEP:
                raise NoConvergence("line search stalled in log-product Newton",
                                    residual=rnorm, iterations=it)
        w, q = wt, qt
        r1, r2, u, v = t1, t2, ut, vt
        rnorm = tnorm
        history.append(rnorm)

    raise NoConvergence("log-product Newton did not converge",
                        residual=rnorm, iterations=max_iter)


def _blowup_cap(p: ModelParams) -> float:
    if p.alpha > 0.0 and p.beta > 0.0:
        ratio = p.alpha / p.beta
        eta = min(ratio, 1.0 / ratio, 1.0)
        try:
            cert = bounds.sup_bound(p, eta)
            if cert.kind == "levelset":
                return 10.0 * max(cert.u_bound, cert.v_bound)
        except BandError:
            pass
    return 1e8


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
    for k in range(steps):
        ab_u = -dt * lap_of_diag_band(p.d1 + p.alpha * v, h)
        ab_u[1] += 1.0 + dt * (p.b1 * u + p.c1 * v)
        ab_v = -dt * lap_of_diag_band(p.d2 + p.beta * u, h)
        ab_v[1] += 1.0 + dt * (p.b2 * u + p.c2 * v)
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
