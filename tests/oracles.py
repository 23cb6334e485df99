"""Independent oracles for the acceptance criteria.

The paper's algebra that no subcommand evaluates: the reduced reaction
terms F and G with the reduction identity behind them, the level-set
branches V(u) and U(v) of the uniform L-infinity estimate, the inverse of
the finite-rate transform, the potential and the L11 and L22 blocks at the
bifurcation point, a few diagnostics of computed states, and the time
march followed by Newton on the solve's own grid that `steady.solve` is
checked against.  The tests check the package against these; the package
itself never calls them.
They may call private helpers that the package uses (`bounds._u_of_v_raw`,
`bounds._larger_root`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from sktlab.bifurcation import kinetic_strength
from sktlab.bounds import _larger_root, _u_of_v_raw, v_tilde0
from sktlab.errors import NotApplicable
from sktlab.grid import Grid, GridFn, laplacian_values
from sktlab.limits import LimitParams
from sktlab.linalg import lap_band, solve_tridiag
from sktlab.model import ModelParams, constant_state, reaction_f, reaction_g
from sktlab.steady import SteadyState, newton_solve, time_march


# -- model: the reduced reaction terms ---------------------------------------

def big_F(p: ModelParams, u, v):
    """Reduced-form reaction term of the u equation.

    (d2 + beta*u)(a1 - b1*u - c1*v) - alpha*v*(a2 - b2*u - c2*v).
    Its sign at the maximum point of u drives the a priori bound.
    """
    return (p.d2 + p.beta * u) * (p.a1 - p.b1 * u - p.c1 * v) \
        - p.alpha * v * (p.a2 - p.b2 * u - p.c2 * v)


def big_G(p: ModelParams, u, v):
    """Reduced-form reaction term of the v equation (mirror of big_F)."""
    return -p.beta * u * (p.a1 - p.b1 * u - p.c1 * v) \
        + (p.d1 + p.alpha * v) * (p.a2 - p.b2 * u - p.c2 * v)


def sigma_affine(p: ModelParams, u, v):
    """Affine combination d2*a1 + d1*a2 - (d2*b1 + d1*b2)*u - (d2*c1 + d1*c2)*v.

    Identically equals big_F + big_G for every (u, v, alpha, beta); the
    region where it is negative is where F >= 0 forces G < 0.
    """
    return (p.d2 * p.a1 + p.d1 * p.a2
            - (p.d2 * p.b1 + p.d1 * p.b2) * u
            - (p.d2 * p.c1 + p.d1 * p.c2) * v)


# -- analytic fields ----------------------------------------------------------

class TrigPoly:
    """c0 + sum_{k>=1} c_k cos(k pi x / L) with closed-form derivatives.

    Used wherever an identity must be checked without discretization
    error; the fields satisfy the zero-flux condition at x = 0 and x = L.
    """

    def __init__(self, coeffs, length: float = 1.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.length = float(length)

    def _freqs(self):
        return np.arange(self.coeffs.size) * np.pi / self.length

    def val(self, x):
        x = np.asarray(x, dtype=float)
        k = self._freqs()
        return np.cos(np.outer(x, k)) @ self.coeffs

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        k = self._freqs()
        return -np.sin(np.outer(x, k)) @ (self.coeffs * k)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        k = self._freqs()
        return -np.cos(np.outer(x, k)) @ (self.coeffs * k * k)

    @classmethod
    def random(cls, rng, n_modes: int, base: float, amplitude: float,
               length: float = 1.0) -> "TrigPoly":
        """Random field base + perturbation, decaying mode amplitudes."""
        c = np.zeros(n_modes + 1)
        c[0] = base
        c[1:] = amplitude * rng.uniform(-1.0, 1.0, n_modes) / np.arange(1, n_modes + 1)
        return cls(c, length)


# -- steady: the reduction identity and the maximum principle -----------------

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


# -- steady: the fine-grid reference search ----------------------------------

def march_then_newton(p: ModelParams, u0: GridFn, v0: GridFn, dt: float,
                      steps: int, tol: float = 1e-11) -> SteadyState:
    """Convenience pipeline: time march into a basin, then polish."""
    u, v, ran = time_march(p, u0, v0, dt, steps, tol)
    return replace(newton_solve(p, u, v, tol=tol), march_steps=ran)


# -- bounds: the level-set branches of F --------------------------------------

def v_of_u(p: ModelParams, u: float) -> float:
    """Level curve V(u): the positive v at which F(u, .) changes sign.

    Defined for u > a1/b1 (where F(u, 0) < 0); the larger root of the
    quadratic in v.
    """
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise NotApplicable("level-set branches need alpha, beta > 0")
    if u <= p.a1 / p.b1:
        raise NotApplicable(f"v_of_u requires u > a1/b1 = {p.a1 / p.b1}")
    a = p.alpha * p.c2
    b = -(p.c1 * (p.d2 + p.beta * u) + p.alpha * (p.a2 - p.b2 * u))
    c = (p.d2 + p.beta * u) * (p.a1 - p.b1 * u)
    return _larger_root(a, b, c)


def u_of_v(p: ModelParams, v: float) -> float:
    """Level curve U(v): the positive u at which F(., v) changes sign.

    Defined for v > v_tilde0; inverse of v_of_u on the mutual range.
    """
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise NotApplicable("level-set branches need alpha, beta > 0")
    if v <= v_tilde0(p):
        raise NotApplicable(f"u_of_v requires v > v_tilde0 = {v_tilde0(p)}")
    return _u_of_v_raw(p, v)


def in_sigma(p: ModelParams, u: float, v: float) -> bool:
    """Whether (u, v) lies where the affine combination F + G is negative
    (strict inequality; independent of the rates)."""
    return sigma_affine(p, u, v) < 0.0


# -- limits: the inverse of the finite-rate transform --------------------------

def uv_from_w_z(p: ModelParams, w: GridFn, z: GridFn) -> tuple[GridFn, GridFn]:
    """Exact inversion of the forward transform limits.w_z_from_uv at
    finite rates.

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
        raise NotApplicable("negative discriminant in the inverse transform")
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


# -- bifurcation: the blocks of the linearization at the constant state -------

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


# -- grid and limitstudy diagnostics -------------------------------------------

def gradient(f: GridFn) -> GridFn:
    """Central first derivative with mirror ghosts (zero slope at the walls)."""
    vals = f.values
    out = np.empty_like(vals)
    out[1:-1] = vals[2:] - vals[:-2]
    out[0] = vals[1] - vals[0]
    out[-1] = vals[-1] - vals[-2]
    out /= 2.0 * f.grid.h
    return GridFn(f.grid, out)


def segregation_diagnostics(s: SteadyState) -> tuple[float, float, bool]:
    """(min nodal u*v, max nodal u*v, near-constant flag).

    The flag is true when both densities vary by less than 1e-6 over the
    domain, which is how runs that collapsed onto a constant pair are told
    apart from genuinely patterned ones.
    """
    prod = s.u.values * s.v.values
    du = float(np.max(s.u.values) - np.min(s.u.values))
    dv = float(np.max(s.v.values) - np.min(s.v.values))
    return float(np.min(prod)), float(np.max(prod)), bool(du < 1e-6 and dv < 1e-6)
