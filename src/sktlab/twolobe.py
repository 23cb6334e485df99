"""Explicit construction of n-node sign-changing complete-segregation
solutions on the unit interval.

One positive u-lobe and one negative v-lobe are glued at an interior point
theta where the diffusive fluxes match; tiling reflected copies of the glued
unit across [0, 1] produces solutions with exactly n interior zeros.  The
lobe problems are scalar logistic BVPs solved by finite-difference Newton on
dedicated sub-grids; theta is found by an outer scalar root-find on the flux
mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, NoBracket, NoConvergence
from .grid import Grid, GridFn
from .limits import LimitParams, _cs_residual_values
from .linalg import _damped_newton, residual_floor, solve_tridiag


@dataclass(frozen=True)
class UnitLobe:
    """Matched two-lobe unit on [0, 1/n]: u-lobe on [0, theta], v-lobe on
    [theta, 1/n], with d1*u'(theta) = -gamma*d2*v'(theta)."""

    n: int
    theta: float
    x_u: np.ndarray
    u_profile: np.ndarray
    x_v: np.ndarray
    v_profile: np.ndarray
    flux_u: float        # d1 * u'(theta), negative
    flux_v: float        # gamma * d2 * v'(theta), positive

    @property
    def flux(self) -> float:
        return self.flux_u

    @property
    def mismatch(self) -> float:
        return abs(self.flux_u + self.flux_v)


@dataclass(frozen=True)
class DhmpSolution:
    n: int
    variant: str
    w: GridFn
    zero_count: int
    cs_residual: float
    lobe: UnitLobe


def existence_check(lp: LimitParams, n: int) -> bool:
    """Nonexistence threshold: n-node solutions require
    sqrt(d1/a1) + sqrt(d2/a2) < 2/(n*pi)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(lp.d1 / lp.a1) + math.sqrt(lp.d2 / lp.a2) < 2.0 / (n * math.pi)


def _solve_lobe(d: float, a: float, b: float, ell: float, m: int,
                tol: float = 1e-12, max_iter: int = 80):
    """Positive solution of d*w'' + w*(a - b*w) = 0 on [0, ell] with
    w'(0) = 0, w(ell) = 0, on a vertex grid of m intervals.

    Returns (x nodes, profile including the zero endpoint).  The trivial
    solution is avoided by starting from a cosine hump and, if the iterate
    still collapses, retrying with larger amplitude.
    """
    if ell <= (math.pi / 2.0) * math.sqrt(d / a):
        raise NoConvergence("lobe interval below the quarter-period threshold",
                            residual=None, iterations=0)
    h = ell / m
    x = np.linspace(0.0, ell, m + 1)
    inv = d / (h * h)

    def residual(w):
        r = np.empty(m)
        r[0] = 2.0 * inv * (w[1] - w[0]) + w[0] * (a - b * w[0])
        r[1:m - 1] = inv * (w[0:m - 2] - 2.0 * w[1:m - 1] + w[2:m]) \
            + w[1:m - 1] * (a - b * w[1:m - 1])
        # last unknown couples to the Dirichlet zero at x = ell
        r[m - 1] = inv * (w[m - 2] - 2.0 * w[m - 1]) + w[m - 1] * (a - b * w[m - 1])
        return float(np.max(np.abs(r))), r

    def step(w, r):
        ab = np.zeros((3, m))
        ab[0, 1:] = inv
        ab[0, 1] = 2.0 * inv
        ab[1, :] = -2.0 * inv + a - 2.0 * b * w
        ab[2, :-1] = inv
        return solve_tridiag(ab, -r)

    for amp in (a / b, 1.4 * a / b, 0.6 * a / b):
        rtol = tol * max(a * amp, 1.0)

        def done(w, rnorm):
            return rnorm <= max(rtol, residual_floor(h, d * float(np.max(np.abs(w)))))

        w0 = amp * np.cos(math.pi * x[:m] / (2.0 * ell))
        w = _damped_newton(residual, step, w0, done, max_iter, "lobe Newton")[0]
        if float(np.max(w)) > 1e-6 * a / b:
            return x, np.append(w, 0.0)
    raise NoConvergence("lobe solver found only the trivial solution",
                        residual=None, iterations=max_iter)


def _lobe_flux_energy(d: float, a: float, b: float, amp: float) -> float:
    """|w'| at the zero endpoint from the conserved energy
    d*w'^2/2 + a*w^2/2 - b*w^3/3, evaluated at the flat maximum."""
    e = 0.5 * a * amp * amp - (b / 3.0) * amp ** 3
    if e <= 0.0:
        raise NoConvergence("nonpositive lobe energy", residual=e, iterations=0)
    return math.sqrt(2.0 * e / d)


def _mismatch(lp: LimitParams, n: int, theta: float, m: int):
    ell_v = 1.0 / n - theta
    xu, u = _solve_lobe(lp.d1, lp.a1, lp.b1, theta, m)
    xv_loc, v_loc = _solve_lobe(lp.d2, lp.a2, lp.c2, ell_v, m)
    du = _lobe_flux_energy(lp.d1, lp.a1, lp.b1, float(np.max(u)))
    dv = _lobe_flux_energy(lp.d2, lp.a2, lp.c2, float(np.max(v_loc)))
    flux_u = -lp.d1 * du                       # d1 * u'(theta) < 0
    flux_v = lp.gamma * lp.d2 * dv             # gamma * d2 * v'(theta) > 0
    # v(x) = w(1/n - x): mirror the canonical lobe onto [theta, 1/n]
    xv = 1.0 / n - xv_loc[::-1]
    v = v_loc[::-1].copy()
    return flux_u + flux_v, (xu, u, xv, v, flux_u, flux_v)


def solve_unit(lp: LimitParams, n: int, m: int = 4096,
               theta_tol: float = 1e-13) -> UnitLobe:
    """Nested shooting for the matched lobe pair.

    The flux mismatch M(theta) = d1*u'(theta) + gamma*d2*v'(theta) is
    evaluated at both ends of the admissible theta window (both lobes must
    exceed their quarter-period thresholds) and must fall from positive to
    negative across it.  Its root is then found by Illinois false position
    on the sign bracket: every trial lies strictly inside the bracket (the
    midpoint if the false-position point does not), and the search stops
    when the bracket or the last step is within theta_tol, or M is exactly
    zero.  The lobes returned are those of the last evaluation, at the
    returned theta.
    """
    if not existence_check(lp, n):
        raise NoBracket(f"no n = {n} solution: the diffusion lengths are too large")
    lo_q = (math.pi / 2.0) * math.sqrt(lp.d1 / lp.a1)
    hi_q = 1.0 / n - (math.pi / 2.0) * math.sqrt(lp.d2 / lp.a2)
    pad = 1e-3 * (hi_q - lo_q)
    lo = max(0.02 / n, lo_q + pad)
    hi = min(0.98 / n, hi_q - pad)
    if not lo < hi:
        raise NoBracket("admissible theta window is empty")
    f, lobes = _mismatch(lp, n, lo, m)
    theta, f_lo = lo, f
    if f_lo != 0.0:
        # only the latest evaluation's lobes are returned: release the
        # previous ones before the next lobe pair is solved
        lobes = None
        f, lobes = _mismatch(lp, n, hi, m)
        theta, f_hi = hi, f
        if not (f_lo > 0.0 > f_hi or f_hi == 0.0):
            raise NoBracket("flux mismatch does not change sign on the theta window")
    # Illinois false position (Dowell & Jarratt 1971), written out rather
    # than scipy.optimize.brentq: brentq leaks the frame of a callback that
    # raises, and the lobe Newton raises NoConvergence through it.
    side = 0
    while f != 0.0 and hi - lo > theta_tol:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        step, theta = abs(t - theta), t
        lobes = None
        f, lobes = _mismatch(lp, n, theta, m)
        if f > 0.0:
            lo, f_lo = theta, f
            if side > 0:
                f_hi *= 0.5           # hi kept twice in a row: halve its weight
            side = 1
        elif f < 0.0:
            hi, f_hi = theta, f
            if side < 0:
                f_lo *= 0.5
            side = -1
        if step <= theta_tol:
            break
    xu, u, xv, v, flux_u, flux_v = lobes
    return UnitLobe(n=n, theta=theta, x_u=xu, u_profile=u, x_v=xv,
                    v_profile=v, flux_u=flux_u, flux_v=flux_v)


def _edge_slope(x: np.ndarray, f: np.ndarray, left: bool) -> float:
    """One-sided fourth-order slope of uniformly sampled data at an end.

    The analytic energy flux is what the theta matching equates, but the
    spline must be clamped with a slope consistent with the discrete
    profile itself; clamping with the analytic value instead leaves an
    O(h^2) kink at the interface that dominates the assembled residual.
    """
    h = x[1] - x[0]
    if left:
        return (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
                + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    return (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3]
            - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)


def _phi_splines(lobe: UnitLobe, lp: LimitParams):
    """Clamped cubic splines of the two smooth pieces of the unit part
    phi = d1*u on [0, theta], -gamma*d2*v on [theta, 1/n]."""
    # imported here: scipy.interpolate costs a quarter second of import
    # time and only the pattern commands need it
    from scipy.interpolate import CubicSpline
    fu = lp.d1 * lobe.u_profile
    su = CubicSpline(lobe.x_u, fu,
                     bc_type=((1, 0.0), (1, _edge_slope(lobe.x_u, fu, False))))
    gd2 = lp.gamma * lp.d2
    fv = -gd2 * lobe.v_profile
    sv = CubicSpline(lobe.x_v, fv,
                     bc_type=((1, _edge_slope(lobe.x_v, fv, True)), (1, 0.0)))
    return su, sv


def assemble(lobe: UnitLobe, lp: LimitParams, variant: str, g: Grid) -> DhmpSolution:
    """Tile reflected copies of the glued unit across [0, 1].

    The fg variant starts with the positive u-supported lobe at x = 0; on
    tile k the unit is traversed forward for even k and mirrored for odd k,
    which makes the junctions C1 (both one-sided slopes vanish there).  The
    gf variant traverses every tile the opposite way, so it starts negative.
    """
    if variant not in ("fg", "gf"):
        raise ValueError("variant must be 'fg' or 'gf'")
    n = lobe.n
    su, sv = _phi_splines(lobe, lp)
    unit = 1.0 / n

    def phi(t):
        t = np.asarray(t)
        return np.where(t <= lobe.theta, su(np.minimum(t, lobe.theta)),
                        sv(np.maximum(t, lobe.theta)))

    x = g.x
    k = np.minimum((x * n).astype(int), n - 1)
    t_fwd = x - k * unit
    t_bwd = (k + 1) * unit - x
    fwd = (k % 2 == 0) if variant == "fg" else (k % 2 == 1)
    t = np.where(fwd, t_fwd, t_bwd)
    if np.any(t < -1e-12) or np.any(t > unit + 1e-12):
        raise AssemblyError("tiling sent a node outside its unit cell")
    w = phi(np.clip(t, 0.0, unit))
    zero_count = _count_sign_changes(w)
    if zero_count != n:
        raise AssemblyError(f"tiling produced {zero_count} zeros, expected {n}")
    res = float(np.max(np.abs(_cs_residual_values(lp, w, 0.0, g.h))))
    return DhmpSolution(n=n, variant=variant, w=GridFn(g, w),
                        zero_count=zero_count, cs_residual=res, lobe=lobe)


def _count_sign_changes(w: np.ndarray) -> int:
    s = np.sign(w)
    s = s[s != 0.0]
    return int(np.sum(s[:-1] * s[1:] < 0.0))


def validate(sol: DhmpSolution, lp: LimitParams) -> tuple[int, float, float]:
    """(zero-crossing count, discrete residual sup norm, flux mismatch).

    The flux mismatch is the matching defect of the underlying lobe, which
    by construction is the defect at every internal zero of the tiling.
    """
    w = sol.w.values
    res = float(np.max(np.abs(_cs_residual_values(lp, w, 0.0, sol.w.grid.h))))
    return _count_sign_changes(w), res, sol.lobe.mismatch
