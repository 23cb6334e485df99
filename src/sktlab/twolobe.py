"""Explicit construction of n-node sign-changing complete-segregation
solutions on the unit interval.

One positive u-lobe and one negative v-lobe are glued at an interior point
theta where the diffusive fluxes match; tiling reflected copies of the glued
unit across [0, 1] produces solutions with exactly n interior zeros.  Each
lobe solves d*w'' + w*(a - b*w) = 0, w'(0) = 0, w(ell) = 0; the time map, a
quadrature monotone in the peak, gives the peak from ell, so lobes are
positive and monotone by construction.  theta is found by an outer scalar
root-find on the flux mismatch, and the tiled pattern evaluates the two lobe
profiles, functions of x, directly at the grid nodes; each profile inverts
its time map with a cubic Hermite interpolant evaluated in numpy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, NoConvergence, NotApplicable
from .grid import Grid, GridFn
from .limits import LimitParams, _cs_residual_values

_THETA_TOL = 1e-13          # interface root-find tolerance on theta
_PROFILE_INTERVALS = 4096   # Simpson intervals of the lobe profile's X(tau)


@dataclass(frozen=True)
class UnitLobe:
    """Matched two-lobe unit on [0, 1/n]: u-lobe on [0, theta], v-lobe on
    [theta, 1/n], with d1*u'(theta) = -gamma*d2*v'(theta).  u_of and v_of
    map node coordinates in [0, 1/n] to the lobe profiles, each zero off its
    own piece."""

    n: int
    theta: float
    u_of: Callable[[np.ndarray], np.ndarray]
    v_of: Callable[[np.ndarray], np.ndarray]
    flux_u: float        # d1 * u'(theta), negative
    flux_v: float        # gamma * d2 * v'(theta), positive

    @property
    def mismatch(self) -> float:
        return abs(self.flux_u + self.flux_v)


@dataclass(frozen=True)
class DhmpSolution:
    variant: str
    w: GridFn
    zero_count: int
    cs_residual: float


def existence_check(lp: LimitParams, n: int) -> bool:
    """Nonexistence threshold: n-node solutions require
    sqrt(d1/a1) + sqrt(d2/a2) < 2/(n*pi)."""
    return math.sqrt(lp.d1 / lp.a1) + math.sqrt(lp.d2 / lp.a2) < 2.0 / (n * math.pi)


@functools.cache
def _gauss_nodes():
    """96 Gauss-Legendre nodes on [0, 1]: L to ~1e-15 up to L ~ 60, ~1e-13 at 100."""
    x, wt = np.polynomial.legendre.leggauss(96)
    return 0.5 * (x + 1.0), 0.5 * wt


def _time_map_integrand(tau: np.ndarray, dh: float):
    """(dX/dtau, s^2), X = x*sqrt(a/d), 1 - w/peak = s^2, s = sqrt(2*dh)*sinh(tau):
    smooth through a long lobe's flat top, dX/dtau in [2, 2*sqrt(3)]."""
    s2 = 2.0 * dh * np.sinh(tau) ** 2
    r = s2 * (dh + s2 * (1.0 - dh) / 3.0) / (dh + 0.5 * s2)
    return 2.0 / np.sqrt(1.0 - r), s2


def _time_map(y: float) -> tuple[float, float]:
    """Scaled length L = ell*sqrt(a/d) of the positive lobe with peak
    (a/b)*(1 - exp(y)), and dL/dy.  L falls strictly from pi/2 at y = 0 (the
    zero-amplitude limit) with slope in [-1, -2/3], so the peak is monotone
    in the lobe length (Smoller & Wasserman 1981; Schaaf 1990)."""
    u, wt = _gauss_nodes()
    dh = math.exp(y)
    tmax = math.asinh(1.0 / math.sqrt(2.0 * dh))
    q, s2 = _time_map_integrand(tmax * u, dh)
    dq = (1.0 - s2 + s2 * s2 / 3.0) * q ** 3 / (8.0 * np.cosh(tmax * u) ** 2)
    return tmax * float(np.dot(wt, q)), -tmax * float(np.dot(wt, dq))


def _lobe(d: float, a: float, b: float, ell: float) -> tuple[float, float]:
    """(y, |w'(ell)|) of the positive lobe with w'(0) = 0, w(ell) = 0 and
    peak A = (a/b)*(1 - exp(y)): Newton on the convex, decreasing L(y) from
    left of the root, then the energy d*w'^2/2 + a*w^2/2 - b*w^3/3 at A."""
    target = ell * math.sqrt(a / d)
    if not 0.5 * math.pi < target <= 700.0:
        raise NoConvergence(f"scaled lobe length {target:.6g} is not between the "
                            "quarter period pi/2 and 700")
    # L(y) + y rises from log(12/(2 + sqrt 3)) at y = -inf to pi/2 at y = 0
    y = math.log(12.0 / (2.0 + math.sqrt(3.0))) - target
    for _ in range(40):
        ell_y, slope = _time_map(y)
        step = (ell_y - target) / slope
        y = min(y - step, 0.0)
        if abs(step) <= 1e-14 * max(1.0, -y):
            amp = (a / b) * -math.expm1(y)
            return y, math.sqrt(amp * amp * (a - (2.0 / 3.0) * b * amp) / d)
    raise NoConvergence("lobe amplitude did not converge")


def _hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray):
    """xv -> the C1 cubic through (x, y) with slopes dydx, extrapolated by the
    end pieces: the coefficients, intervals and evaluation order of scipy's
    CubicHermiteSpline, so the values are the same to the bit.  Knots must
    be finite and strictly increasing, else AssemblyError."""
    dx = np.diff(x)
    if not (np.isfinite([x, y, dydx]).all() and (dx > 0.0).all()):
        raise AssemblyError("lobe profile knots are not finite and strictly increasing")
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]

    def f(xv):
        i = np.clip(np.searchsorted(x, xv, side="right") - 1, 0, len(x) - 2)
        s = xv - x[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return f


def _lobe_profile(a: float, b: float, ell: float, y: float, m: int):
    """x -> w(x) on [0, ell], zero from ell on: X(tau) by Simpson's rule on m
    intervals, inverted by the cubic Hermite interpolant of tau(X) with the
    exact dtau/dX = 1/q; A*(1 - s^2) with s in [0, 1] rising is nonnegative
    and monotone by construction."""
    dh = math.exp(y)
    tau = np.linspace(0.0, math.asinh(1.0 / math.sqrt(2.0 * dh)), 2 * (m // 2) + 1)
    q = _time_map_integrand(tau, dh)[0]
    big_x = np.concatenate(([0.0], np.cumsum(
        (tau[1] / 3.0) * (q[:-2:2] + 4.0 * q[1::2] + q[2::2]))))
    tau_of = _hermite(big_x, tau[::2], 1.0 / q[::2])
    # x scales onto the accumulated X, so x = ell lands on the zero
    amp, scale = (a / b) * -math.expm1(y), big_x[-1] / ell

    def w(x):
        s2 = 2.0 * dh * np.sinh(tau_of(np.minimum(x, ell) * scale)) ** 2
        return np.where(x < ell, np.maximum(amp * (1.0 - s2), 0.0), 0.0)

    return w


def _mismatch(lp: LimitParams, n: int, theta: float):
    """d1*u'(theta) + gamma*d2*v'(theta) and (y_u, y_v, flux_u, flux_v)."""
    y_u, du = _lobe(lp.d1, lp.a1, lp.b1, theta)
    y_v, dv = _lobe(lp.d2, lp.a2, lp.c2, 1.0 / n - theta)
    flux_u, flux_v = -lp.d1 * du, lp.gamma * lp.d2 * dv    # < 0 and > 0
    return flux_u + flux_v, (y_u, y_v, flux_u, flux_v)


def solve_unit(lp: LimitParams, n: int) -> UnitLobe:
    """Nested shooting for the matched lobe pair.

    The flux mismatch M(theta) = d1*u'(theta) + gamma*d2*v'(theta) is
    evaluated at both ends of the admissible theta window (both lobes must
    exceed their quarter-period thresholds) and must fall from positive to
    negative across it; each evaluation is two time-map root-finds.  Its
    root is then found by Illinois false position on the sign bracket:
    every trial lies strictly inside the bracket (_THETA_TOL/2 inside an end
    the false-position point rounds onto), and the search stops when the
    bracket or the last step is within _THETA_TOL, or M is exactly zero.
    The lobe profiles are built once, at the returned theta.
    """
    if not existence_check(lp, n):
        raise NotApplicable(f"no {n}-node solution exists: "
                            f"sqrt(d1/a1) + sqrt(d2/a2) >= 2/({n}*pi)")
    lo_q = (math.pi / 2.0) * math.sqrt(lp.d1 / lp.a1)
    hi_q = 1.0 / n - (math.pi / 2.0) * math.sqrt(lp.d2 / lp.a2)
    pad = 1e-3 * (hi_q - lo_q)
    lo = max(0.02 / n, lo_q + pad)
    hi = min(0.98 / n, hi_q - pad)
    if not lo < hi:
        raise NotApplicable("admissible theta window is empty")
    f, amps = _mismatch(lp, n, lo)
    theta, f_lo = lo, f
    if f_lo != 0.0:
        f, amps = _mismatch(lp, n, hi)
        theta, f_hi = hi, f
        if not (f_lo > 0.0 > f_hi or f_hi == 0.0):
            raise NotApplicable("flux mismatch does not change sign on the theta window")
    # Illinois false position (Dowell & Jarratt 1971), written out rather
    # than scipy.optimize.brentq: brentq leaks the frame of a callback that
    # raises, and the amplitude root-find raises NoConvergence through it.
    side = 0
    while f != 0.0 and hi - lo > _THETA_TOL:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:       # rounded onto an end: confirm, not bisect
            t = lo + 0.5 * _THETA_TOL if t <= lo else hi - 0.5 * _THETA_TOL
        step, theta = abs(t - theta), t
        f, amps = _mismatch(lp, n, theta)
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
        if step <= _THETA_TOL:
            break
    y_u, y_v, flux_u, flux_v = amps
    u_of = _lobe_profile(lp.a1, lp.b1, theta, y_u, _PROFILE_INTERVALS)
    w_v = _lobe_profile(lp.a2, lp.c2, 1.0 / n - theta, y_v, _PROFILE_INTERVALS)
    # v(x) = w(1/n - x): mirror the canonical lobe onto [theta, 1/n]
    return UnitLobe(n=n, theta=theta, u_of=u_of, v_of=lambda x: w_v(1.0 / n - x),
                    flux_u=flux_u, flux_v=flux_v)


def assemble(lobe: UnitLobe, lp: LimitParams, variant: str, g: Grid) -> DhmpSolution:
    """Tile reflected copies of the glued unit across [0, 1].

    The fg variant starts with the positive u-supported lobe at x = 0; on
    tile k the unit is traversed forward for even k and mirrored for odd k,
    which makes the junctions C1 (both one-sided slopes vanish there).  The
    gf variant traverses every tile the opposite way, so it starts negative.
    """
    n = lobe.n
    unit = 1.0 / n
    x = g.x
    k = np.minimum((x * n).astype(int), n - 1)
    t_fwd = x - k * unit
    t_bwd = (k + 1) * unit - x
    fwd = (k % 2 == 0) if variant == "fg" else (k % 2 == 1)
    t = np.where(fwd, t_fwd, t_bwd)
    if np.any(t < -1e-12) or np.any(t > unit + 1e-12):
        raise AssemblyError("tiling sent a node outside its unit cell")
    t = np.clip(t, 0.0, unit)
    w = lp.d1 * lobe.u_of(t) - lp.gamma * lp.d2 * lobe.v_of(t)
    zero_count = _count_sign_changes(w)
    if zero_count != n:
        raise AssemblyError(f"tiling produced {zero_count} zeros, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.max(np.abs(_cs_residual_values(lp, w, g.h))))
    if not math.isfinite(res):
        raise AssemblyError(f"the pattern's residual is {res} in floating point")
    return DhmpSolution(variant=variant, w=GridFn(g, w),
                        zero_count=zero_count, cs_residual=res)


def _count_sign_changes(w: np.ndarray) -> int:
    s = np.sign(w)
    s = s[s != 0.0]
    return int(np.sum(s[:-1] * s[1:] < 0.0))
