"""Local bifurcation of the incomplete-segregation system in d1.

The constant branch w*(d1) loses invertibility of its linearization when a
scalar potential crosses a Neumann eigenvalue; this module provides the
closed-form threshold, the same closed form at the discrete eigenvalue and
branch switching with amplitude continuation of the emerging nonconstant
solutions (the corrector is that of limits.is_newton plus d1 and a phase row).
Continuation traces each branch once up to the reflection x -> L - x.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotApplicable
from .grid import Grid, GridFn, discrete_eigenvalue, neumann_eigenpair
from .limits import LimitParams, _is_corrector, w_star
from .linalg import _FAILED
from .model import constant_state


@dataclass(frozen=True)
class BifurcationPoint:
    j: int
    lambda_j: float
    delta_j: float
    phi_j: GridFn


@dataclass(frozen=True)
class BranchPoint:
    s: float
    d1: float
    tau: float
    w: GridFn
    arclength: float
    newton_iters: int


@dataclass(frozen=True)
class Branch:
    points: tuple              # ordered by s, constant state at s = 0 included
    truncated: bool = False    # a side ended on a corrector failure or its budget
    end_reason: str = "s_max"  # or the first short side's end (switch_and_continue)
    fold: int = 1              # k: points are the reflected tiling of k pieces
    mirrored: bool = False     # the s < 0 side is the reflection of s > 0


def kinetic_strength(lp: LimitParams) -> float:
    """K = (c1 + gamma*b2)*tau* - b1*u*^2 - gamma*c2*v*^2.

    The numerator of the linearization potential; its sign decides whether
    any bifurcation threshold exists at all.
    """
    cs = constant_state(lp)
    # b1*u*, then times u*: finite where u*^2 overflows (** would raise)
    return ((lp.c1 + lp.gamma * lp.b2) * cs.tau_star
            - lp.b1 * cs.u_star * cs.u_star - lp.gamma * lp.c2 * cs.v_star * cs.v_star)


def _threshold(lp: LimitParams, j: int, lam: float) -> float:
    """The d1 at which the potential K / (d1*u* + gamma*d2*v*), the scalar
    multiplying the identity in the linearized field operator at the
    constant state, equals the mode-j eigenvalue lam: (K/lam -
    gamma*d2*v*)/u*.  The threshold exists iff this returns; NotApplicable
    is raised when K <= 0, lam underflowed to 0, or the root is not a finite
    positive float."""
    k = kinetic_strength(lp)
    if k <= 0.0:
        raise NotApplicable("K <= 0: no positive threshold for any mode")
    if not lam > 0.0:
        raise NotApplicable(f"eigenvalue {lam!r} is not positive in floating point")
    cs = constant_state(lp)
    d1 = (k / lam - lp.gamma * lp.d2 * cs.v_star) / cs.u_star
    if not math.isfinite(d1):
        raise NotApplicable(f"threshold not finite in floating point (K = {k!r})")
    if d1 <= 0.0:
        raise NotApplicable(f"mode {j}: rearranged threshold is nonpositive")
    return d1


def delta_j(lp: LimitParams, j: int, length: float = 1.0) -> float:
    """Closed-form threshold for mode j: _threshold at the continuum
    eigenvalue (j*pi/L)^2."""
    k = j * math.pi / length
    return _threshold(lp, j, k * k)      # inf, not OverflowError, past 1e308


def detect_crossing(lp: LimitParams, j: int, g: Grid) -> BifurcationPoint:
    """The discrete threshold: the d1 where potential(d1) = lambda_j^h.

    The closed form of delta_j with the discrete eigenvalue in place of the
    continuum one.  There the discrete linearized field operator, restricted
    to mean-zero fields, becomes singular in the direction of the j-th
    cosine mode (the tests check this by inverse iteration).  Raises
    NotApplicable where _threshold does.
    """
    lam_h = discrete_eigenvalue(g, j)
    root = _threshold(lp, j, lam_h)
    _, phi = neumann_eigenpair(g, j)
    return BifurcationPoint(j=j, lambda_j=lam_h, delta_j=root, phi_j=phi)


_PREDICTOR_NODES = 5     # points the branch predictor extrapolates through


def _extrapolation_weights(nodes, t: float) -> np.ndarray:
    """Lagrange weights: weights @ f is the interpolant of data f at t."""
    return np.array([math.prod((t - sk) / (si - sk)
                               for k, sk in enumerate(nodes) if k != i)
                     for i, si in enumerate(nodes)])


def switch_and_continue(lp: LimitParams, bp: BifurcationPoint, s_max: float,
                        ds: float, tol: float = 1e-11) -> Branch:
    """Continue the branch emerging at bp in its amplitude s on the grid of
    bp.phi_j, tracing only what the reflection x -> L - x does not repeat.

    With k = gcd(j, n_cells) the loop runs on the first n_cells/k cells,
    sums weighted k*h, and tiles each point out by reflection.  When j/k is
    odd it runs only for s > 0: the reversed reduced field is the point at
    -s, same d1 and tau, newton_iters 0.  Else both sides are continued.

    The predictor is linear at the first step (constant state plus s times
    the eigenfunction), then extrapolates (w, tau, d1) in s through the
    side's last _PREDICTOR_NODES points, s = 0 among them.  The corrector,
    limits._is_corrector with d1 and the phase row at s in at most 30
    iterations, works on that (w, tau, d1) vector, and the amplitude step
    adapts to its iteration count.  A side ends short of s_max at its last
    corrected point where the corrector fails with the step below 1e-6*ds
    ("corrector"), where it holds 4*s_max/ds points ("budget"; both set
    truncated) or where the predictor leaves d1 > 0 / tau > 0
    ("predictor"); end_reason is the first such end in tracing order, else
    "s_max".  NoConvergence where neither side holds a corrected point.
    """
    g = bp.phi_j.grid
    cs = constant_state(lp)
    k = math.gcd(bp.j, g.n_cells)
    m, mirrored = g.n_cells // k, (bp.j // k) % 2 == 1
    phi = bp.phi_j.values[:m]

    def unfold(w):      # the reflected tiling: piece p is w, reversed if p is odd
        return GridFn(g, np.concatenate([w[::(-1) ** p] for p in range(k)]))
    base = BranchPoint(s=0.0, d1=bp.delta_j, tau=cs.tau_star,
                       w=GridFn(g, np.full(g.n_cells, w_star(lp, bp.delta_j))),
                       arclength=0.0, newton_iters=0)
    sides, ends = [], []     # ends: how each side that stopped short ended
    for sign in (+1.0,) if mirrored else (+1.0, -1.0):
        pts = []
        hist = deque([(0.0, np.concatenate((base.w.values[:m], [base.tau, base.d1])))],
                     maxlen=_PREDICTOR_NODES)
        step = ds
        arclen = 0.0
        while abs(hist[-1][0]) < s_max - 1e-14:
            if len(pts) >= 4.0 * s_max / ds:    # as floats: s_max/ds may be inf
                ends.append("budget")
                break
            s_prev, prev = hist[-1]
            s_next = s_prev + sign * step
            if abs(s_next) > s_max:
                s_next = sign * s_max
            if len(hist) == 1:
                pred = np.concatenate((prev[:-2] + s_next * phi, prev[-2:]))
            else:
                s_nodes, x_nodes = zip(*hist)
                pred = _extrapolation_weights(s_nodes, s_next) @ np.array(x_nodes)
            if pred[-1] <= 0.0 or pred[-2] <= 0.0:
                ends.append("predictor")
                break
            try:
                x, _, _, iters, _, _ = _is_corrector(
                    lp, pred, g.h, tol, 30, "branch corrector", phase=(phi, s_next), fold=k)
            except _FAILED:
                step *= 0.5
                if step < 1e-6 * ds:
                    ends.append("corrector")
                    break
                continue
            w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])
            arclen += math.sqrt(k * g.h * float(np.sum((w - prev[:-2]) ** 2))
                                + (tau - prev[-2]) ** 2 + (d1 - prev[-1]) ** 2)
            pts.append(BranchPoint(s=s_next, d1=d1, tau=tau, w=unfold(w),
                                   arclength=arclen, newton_iters=iters))
            hist.append((s_next, x))
            if iters <= 3:
                step = min(step * 1.5, 10.0 * ds)
            elif iters >= 7:
                step = max(step * 0.5, 1e-6 * ds)
        sides.append(pts)
    if mirrored:
        sides.append([BranchPoint(-p.s, p.d1, p.tau, unfold(p.w.values[m - 1::-1]),
                                  p.arclength, 0) for p in sides[0]])
    plus, minus = sides
    if not (plus or minus):
        raise NoConvergence("no corrected branch point on either side")
    ordered = [BranchPoint(p.s, p.d1, p.tau, p.w, -p.arclength, p.newton_iters)
               for p in reversed(minus)] + [base] + plus
    return Branch(points=tuple(ordered), truncated=bool({"corrector", "budget"} & set(ends)),
                  end_reason=(ends + ["s_max"])[0],
                  fold=k, mirrored=mirrored)
