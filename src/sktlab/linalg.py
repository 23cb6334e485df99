"""Banded and bordered direct solves shared by the nonlinear solvers, and
the damped-Newton iteration they all run under.

Everything on the grid reduces to tridiagonal or small-bandwidth systems;
the nonlocal constraint and continuation conditions add a handful of dense
border rows/columns, which are eliminated by a Schur complement on the
border block so each Newton step stays O(n).

This module owns the band layouts and the LAPACK calls: callers pass nodal
coefficients to lap_band and pair_band and never index a band row.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgtsv

from .errors import NoConvergence, NonFiniteSystem

_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -20
_EPS = float(np.finfo(float).eps)


def _damped_newton(residual, step, x, done, max_iter, what, feasible=None):
    """Damped Newton with a backtracking line search in the sup norm.

    residual(x) -> (norm, data); step(x, data) -> Newton direction dx;
    done(x, norm) -> True once x is converged.  From each iterate the
    trials x + lam*dx, lam = 1, 1/2, 1/4, ..., are tried in turn, and the
    first that meets the Armijo test norm <= (1 - 1e-4*lam) * old norm or
    already meets done is accepted; step then gets that trial's residual data.  If
    feasible is given, a trial for which it returns an exception is halved
    without evaluating its residual, and that exception is raised if the
    step then falls below 2**-20 (feasible may also raise itself).  A
    stalled line search or max_iter iterations raise NoConvergence with the
    last accepted norm and the iteration count.

    Returns (x, data, norm, iterations, residual history).
    """
    # an overflow fails the line search or reaches a solve as NonFiniteSystem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rnorm, data = residual(x)
        history = [rnorm]
        for it in range(max_iter):
            if done(x, rnorm):
                return x, data, rnorm, it, history
            dx = step(x, data)
            lam = 1.0
            while True:
                xt = x + lam * dx
                err = feasible(xt) if feasible is not None else None
                if err is None:
                    tnorm, tdata = residual(xt)
                    if tnorm <= (1.0 - _ARMIJO * lam) * rnorm or done(xt, tnorm):
                        break
                lam *= 0.5
                if lam < _MIN_STEP:
                    raise err or NoConvergence(f"line search stalled in {what}",
                                               residual=rnorm, iterations=it)
            x, data, rnorm = xt, tdata, tnorm
            history.append(rnorm)
        raise NoConvergence(f"{what} did not converge", residual=rnorm,
                            iterations=max_iter)


def residual_floor(h: float, *scales: float) -> float:
    """Rounding floor of a second-difference residual: applying the 1/h^2
    stencil to fields of the given magnitudes cannot produce residuals
    smaller than a few ulps of scale/h^2, so no tolerance below this value
    is achievable."""
    scale = max(1.0, *scales) if scales else 1.0
    return 4.0 * _EPS * scale / (h * h)


def lap_band(n: int, h: float, mult=1.0, diag=0.0) -> np.ndarray:
    """Band of f -> laplacian(mult * f) + diag * f with the Neumann stencil
    (mirror ghosts), in solve_banded's (1, 1) layout; mult and diag are
    nodal arrays or scalars."""
    ab = np.zeros((3, n))
    ab[0] = 1.0 / (h * h) * mult
    ab[2, :-1] = ab[0, :-1]
    ab[0, 0] = 0.0
    stencil = np.full(n, -2.0 / (h * h))
    stencil[0] = stencil[-1] = -1.0 / (h * h)
    ab[1] = stencil * mult + diag
    return ab


def pair_band(n: int, h: float, blocks) -> np.ndarray:
    """Band of the pair operator [[L00, L01], [L10, L11]] with
    Lij = lap_band(n, h, *blocks[i][j]), in solve_banded's (3, 3) layout
    with the two fields interleaved (a0, b0, a1, b1, ...)."""
    ab = np.zeros((7, 2 * n))
    for i, row in enumerate(blocks):
        for j, (mult, diag) in enumerate(row):
            band = lap_band(n, h, mult, diag)
            ab[1 + i - j, 2 + j::2] = band[0, 1:]
            ab[3 + i - j, j::2] = band[1]
            ab[5 + i - j, j:2 * n - 2:2] = band[2, :-1]
    return ab


def solve_tridiag(ab: np.ndarray, rhs: np.ndarray, overwrite_rhs=False) -> np.ndarray:
    """Solve a tridiagonal system given in solve_banded's (1, 1) layout.

    Calls LAPACK gtsv directly, as solve_banded((1, 1), ...) does after its
    generic validation: bit-identical at a fraction of the call overhead,
    with the same checks (NonFiniteSystem, a ValueError, on non-finite
    input; LinAlgError on a singular matrix).  overwrite_rhs solves a
    Fortran-ordered rhs in place.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise NonFiniteSystem("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, overwrite_b=overwrite_rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def solve_pair(ab: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Newton direction -J^-1 (r1, r2) for a pair of fields whose Jacobian J
    is a pair_band; returned as the two fields one after the other, the
    layout of the solvers' unknown.  Same checks as solve_tridiag."""
    rhs = np.empty(2 * r1.size)
    rhs[0::2] = -r1
    rhs[1::2] = -r2
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise NonFiniteSystem("array must not contain infs or NaNs")
    d = solve_banded((3, 3), ab, rhs, check_finite=False)
    return np.concatenate((d[0::2], d[1::2]))


def solve_bordered(ab, border_cols, border_rows, corner, rhs_top, rhs_bot):
    """Solve [[A, B], [C, D]] [x; y] = [rhs_top; rhs_bot] with tridiagonal A.

    ab is A in solve_banded's (1, 1) layout, border_cols the k columns of B
    and border_rows the k rows of C, each a sequence of n-vectors; corner D
    (k, k) and rhs_bot (k,) may be scalars when k = 1.  A is solved once
    by solve_tridiag for [rhs_top, B], stacked in one Fortran-ordered array
    that gtsv solves in place, and the k x k Schur complement closed densely.
    """
    border_rows = np.array(border_rows)
    stacked = np.array((rhs_top, *border_cols)).T
    X = solve_tridiag(ab, stacked, overwrite_rhs=True)
    x_f, X_b = X[:, 0], X[:, 1:]
    schur = corner - border_rows @ X_b
    y = np.linalg.solve(schur, rhs_bot - border_rows @ x_f)
    x = x_f - X_b @ y
    return x, y
