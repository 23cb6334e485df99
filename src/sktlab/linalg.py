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
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dgtsv

from .errors import NoConvergence, NonFiniteSystem

_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -20
_EPS = float(np.finfo(float).eps)


def _damped_newton(residual, step, x, tol, max_iter, what, feasible=None):
    """Damped Newton with a backtracking line search in the sup norm.

    residual(x) -> (norm, floor, data), floor the residual_floor of the
    fields the residual differenced; step(x, data) -> Newton direction dx.
    x has converged once norm <= max(tol, floor) and it is feasible.  From
    each iterate the trials x + lam*dx, lam = 1, 1/2, 1/4, ..., are tried
    in turn, and the first that has converged or meets the Armijo test
    norm <= (1 - 1e-4*lam) * old norm is accepted; step then gets its
    residual data.  If feasible is given, a trial for which it returns an
    exception is halved without evaluating its residual, and that exception
    is raised if the step then falls below 2**-20.  Otherwise a stall raises
    NoConvergence, as do max_iter iterations, unless x is feasible and its
    full step is at rounding level, |dx| <= 1e4 eps max(1, |x|): converged.

    Returns (x, data, norm, iterations, residual history, floor).
    """
    # an overflow fails the line search or reaches a solve as NonFiniteSystem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rnorm, floor, data = residual(x)
        history = [rnorm]
        ok = feasible is None or feasible(x) is None    # accepted trials are feasible
        for it in range(max_iter):
            if ok and rnorm <= max(tol, floor):
                return x, data, rnorm, it, history, floor
            dx = step(x, data)
            lam = 1.0
            while True:
                xt = x + lam * dx
                err = feasible(xt) if feasible is not None else None
                if err is None:
                    tnorm, tfloor, tdata = residual(xt)
                    if tnorm <= max((1.0 - _ARMIJO * lam) * rnorm, tol, tfloor):
                        break
                lam *= 0.5
                if lam < _MIN_STEP:
                    if err is None and ok and float(np.max(np.abs(dx))) <= \
                            1e4 * _EPS * max(1.0, float(np.max(np.abs(x)))):
                        return x, data, rnorm, it, history, floor
                    raise err or NoConvergence(f"line search stalled in {what}")
            x, data, rnorm, floor, ok = xt, tdata, tnorm, tfloor, True
            history.append(rnorm)
        raise NoConvergence(f"{what} did not converge")


def residual_floor(h: float, *scales: float) -> float:
    """Rounding floor of a second-difference residual: applying the 1/h^2
    stencil to fields of the given magnitudes cannot produce residuals
    smaller than a few ulps of scale/h^2, so no tolerance below this value
    is achievable."""
    scale = max(1.0, *scales) if scales else 1.0
    return 4.0 * _EPS * scale / (h * h)


def lap_band(n: int, h: float, diag=0.0) -> np.ndarray:
    """Band of f -> laplacian(f) + diag * f with the Neumann stencil (mirror
    ghosts), rows (superdiagonal, diagonal, subdiagonal) with each entry in
    its column; diag is a nodal array or a scalar."""
    ab = np.empty((3, n))
    write_lap_bands(ab, h, 1.0, diag)
    return ab


def write_lap_bands(ab: np.ndarray, h: float, mult, diag) -> None:
    """Write into ab, shaped (3, n) or (3, m, n), the (1, 1) band of one or m
    operators f -> laplacian(mult * f) + diag * f with the Neumann stencil
    (mult and diag broadcast against ab[0]).  Read as (3, m*n), a (3, m, n)
    ab is their block-diagonal band: coupling entries are zero."""
    np.multiply(1.0 / (h * h), mult, out=ab[0])
    np.multiply(-2.0 / (h * h), mult, out=ab[1])
    ab[1, ..., 0] = -ab[0, ..., 0]
    ab[1, ..., -1] = -ab[0, ..., -1]
    ab[1] += diag
    ab[2, ..., :-1] = ab[0, ..., :-1]
    ab[2, ..., -1] = 0.0
    ab[0, ..., 0] = 0.0


def pair_band(n: int, h: float, blocks) -> np.ndarray:
    """Band of the pair operator [[L00, L01], [L10, L11]], Lij the
    write_lap_bands operator of blocks[i][j] = (mult, diag), fields interleaved
    (a0, b0, a1, b1, ...), in gbsv's storage for three sub- and superdiagonals:
    entry (r, c) at ab[6 + r - c, c], rows 0-2 zero for the LU fill-in."""
    ab = np.zeros((10, 2 * n))
    for i, row in enumerate(blocks):
        for j, (mult, diag) in enumerate(row):
            write_lap_bands(ab[4 + i - j:9 + i - j:2, j::2], h, mult, diag)
    return ab


def _lapack(driver, ab, rhs, *bands, **flags):
    """x of the LAPACK driver(*bands, rhs, **flags) solving the band ab:
    NonFiniteSystem (a ValueError) on a non-finite ab or rhs, LinAlgError on
    a singular matrix, with the messages of scipy's banded solve."""
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise NonFiniteSystem("array must not contain infs or NaNs")
    *_, x, info = driver(*bands, rhs, **flags)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def solve_tridiag(ab: np.ndarray, rhs: np.ndarray, overwrite_rhs=False) -> np.ndarray:
    """Solve a tridiagonal lap_band by LAPACK gtsv, with the checks of
    _lapack; overwrite_rhs solves a Fortran-ordered rhs in place."""
    return _lapack(dgtsv, ab, rhs, ab[2, :-1], ab[1], ab[0, 1:], overwrite_b=overwrite_rhs)


def solve_pair(ab: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Newton direction -J^-1 (r1, r2) for a pair of fields whose Jacobian J
    is a pair_band; returned as the two fields one after the other, the
    layout of the solvers' unknown.  r1 and r2 may be (n, m) to solve m
    right-hand sides at once.  LAPACK gbsv, with the checks of _lapack."""
    rhs = np.empty((2 * r1.shape[0], *r1.shape[1:]))
    rhs[0::2] = -r1
    rhs[1::2] = -r2
    d = _lapack(dgbsv, ab, rhs, 3, 3, ab, overwrite_b=True)
    return np.concatenate((d[0::2], d[1::2]))


def solve_bordered(ab, border_cols, border_rows, corner, rhs_top, rhs_bot):
    """Solve [[A, B], [C, D]] [x; y] = [rhs_top; rhs_bot] with banded A.

    ab is A as a lap_band or a pair_band, border_cols the k columns of B
    and border_rows the k rows of C, each a sequence of n-vectors; corner D
    (k, k) and rhs_bot (k,) may be scalars when k = 1.  A is solved once
    for [rhs_top, B], and the k x k Schur complement closed densely.  A
    tridiagonal A is solved by solve_tridiag, stacked in one Fortran-ordered
    array that gtsv solves in place.  When ab is a pair_band, rhs_top and
    each border column and row are pairs of fields, and x is returned as the
    two fields one after the other, as by solve_pair.
    """
    border_rows = np.array(border_rows)
    stacked = np.array((rhs_top, *border_cols))
    if ab.shape[0] == 10:
        X = -solve_pair(ab, stacked[:, 0].T, stacked[:, 1].T)
        border_rows = border_rows.reshape(len(border_rows), -1)
    else:
        X = solve_tridiag(ab, stacked.T, overwrite_rhs=True)
    x_f, X_b = X[:, 0], X[:, 1:]
    schur = corner - border_rows @ X_b
    y = np.linalg.solve(schur, rhs_bot - border_rows @ x_f)
    x = x_f - X_b @ y
    return x, y
