"""Uniform cell-centered 1-D grid with homogeneous Neumann boundary.

Nodes sit at cell centers x_i = (i + 1/2) h; zero-flux is realized by mirror
ghost values.  With this placement the cosine modes cos(j*pi*x/L) are exact
discrete eigenfunctions of the Laplacian, the midpoint rule integrates them
to zero exactly, and integrate(laplacian(f)) vanishes identically, all of
which the rest of the package leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


MIN_CELLS = 8


@dataclass(frozen=True)
class Grid:
    n_cells: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        h2 = self.h * self.h
        if not (h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"1/h^2 is not a finite float at h = {self.h!r}")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h


@dataclass(frozen=True)
class GridFn:
    """Real-valued function sampled at the grid nodes (immutable snapshot)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("values length must equal n_cells")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def laplacian_values(vals: np.ndarray, h: float) -> np.ndarray:
    """Second-order Neumann Laplacian on raw values (mirror ghosts)."""
    out = np.empty_like(vals)
    out[1:-1] = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    out[0] = vals[1] - vals[0]
    out[-1] = vals[-2] - vals[-1]
    out /= h * h
    return out


def integrate(f: GridFn) -> float:
    """Midpoint rule; exact for the discrete cosine modes."""
    return f.grid.h * float(np.sum(f.values))


def discrete_eigenvalue(g: Grid, j: int) -> float:
    """Eigenvalue of -laplacian for mode j on this grid."""
    if not 0 <= j < g.n_cells:
        raise IndexError(f"mode index {j} out of range [0, {g.n_cells})")
    theta = j * math.pi * g.h / g.length
    return (2.0 / (g.h * g.h)) * (1.0 - math.cos(theta))


def neumann_eigenpair(g: Grid, j: int) -> tuple[float, GridFn]:
    """(lambda_j, Phi_j) with -laplacian(Phi_j) = lambda_j Phi_j exactly.

    Phi_j is cos(j*pi*x/L) normalized to unit discrete L2 norm; the sign is
    fixed by Phi_j > 0 at the first node.
    """
    lam = discrete_eigenvalue(g, j)
    vals = np.cos(j * math.pi * g.x / g.length)
    norm = math.sqrt(g.h * float(np.sum(vals * vals)))
    return lam, GridFn(g, vals / norm)
