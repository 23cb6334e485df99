import math

import numpy as np
import pytest

from sktlab.grid import (Grid, GridFn, discrete_eigenvalue, integrate,
                         laplacian_values, neumann_eigenpair)

from oracles import gradient


def test_grid_geometry(grid64):
    assert grid64.h == 1.0 / 64
    x = grid64.x
    assert x[0] == grid64.h / 2
    assert abs(x[-1] - (1.0 - grid64.h / 2)) < 1e-15


def test_integrate_exact_for_cosine_modes(grid64):
    # midpoint rule integrates the discrete cosine modes exactly
    for j in range(1, 6):
        f = GridFn(grid64, np.cos(j * np.pi * grid64.x))
        assert abs(integrate(f)) < 1e-14
    const = GridFn(grid64, np.full(grid64.n_cells, 3.5))
    assert abs(integrate(const) - 3.5) < 1e-14


def test_laplacian_annihilates_constants(grid64):
    c = GridFn(grid64, np.full(grid64.n_cells, 2.0))
    assert np.max(np.abs(laplacian_values(c.values, grid64.h))) == 0.0


def test_eigenpair_is_exact(grid64):
    for j in (1, 2, 5):
        lam, phi = neumann_eigenpair(grid64, j)
        res = laplacian_values(phi.values, grid64.h) + lam * phi.values
        assert np.max(np.abs(res)) < 1e-10 * lam
        # unit discrete L2 norm
        assert abs(grid64.h * np.sum(phi.values ** 2) - 1.0) < 1e-13


def test_discrete_eigenvalue_approaches_continuum():
    lam_c = math.pi ** 2
    errs = [abs(discrete_eigenvalue(Grid(n), 1) - lam_c) for n in (64, 128)]
    assert 3.5 < errs[0] / errs[1] < 4.5  # O(h^2)


def test_gradient_of_linear_field(grid64):
    f = GridFn(grid64, 2.0 * grid64.x)
    g = gradient(f).values
    # exact in the interior; one-sided at the ends
    assert np.max(np.abs(g[1:-1] - 2.0)) < 1e-12


def test_gridfn_validation(grid64):
    with pytest.raises(ValueError):
        GridFn(grid64, np.zeros(63))
    with pytest.raises(ValueError):
        Grid(4)
    with pytest.raises(ValueError):
        Grid(64, -1.0)


def test_gridfn_immutable(grid64):
    f = GridFn(grid64, np.full(grid64.n_cells, 1.0))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


@pytest.mark.parametrize("length", [1e-300, 1e-200, 1e-160])
def test_grid_needs_a_finite_inverse_square_step(length):
    # h*h underflows to 0, which the stencils divide by, or 1/h^2 overflows
    with pytest.raises(ValueError, match="1/h"):
        Grid(8, length)
    g = Grid(8, 1e300)                   # 1/h^2 = 0 is finite
    assert discrete_eigenvalue(g, 1) == 0.0
