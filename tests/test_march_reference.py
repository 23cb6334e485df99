"""The time march against its earlier two-system formulation.

`_ref_march` keeps the loop that built one band per field with
`_ref_lap_band` (the earlier band builder) and made two `solve_tridiag`
calls per step.  `steady.time_march` now writes both bands into one
block-diagonal system and solves it with one call; the two entries that
would couple the blocks are zero, so elimination across the junction
changes no bit, and every coefficient is formed by the same operations.
After the same number of steps the two marches must be bit-equal.

The march also stops early once its state meets Newton's stop test and its
residual has fallen 1e6-fold from the start's.  The sweep slice below
checks that the pipeline (march, then Newton) still reaches the attractor
of the fixed-length march followed by Newton, on starts from 1e-1 down to
1e-13 of the constant state, where the stop must not fire on the unstable
constant state, and that the Newton-first `steady.solve` reaches the same
state to 1e-8 of its sup norm.

Above 256 cells `steady.solve` marches on 256 cells and polishes at n; the
last tests check that it reaches the state of `oracles.march_then_newton`
at n and that its march solves only 256-cell bands.
"""

import numpy as np
import pytest

from sktlab import cli, steady
from sktlab.grid import Grid, GridFn
from sktlab.linalg import lap_band, solve_tridiag, write_lap_bands
from sktlab.model import ModelParams, constant_state

from conftest import P1, PW
from oracles import march_then_newton


def _ref_lap_band(n: int, h: float, mult=1.0, diag=0.0) -> np.ndarray:
    ab = np.zeros((3, n))
    ab[0] = 1.0 / (h * h) * mult
    ab[2, :-1] = ab[0, :-1]
    ab[0, 0] = 0.0
    stencil = np.full(n, -2.0 / (h * h))
    stencil[0] = stencil[-1] = -1.0 / (h * h)
    ab[1] = stencil * mult + diag
    return ab


def _ref_march(p, u0, v0, dt, steps):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = u0.grid
    h = g.h
    u = u0.values.copy()
    v = v0.values.copy()
    # an overflow reaches solve_tridiag as NonFiniteSystem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            ab_u = _ref_lap_band(g.n_cells, h, -dt * (p.d1 + p.alpha * v),
                                 1.0 + dt * (p.b1 * u + p.c1 * v))
            ab_v = _ref_lap_band(g.n_cells, h, -dt * (p.d2 + p.beta * u),
                                 1.0 + dt * (p.b2 * u + p.c2 * v))
            rhs_u = (1.0 + dt * p.a1) * u
            rhs_v = (1.0 + dt * p.a2) * v
            u = solve_tridiag(ab_u, rhs_u)
            v = solve_tridiag(ab_v, rhs_v)
    return GridFn(g, u), GridFn(g, v)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_lap_band_equals_the_earlier_builder(n, rng):
    h = 1.0 / n
    mult, diag = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    assert np.array_equal(lap_band(n, h), _ref_lap_band(n, h))
    assert np.array_equal(lap_band(n, h, diag), _ref_lap_band(n, h, 1.0, diag))
    for args in ((mult, 0.0), (mult, diag), (-0.3, 0.7), (1.0, diag)):
        ab = np.empty((3, n))
        write_lap_bands(ab, h, *args)
        assert np.array_equal(ab, _ref_lap_band(n, h, *args))


def _start(params, n):
    p = ModelParams(**params).with_rates(100.0, 100.0)
    cs = constant_state(p)
    g = Grid(n)
    u0 = GridFn(g, cs.u_star * (1 + 0.1 * np.cos(np.pi * g.x)))
    v0 = GridFn(g, cs.v_star * (1 - 0.1 * np.cos(2 * np.pi * g.x)))
    return p, u0, v0


@pytest.mark.parametrize("params", [P1, PW], ids=["P1", "PW"])
@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0])
def test_stacked_march_equals_the_two_system_march(params, n, dt):
    # 200 steps, or as many as ran before the stop; PW's residual never
    # falls 1e6-fold in 200 steps and P1's does not by t = 0.2, so those
    # marches run in full
    p, u0, v0 = _start(params, n)
    u, v, steps = steady.time_march(p, u0, v0, dt, 200, 1e-11)
    if params is PW or dt == 1e-3:
        assert steps == 200
    ur, vr = _ref_march(p, u0, v0, dt, steps)
    assert np.array_equal(u.values, ur.values)
    assert np.array_equal(v.values, vr.values)


def _band_spy(monkeypatch):
    bands = []

    def spy(ab, rhs, overwrite_rhs=False):
        bands.append(ab.shape)
        return solve_tridiag(ab, rhs, overwrite_rhs)

    monkeypatch.setattr(steady, "solve_tridiag", spy)
    return bands


def test_one_tridiagonal_solve_per_march_step(monkeypatch):
    calls = _band_spy(monkeypatch)
    p, u0, v0 = _start(PW, 64)
    _, _, steps = steady.time_march(p, u0, v0, 0.1, 20, 1e-11)
    assert steps == 20
    assert calls == [(3, 128)] * 20


@pytest.mark.parametrize("params", [P1, PW], ids=["P1", "PW"])
@pytest.mark.parametrize("seed", [5, 31])
def test_march_then_newton_reaches_the_fixed_length_attractor(params, seed):
    # an n = 256 slice of the sweep: amplitudes 1e-1 ... 1e-13 around the
    # constant state at the CLI's defaults (rates 100, dt 0.1, t_march 20)
    p = ModelParams(**params).with_rates(100.0, 100.0)
    g = Grid(256)
    for k in range(1, 14):
        u0, v0 = cli._seeded_fields(p, g, seed, 10.0 ** -k)
        st = march_then_newton(p, u0, v0, 0.1, 200, 1e-11)
        ur, vr = _ref_march(p, u0, v0, 0.1, 200)
        ref = steady.newton_solve(p, ur, vr, 1e-11)
        scale = max(ref.u_max, ref.v_max)
        assert np.max(np.abs(st.u.values - ref.u.values)) <= 1e-9 * scale
        assert np.max(np.abs(st.v.values - ref.v.values)) <= 1e-9 * scale
        assert st.residual_inf <= max(1e-11, st.residual_floor)
        if params is PW:
            assert st.march_steps == 200


@pytest.mark.parametrize("params", [P1, PW], ids=["P1", "PW"])
@pytest.mark.parametrize("seed", [5, 31])
def test_solve_reaches_the_fixed_length_attractor(params, seed):
    # the same slice through the Newton-first pipeline: PW's constant state
    # is stable and Newton alone reaches it, P1's is not and it marches
    p = ModelParams(**params).with_rates(100.0, 100.0)
    g = Grid(256)
    for k in range(1, 14):
        u0, v0 = cli._seeded_fields(p, g, seed, 10.0 ** -k)
        st = steady.solve(p, u0, v0, 0.1, 200, 1e-11)
        ur, vr = _ref_march(p, u0, v0, 0.1, 200)
        ref = steady.newton_solve(p, ur, vr, 1e-11)
        scale = max(ref.u_max, ref.v_max)
        assert np.max(np.abs(st.u.values - ref.u.values)) <= 1e-8 * scale
        assert np.max(np.abs(st.v.values - ref.v.values)) <= 1e-8 * scale
        assert (st.march_steps == 0) == (params is PW)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("seed", [5, 31])
def test_solve_above_256_cells_marches_on_256_and_keeps_the_state(monkeypatch, n, seed):
    # P1 at the CLI's defaults: the 256-cell march settles early, and Newton
    # at n ends on the state of march_then_newton at n
    bands = _band_spy(monkeypatch)
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    g = Grid(n)
    for amplitude in (0.9, 0.1, 1e-3):
        u0, v0 = cli._seeded_fields(p, g, seed, amplitude)
        bands.clear()
        st = steady.solve(p, u0, v0, 0.1, 200, 1e-11)
        assert st.march_cells == 256 and 0 < st.march_steps < 200
        assert bands == [(3, 512)] * st.march_steps
        ref = march_then_newton(p, u0, v0, 0.1, 200, 1e-11)
        scale = max(ref.u_max, ref.v_max)
        assert np.max(np.abs(st.u.values - ref.u.values)) <= 1e-8 * scale
        assert np.max(np.abs(st.v.values - ref.v.values)) <= 1e-8 * scale


@pytest.mark.parametrize("n", [64, 256])
def test_solve_up_to_256_cells_marches_on_the_grid(monkeypatch, n):
    bands = _band_spy(monkeypatch)
    g = Grid(n)
    p = ModelParams(**P1).with_rates(100.0, 100.0)
    st = steady.solve(p, *cli._seeded_fields(p, g, 5, 0.1), 0.1, 200, 1e-11)
    assert st.march_cells == n and bands == [(3, 2 * n)] * st.march_steps
    # the Newton-first path marches on no grid
    p = ModelParams(**PW).with_rates(100.0, 100.0)
    bands.clear()
    st = steady.solve(p, *cli._seeded_fields(p, g, 5, 0.1), 0.1, 200, 1e-11)
    assert st.march_steps == st.march_cells == 0 and bands == []
