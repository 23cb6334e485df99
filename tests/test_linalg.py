import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from sktlab.errors import NoConvergence, NonFiniteSystem
from sktlab.linalg import (_damped_newton, lap_band, pair_band, residual_floor,
                           solve_bordered, solve_pair, solve_tridiag, write_lap_bands)


def _dense_from_band(ab, lu):
    l, u = lu
    n = ab.shape[1]
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if -l <= j - i <= u:
                A[i, j] = ab[u + i - j, j]
    return A


def _written_band(n, h, mult, diag):
    ab = np.empty((3, n))
    write_lap_bands(ab, h, mult, diag)
    return ab


def test_residual_floor_scaling():
    assert residual_floor(0.5, 1.0) == residual_floor(0.5, 0.5)  # clamps at 1
    assert np.isclose(residual_floor(0.1, 10.0), 10.0 * residual_floor(0.1, 1.0))
    assert np.isclose(residual_floor(0.1, 1.0), 4.0 * residual_floor(0.2, 1.0))


def test_lap_band_matches_stencil(rng):
    n, h = 32, 0.03
    ab = lap_band(n, h)
    A = _dense_from_band(ab, (1, 1))
    f = rng.normal(size=n)
    ref = np.zeros(n)
    inv = 1.0 / (h * h)
    ref[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) * inv
    ref[0] = (f[1] - f[0]) * inv
    ref[-1] = (f[-2] - f[-1]) * inv
    assert np.allclose(A @ f, ref, atol=1e-11)


def test_lap_of_diag_band(rng):
    n, h = 24, 0.05
    m = rng.uniform(0.5, 2.0, n)
    f = rng.normal(size=n)
    A = _dense_from_band(_written_band(n, h, m, 0.0), (1, 1))
    L = _dense_from_band(lap_band(n, h), (1, 1))
    assert np.allclose(A @ f, L @ (m * f), atol=1e-10)


def test_solve_tridiag(rng):
    n, h = 40, 0.02
    ab = lap_band(n, h).copy()
    ab[1, :] -= 1.0  # shift to make it invertible
    rhs = rng.normal(size=n)
    x = solve_tridiag(ab, rhs)
    A = _dense_from_band(ab, (1, 1))
    assert np.max(np.abs(A @ x - rhs)) < 1e-8


@pytest.mark.parametrize("n", [2, 5, 256, 4096])
def test_solve_tridiag_bit_identical_to_solve_banded(rng, n):
    for _ in range(5):
        ab = rng.normal(size=(3, n))
        ab[1] = np.abs(ab[0]) + np.abs(ab[2]) + rng.uniform(0.1, 2.0, n)
        rhs = rng.normal(size=n)
        assert np.array_equal(solve_tridiag(ab, rhs), solve_banded((1, 1), ab, rhs))


def test_solve_tridiag_keeps_solve_banded_checks():
    # Neumann Laplacian at h = 1: constants span its kernel, and elimination
    # on small integers is exact, so the last pivot is exactly zero
    ab = lap_band(8, 1.0)
    rhs = np.ones(8)
    with pytest.raises(LinAlgError):
        solve_banded((1, 1), ab, rhs)
    with pytest.raises(LinAlgError):
        solve_tridiag(ab, rhs)
    good = lap_band(8, 1.0)
    good[1] -= 1.0
    for bad in (np.nan, np.inf):
        ab = good.copy()
        ab[1, 3] = bad
        with pytest.raises(ValueError):
            solve_tridiag(ab, rhs)
        b = rhs.copy()
        b[5] = bad
        with pytest.raises(ValueError):
            solve_tridiag(good, b)


def test_solve_pair_keeps_solve_tridiag_checks(rng):
    n = 8
    m, d = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    good = pair_band(n, 0.1, [[(m, -d), (0.1, 0.2)], [(0.3, 0.1), (d, -m)]])
    r1, r2 = rng.normal(size=n), rng.normal(size=n)
    A = _dense_from_band(good[3:], (3, 3))
    x = solve_pair(good, r1, r2)
    ref = np.linalg.solve(A, -np.ravel(np.column_stack([r1, r2])))
    assert np.allclose(x, np.concatenate((ref[0::2], ref[1::2])), atol=1e-10)
    for bad in (np.nan, np.inf):
        ab = good.copy()
        ab[3, 5] = bad
        with pytest.raises(NonFiniteSystem):
            solve_pair(ab, r1, r2)
        b = r2.copy()
        b[5] = bad
        with pytest.raises(NonFiniteSystem):
            solve_pair(good, r1, b)
    # two uncoupled Neumann Laplacians at h = 1: singular, exactly
    with pytest.raises(LinAlgError):
        solve_pair(pair_band(n, 1.0, [[(1.0, 0.0), (0.0, 0.0)],
                                      [(0.0, 0.0), (1.0, 0.0)]]), r1, r2)


@pytest.mark.parametrize("n", [8, 256, 1024, 4096])
def test_solve_pair_bit_identical_to_solve_banded(rng, n):
    # the pair band is gbsv's own storage: its rows 3-9 are solve_banded's
    # (3, 3) layout and rows 0-2 the fill-in that solve_banded adds
    for _ in range(3):
        # diagonally dominant: each diagonal block's diag outweighs its row
        own = lambda: (rng.uniform(0.5, 2.0, n), -rng.uniform(9.0, 10.0, n) * n * n)
        couple = lambda: (rng.uniform(-0.5, 0.5, n), rng.uniform(-1.0, 1.0, n))
        ab = pair_band(n, 1.0 / n, [[own(), couple()], [couple(), own()]])
        assert not ab[:3].any()
        for shape in ((n,), (n, 3)):
            r1, r2 = rng.normal(size=(2, *shape))
            rhs = np.empty((2 * n, *shape[1:]))
            rhs[0::2], rhs[1::2] = r1, r2
            d = -solve_banded((3, 3), ab[3:], rhs)
            x = solve_pair(ab, r1, r2)
            assert np.array_equal(x, np.concatenate((d[0::2], d[1::2])))


@pytest.mark.parametrize("nodal", [False, True])
def test_pair_band_matches_dense_blocks(rng, nodal):
    n, h = 12, 0.07

    def coef():
        return rng.normal(size=n) if nodal else float(rng.normal())

    blocks = [[(coef(), coef()) for _ in range(2)] for _ in range(2)]
    dense = np.block([[_dense_from_band(_written_band(n, h, m, d), (1, 1))
                       for m, d in row] for row in blocks])
    # interleaved ordering (a0, b0, a1, b1, ...) of the stacked (a, b)
    perm = np.ravel(np.column_stack([np.arange(n), n + np.arange(n)]))
    A = _dense_from_band(pair_band(n, h, blocks)[3:], (3, 3))
    assert np.array_equal(A, dense[np.ix_(perm, perm)])


def test_solve_bordered_matches_dense(rng):
    n, k, h = 30, 2, 0.04
    ab = lap_band(n, h).copy()
    ab[1, :] -= 2.0
    A = _dense_from_band(ab, (1, 1))
    B = rng.normal(size=(n, k))
    C = rng.normal(size=(k, n))
    D = rng.normal(size=(k, k)) + 5.0 * np.eye(k)
    rt = rng.normal(size=n)
    rb = rng.normal(size=k)
    x, y = solve_bordered(ab, tuple(B.T), tuple(C), D, rt, rb)
    full = np.block([[A, B], [C, D]])
    ref = np.linalg.solve(full, np.concatenate([rt, rb]))
    assert np.max(np.abs(np.concatenate([x, y]) - ref)) < 1e-8


def test_solve_bordered_single_border(rng):
    n, h = 20, 0.05
    ab = lap_band(n, h).copy()
    ab[1, :] -= 1.5
    A = _dense_from_band(ab, (1, 1))
    b = rng.normal(size=n)
    c = rng.normal(size=n)
    d = 3.0
    rt = rng.normal(size=n)
    rb = 0.7
    x, y = solve_bordered(ab, (b,), (c,), np.array([[d]]), rt, rb)
    full = np.block([[A, b[:, None]], [c[None, :], np.array([[d]])]])
    ref = np.linalg.solve(full, np.concatenate([rt, [rb]]))
    assert np.max(np.abs(np.concatenate([x, y]) - ref)) < 1e-9


def test_stencil_diag_neumann_rows():
    d = lap_band(10, 0.1)[1]
    assert np.allclose([d[0], d[-1]], -100.0)
    assert np.allclose(d[1:-1], -200.0)
    assert d[0] == d[-1] == d[1] / 2.0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [8, 256, 4096])
def test_solve_bordered_bit_identical_to_stacked_solve_banded(rng, n, k):
    ab = rng.normal(size=(3, n))
    ab[1] = np.abs(ab[0]) + np.abs(ab[2]) + rng.uniform(0.1, 2.0, n)
    B = rng.normal(size=(n, k))
    C = rng.normal(size=(k, n))
    D = rng.normal(size=(k, k)) + 5.0 * np.eye(k)
    rt = rng.normal(size=n)
    rb = rng.normal(size=k)
    ab_in, B_in, rt_in = ab.copy(), B.copy(), rt.copy()
    # the formulation on scipy's solve_banded that solve_bordered replaces
    X = solve_banded((1, 1), ab, np.column_stack([rt, B]))
    y_ref = np.linalg.solve(D - C @ X[:, 1:], rb - C @ X[:, 0])
    x_ref = X[:, 0] - X[:, 1:] @ y_ref
    # the border as its k columns and k rows, the one layout it takes
    x, y = solve_bordered(ab, tuple(B.T), tuple(C), D, rt, rb)
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
    # gtsv overwrites only the stacked copy, never the caller's arrays
    assert np.array_equal(rt, rt_in) and np.array_equal(B, B_in)
    assert np.array_equal(ab, ab_in)


def test_solve_bordered_keeps_checks(rng):
    n = 8
    B, C, D = rng.normal(size=(n, 1)), rng.normal(size=(1, n)), np.eye(1)
    with pytest.raises(LinAlgError):
        solve_bordered(lap_band(n, 1.0), tuple(B.T), tuple(C), D, np.ones(n),
                       np.ones(1))
    good = lap_band(n, 1.0)
    good[1] -= 1.0
    B[2, 0] = np.nan
    with pytest.raises(ValueError):
        solve_bordered(good, tuple(B.T), tuple(C), D, np.ones(n), np.ones(1))


# the shared damped-Newton loop on small problems whose every trial is known

def _scalar_residual(target):
    def residual(x):
        r = x - target
        return float(np.max(np.abs(r))), 0.0, r
    return residual


def test_damped_newton_returns_on_stop_test():
    def residual(x):
        r = x * x - 2.0
        return float(np.max(np.abs(r))), 0.0, r

    x, r, rnorm, it, history, _ = _damped_newton(
        residual, lambda x, r: -r / (2.0 * x), np.array([1.0]), 1e-14, 20, "test Newton")
    assert abs(x[0] - np.sqrt(2.0)) < 1e-14
    assert rnorm <= 1e-14 and rnorm == history[-1] == abs(r[0])
    assert it == len(history) - 1 >= 4
    assert all(b < a for a, b in zip(history, history[1:]))


def test_damped_newton_accepts_trial_that_only_meets_stop_test():
    # the residual norm never falls, so no trial meets Armijo; the full
    # step lands where the residual reports a floor that meets the stop test
    # and must be taken
    x, _, rnorm, it, history, _ = _damped_newton(
        lambda x: (1.0, 1.0 if x[0] >= 1.0 else 0.0, None), lambda x, r: np.ones(1),
        np.zeros(1), 0.0, 5, "test Newton")
    assert x[0] == 1.0 and it == 1 and history == [1.0, 1.0]


def test_damped_newton_stalled_line_search_and_max_iter():
    with pytest.raises(NoConvergence, match="line search stalled"):
        _damped_newton(lambda x: (1.0, 0.0, None), lambda x, r: np.ones(1), np.zeros(1),
                       0.0, 5, "test Newton")

    # each step halves the residual of x -> x - 1: Armijo holds, the stop
    # test never does
    with pytest.raises(NoConvergence, match="did not converge"):
        _damped_newton(_scalar_residual(1.0), lambda x, r: -0.5 * r, np.array([2.0]),
                       0.0, 3, "test Newton")


def test_damped_newton_halves_infeasible_trials():
    seen = []
    residual = _scalar_residual(-1.0)

    def counted(x):
        seen.append(float(x[0]))
        return residual(x)

    err = ValueError("left the feasible set")

    def feasible(x):
        return err if x[0] < 0.0 else None

    # from x = 1 the full step lands on x = -1 (infeasible) and is halved
    # to x = 0; from there every trial is negative, so the step underflows
    with pytest.raises(ValueError) as e:
        _damped_newton(counted, lambda x, r: -r, np.array([1.0]),
                       1e-12, 10, "test Newton", feasible)
    assert e.value is err
    assert seen == [1.0, 0.0]


def test_damped_newton_stall_at_rounding_level_has_converged():
    # the residual never falls, so every line search stalls; a stall whose
    # full step is within 1e4 ulps of x (relative to max(1, |x|)) ends the
    # solve at x, a larger step or one whose trials are infeasible does not
    eps = np.finfo(float).eps

    def solve(x0, ulps, feasible=None):
        dx = np.array([ulps * eps * max(1.0, x0)])
        return _damped_newton(lambda x: (1.0, 0.0, None), lambda x, r: dx,
                              np.array([x0]), 0.0, 5, "test Newton", feasible)

    x, _, rnorm, it, history, floor = solve(4.0, 5e3)
    assert x[0] == 4.0 and (rnorm, it, history, floor) == (1.0, 0, [1.0], 0.0)
    with pytest.raises(NoConvergence, match="line search stalled"):
        solve(4.0, 2e4)
    # from x = 0 every trial x > 0 is infeasible: its exception is raised
    err = ValueError("left the feasible set")
    with pytest.raises(ValueError) as e:
        solve(0.0, 5e3, lambda x: err if x[0] > 0.0 else None)
    assert e.value is err


def test_damped_newton_does_not_stop_on_an_infeasible_start():
    # the start meets the residual test but is infeasible, so it is not
    # returned: one step is taken to the feasible x = 1
    x, _, _, it, history, _ = _damped_newton(
        lambda x: (0.0, 0.0, None), lambda x, r: np.ones(1), np.zeros(1), 1e-12, 5,
        "test Newton", lambda x: ValueError("x < 1") if x[0] < 1.0 else None)
    assert x[0] == 1.0 and it == 1 and history == [0.0, 0.0]


def test_solve_bordered_on_a_pair_band_matches_dense(rng):
    # the pair band of two fields with one border column and one row, each
    # a pair of fields; x comes back as the two fields one after the other
    n, h = 12, 0.1
    coef = lambda: rng.uniform(0.5, 2.0, n)
    ab = pair_band(n, h, [[(coef(), -coef()), (0.1, coef())],
                          [(coef(), coef()), (coef(), -coef())]])
    perm = np.concatenate((np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)))
    A = _dense_from_band(ab[3:], (3, 3))[np.ix_(perm, perm)]
    col, row = rng.normal(size=(2, n)), rng.normal(size=(2, n))
    rt, rb = rng.normal(size=(2, n)), rng.normal()
    x, y = solve_bordered(ab, (tuple(col),), (tuple(row),), 0.5, tuple(rt), rb)
    full = np.block([[A, col.reshape(-1, 1)], [row.reshape(1, -1), np.array([[0.5]])]])
    ref = np.linalg.solve(full, np.concatenate([rt.ravel(), [rb]]))
    assert np.max(np.abs(np.concatenate([x, y]) - ref)) < 1e-9
    col[1, 3] = np.inf
    with pytest.raises(NonFiniteSystem):
        solve_bordered(ab, (tuple(col),), (tuple(row),), 0.5, tuple(rt), rb)
