from dataclasses import replace

import numpy as np
import pytest

from sktlab.errors import NotApplicable
from sktlab.limits import LimitParams
from sktlab.model import (ModelParams, constant_state, kinetic_partials, reaction_f,
                          reaction_g)

from conftest import P1, PW, TAU_STAR, U_STAR, V_STAR
from oracles import big_F, big_G, sigma_affine


def test_regime_classification(p1, pw):
    # strong (P1) and weak (PW) competition have the constant state
    assert constant_state(p1).v_star > 0.0 and constant_state(pw).v_star > 0.0
    # a1/a2 == b1/b2 is a tie, not weak competition; a1/a2 above both b1/b2
    # and c1/c2 is neither regime
    tie = ModelParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=0.5, c2=1.0,
                      d1=1.0, d2=1.0)
    for p in (tie, replace(p1, a1=50.0)):
        with pytest.raises(NotApplicable, match="requires weak or strong competition"):
            constant_state(p)


def test_constant_state_is_nullcline_root(p1, pw):
    for p in (p1, pw):
        cs = constant_state(p)
        assert cs.u_star > 0.0 and cs.v_star > 0.0
        assert abs(p.a1 - p.b1 * cs.u_star - p.c1 * cs.v_star) < 1e-13
        assert abs(p.a2 - p.b2 * cs.u_star - p.c2 * cs.v_star) < 1e-13
        assert cs.tau_star == cs.u_star * cs.v_star


def test_p1_constant_state_values(p1):
    cs = constant_state(p1)
    assert abs(cs.u_star - U_STAR) < 1e-14
    assert abs(cs.v_star - V_STAR) < 1e-14
    assert abs(cs.tau_star - TAU_STAR) < 1e-13


def test_constant_state_requires_regime():
    tie = ModelParams(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                      d1=1.0, d2=1.0)
    with pytest.raises(NotApplicable, match="constant coexistence state requires weak or"):
        constant_state(tie)


def test_reactions_vanish_at_constant_state(p1):
    cs = constant_state(p1)
    assert abs(reaction_f(p1, cs.u_star, cs.v_star)) < 1e-12
    assert abs(reaction_g(p1, cs.u_star, cs.v_star)) < 1e-12


def test_affine_identity_random(rng):
    """big_F + big_G collapses to a rate-independent affine function."""
    for _ in range(200):
        vals = rng.uniform(0.05, 5.0, 8)
        p = ModelParams(*vals, alpha=rng.uniform(0.0, 1e4),
                        beta=rng.uniform(1e-2, 1e4))
        u = rng.uniform(0.0, 20.0)
        v = rng.uniform(0.0, 20.0)
        lhs = big_F(p, u, v) + big_G(p, u, v)
        rhs = sigma_affine(p, u, v)
        scale = max(abs(big_F(p, u, v)), abs(big_G(p, u, v)), 1.0)
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_swapped_exchanges_roles(p1, rng):
    q = p1.swapped().with_rates(3.0, 7.0)
    p = p1.with_rates(7.0, 3.0)
    u, v = rng.uniform(0.1, 5.0, 2)
    assert abs(big_F(p.swapped(), v, u) - big_G(p, u, v)) < 1e-12
    assert q.swapped().with_rates(7.0, 3.0) == p


def test_parameter_validation():
    with pytest.raises(ValueError):
        ModelParams(a1=-1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0,
                    d1=1.0, d2=1.0)
    with pytest.raises(ValueError):
        ModelParams(**P1).with_rates(-1.0, 1.0)
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError, match="gamma must be strictly positive"):
            LimitParams(gamma=gamma, **P1)


def test_kinetic_partials_match_central_differences(p1, rng):
    u = rng.uniform(0.1, 5.0, 32)
    v = rng.uniform(0.1, 5.0, 32)
    e = 1e-6
    for p in (p1, LimitParams.from_model(p1, gamma=2.0)):
        fu, fv, gu, gv = kinetic_partials(p, u, v)
        for got, fn, du, dv in ((fu, reaction_f, e, 0.0), (fv, reaction_f, 0.0, e),
                                (gu, reaction_g, e, 0.0), (gv, reaction_g, 0.0, e)):
            fd = (fn(p, u + du, v + dv) - fn(p, u - du, v - dv)) / (2.0 * e)
            assert np.max(np.abs(got - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))
