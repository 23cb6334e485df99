"""Model coefficients and the closed-form algebraic quantities of the system.

The stationary problem couples two competing densities u, v through
divergence-form diffusion Delta[(d1 + alpha*v) u], Delta[(d2 + beta*u) v]
and Lotka-Volterra kinetics f, g.  This module holds the coefficient records,
the reaction terms and their partials, and the constant coexistence state,
which exists under weak or strong competition.  Everything here is exact
closed-form algebra; no grids are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NotApplicable


@dataclass(frozen=True)
class Coefficients:
    """The kinetic and linear-diffusion coefficients, all strictly positive.

    a1, a2 : birth rates
    b1, c2 : intra-specific competition
    c1, b2 : inter-specific competition
    d1, d2 : linear diffusion rates
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class ModelParams(Coefficients):
    """The coefficients plus the cross-diffusion rates alpha, beta (may be
    zero): all coefficients of the stationary cross-diffusion system."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")

    def with_rates(self, alpha: float, beta: float) -> "ModelParams":
        return replace(self, alpha=alpha, beta=beta)

    def swapped(self) -> "ModelParams":
        """Exchange the roles of the two equations (u <-> v).

        Maps a1<->a2, b1<->c2, c1<->b2, d1<->d2 and alpha<->beta, so that
        any estimate derived for u applies verbatim to v of the original
        parameter set.
        """
        return ModelParams(
            a1=self.a2, a2=self.a1,
            b1=self.c2, b2=self.c1,
            c1=self.b2, c2=self.b1,
            d1=self.d2, d2=self.d1,
            alpha=self.beta, beta=self.alpha,
        )


@dataclass(frozen=True)
class ConstantState:
    """The positive constant coexistence state and its density product."""

    u_star: float
    v_star: float
    tau_star: float


def reaction_f(p: Coefficients, u, v):
    """First kinetic term u*(a1 - b1*u - c1*v)."""
    return u * (p.a1 - p.b1 * u - p.c1 * v)


def reaction_g(p: Coefficients, u, v):
    """Second kinetic term v*(a2 - b2*u - c2*v)."""
    return v * (p.a2 - p.b2 * u - p.c2 * v)


def kinetic_partials(p: Coefficients, u, v):
    """(df/du, df/dv, dg/du, dg/dv) of the kinetic terms."""
    return (p.a1 - 2.0 * p.b1 * u - p.c1 * v, -p.c1 * u,
            -p.b2 * v, p.a2 - p.b2 * u - 2.0 * p.c2 * v)


def constant_state(p: Coefficients) -> ConstantState:
    """Positive root of both kinetic nullclines, with tau* = u* v*.

    Only defined in the weak (c1/c2 < a1/a2 < b1/b2) or strong (b1/b2 <
    a1/a2 < c1/c2) competition regime.  The ratios are compared by
    cross-multiplication so rational inputs never produce spurious ties;
    a tie is neither regime.  A state that is not positive and finite in
    floating point (an overflowed b2*c1 - b1*c2) is NotApplicable too.
    """
    ab = p.a1 * p.b2 - p.a2 * p.b1   # sign of a1/a2 - b1/b2
    ac = p.a1 * p.c2 - p.a2 * p.c1   # sign of a1/a2 - c1/c2
    if not (ac > 0.0 > ab or ab > 0.0 > ac):
        raise NotApplicable("constant coexistence state requires weak or strong competition")
    den = p.b2 * p.c1 - p.b1 * p.c2
    if abs(den) < 1e-14 * max(abs(p.b2 * p.c1), abs(p.b1 * p.c2)):
        raise NotApplicable("b2*c1 - b1*c2 vanishes; nullclines are parallel")
    u_star = (p.a2 * p.c1 - p.a1 * p.c2) / den
    v_star = (p.a1 * p.b2 - p.a2 * p.b1) / den
    if not (0.0 < u_star < math.inf and 0.0 < v_star < math.inf):
        raise NotApplicable("constant coexistence state is not positive and finite "
                            "in floating point")
    return ConstantState(u_star=u_star, v_star=v_star, tau_star=u_star * v_star)
