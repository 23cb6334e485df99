"""Level-set geometry of the reduced reaction term F and the a priori bound.

For fixed rates the zero set of F(u, v) is described by two mutually inverse
branches: v = V(u) for u past a1/b1 (vertical cuts) and u = U(v) for v past
a threshold v_tilde0 (horizontal cuts).  Chasing the maximum points of u and
v through these branches yields an explicit, solution-independent ceiling on
both densities whenever the rate ratio alpha/beta stays inside a band
[eta, 1/eta].  sup_bound turns that argument into a computable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BandError, DomainError
from .model import ModelParams, sigma_affine


def _larger_root(a, b, c):
    """Larger real root of a*x^2 + b*x + c = 0, a > 0, computed without
    subtractive cancellation (relevant at extreme rates)."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise DomainError("quadratic has no real roots")
    sq = math.sqrt(disc)
    if b <= 0.0:
        return (-b + sq) / (2.0 * a)
    return (2.0 * c) / (-b - sq)


@dataclass(frozen=True)
class BoundCertificate:
    """A priori sup-norm ceiling certified for one pair of rates.

    kind is "levelset" when both rates exceed the eta floor, in which case
    u_bound and v_bound are finite numbers.  For rates at or below the floor
    the argument falls back to the small-rate estimate C1*(1 + alpha/d1),
    C1*(1 + beta/d2) with a constant C1 that is not explicit; such
    certificates are qualitative (kind "small-rate", bounds are NaN and the
    shape strings record the form).
    """

    eta: float
    alpha: float
    beta: float
    u_bound: float
    v_bound: float
    kind: str = "levelset"
    u_shape: str = ""
    v_shape: str = ""

    def covers(self, u_max: float, v_max: float) -> bool:
        if self.kind != "levelset":
            raise ValueError("small-rate certificates are qualitative only")
        return u_max <= self.u_bound and v_max <= self.v_bound


def v_of_u(p: ModelParams, u: float) -> float:
    """Level curve V(u): the positive v at which F(u, .) changes sign.

    Defined for u > a1/b1 (where F(u, 0) < 0); the larger root of the
    quadratic in v.
    """
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise DomainError("level-set branches need alpha, beta > 0")
    if u <= p.a1 / p.b1:
        raise DomainError(f"v_of_u requires u > a1/b1 = {p.a1 / p.b1}")
    a = p.alpha * p.c2
    b = -(p.c1 * (p.d2 + p.beta * u) + p.alpha * (p.a2 - p.b2 * u))
    c = (p.d2 + p.beta * u) * (p.a1 - p.b1 * u)
    return _larger_root(a, b, c)


def _u_of_v_raw(p: ModelParams, v: float) -> float:
    # beta*b1*u^2 - B*u - C = 0, larger root
    bb = (p.alpha * p.b2 - p.beta * p.c1) * v + p.beta * p.a1 - p.d2 * p.b1
    cc = p.alpha * p.c2 * v * v - (p.alpha * p.a2 + p.d2 * p.c1) * v + p.d2 * p.a1
    return _larger_root(p.beta * p.b1, -bb, -cc)


def u_of_v(p: ModelParams, v: float) -> float:
    """Level curve U(v): the positive u at which F(., v) changes sign.

    Defined for v > v_tilde0; inverse of v_of_u on the mutual range.
    """
    if p.alpha <= 0.0 or p.beta <= 0.0:
        raise DomainError("level-set branches need alpha, beta > 0")
    if v <= v_tilde0(p):
        raise DomainError(f"u_of_v requires v > v_tilde0 = {v_tilde0(p)}")
    return _u_of_v_raw(p, v)


def v_tilde0(p: ModelParams) -> float:
    """Threshold below which F(0, v) may be nonpositive.

    Zero when c1/c2 < a1/a2 and alpha lies strictly between the two rate
    values at which F(0, .) becomes tangent to zero; otherwise the larger
    root of F(0, v) = 0.
    """
    if p.alpha <= 0.0:
        raise DomainError("v_tilde0 needs alpha > 0")
    gap = p.a1 * p.c2 - p.a2 * p.c1   # sign of a1/a2 - c1/c2, cross-multiplied
    if gap > 0.0:
        root = 2.0 * p.d2 * math.sqrt(p.a1 * p.c2 * gap)
        mid = p.d2 * (2.0 * p.a1 * p.c2 - p.a2 * p.c1)
        alpha_hi = (mid + root) / (p.a2 * p.a2)
        # alpha_lo * alpha_hi = (d2 c1 / a2)^2: no cancellation in mid - root
        alpha_lo = (p.d2 * p.c1 / p.a2) ** 2 / alpha_hi
        if alpha_lo < p.alpha < alpha_hi:
            return 0.0
    a = p.alpha * p.c2
    b = -(p.alpha * p.a2 + p.d2 * p.c1)
    c = p.d2 * p.a1
    return _larger_root(a, b, c)


def in_sigma(p: ModelParams, u: float, v: float) -> bool:
    """Whether (u, v) lies where the affine combination F + G is negative
    (strict inequality; independent of the rates)."""
    return sigma_affine(p, u, v) < 0.0


def _one_sided_bound(p: ModelParams) -> float:
    corner = (p.d2 * p.a1 + p.d1 * p.a2) / (p.d2 * p.b1 + p.d1 * p.b2)
    v_anchor = max(corner, v_tilde0(p))
    return max(p.a1 / p.b1, _u_of_v_raw(p, v_anchor))


def sup_bound(p: ModelParams, eta: float) -> BoundCertificate:
    """Certify ceilings for max u and max v at the parameter's rates.

    Requires 0 < eta <= 1 and eta <= alpha/beta <= 1/eta.  When either rate
    is at or below eta the level-set argument does not apply and a
    qualitative small-rate certificate is returned instead.  The v ceiling
    reuses the u argument on the parameter set with the two equations
    swapped.
    """
    if not 0.0 < eta <= 1.0:
        raise BandError("eta must lie in (0, 1]")
    if p.beta <= 0.0 or p.alpha <= 0.0:
        raise BandError("certificate needs alpha, beta > 0")
    ratio = p.alpha / p.beta
    if not (eta <= ratio <= 1.0 / eta):
        raise BandError(f"alpha/beta = {ratio} outside [{eta}, {1.0 / eta}]")
    if p.alpha <= eta or p.beta <= eta:
        return BoundCertificate(
            eta=eta, alpha=p.alpha, beta=p.beta,
            u_bound=math.nan, v_bound=math.nan, kind="small-rate",
            u_shape="C1*(1+alpha/d1)", v_shape="C1*(1+beta/d2)",
        )
    u_bound = _one_sided_bound(p)
    v_bound = _one_sided_bound(p.swapped())
    return BoundCertificate(eta=eta, alpha=p.alpha, beta=p.beta,
                            u_bound=u_bound, v_bound=v_bound)
