"""Level-set geometry of the reduced reaction term F and the a priori bound.

For fixed rates the zero set of F(u, v) is described by two mutually inverse
branches: v = V(u) for u past a1/b1 (vertical cuts) and u = U(v) for v past
a threshold v_tilde0 (horizontal cuts).  Chasing the maximum points of u and
v through these branches yields an explicit, solution-independent ceiling on
both densities whenever the rate ratio alpha/beta stays inside a band
[eta, 1/eta].  sup_bound turns that argument into a computable certificate;
it evaluates U(v) (_u_of_v_raw) and v_tilde0, and the tests hold F, V(u)
and the checked U(v) as oracles.  `sktlab solve` checks its state against
levelset_certificate, at eta = min(alpha/beta, beta/alpha, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotApplicable
from .model import ModelParams


def _larger_root(a, b, c):
    """Larger real root of a*x^2 + b*x + c = 0, a >= 0, computed without
    subtractive cancellation (relevant at extreme rates).  Where b^2 or 4ac
    overflows, the coefficients are first scaled by the power of two that
    brings the largest to order one.  A leading coefficient that underflowed
    to 0 (before or by that scaling) puts the root past -b/(2a), beyond
    every float, when b <= 0: inf.
    """
    if not math.isfinite(b * b - 4.0 * a * c):
        e = -math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e)
    if a == 0.0 and b <= 0.0:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NotApplicable("quadratic has no real roots")
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
        return u_max <= self.u_bound and v_max <= self.v_bound


def _u_of_v_raw(p: ModelParams, v: float) -> float:
    # beta*b1*u^2 - B*u - C = 0, larger root
    bb = (p.alpha * p.b2 - p.beta * p.c1) * v + p.beta * p.a1 - p.d2 * p.b1
    cc = p.alpha * p.c2 * v * v - (p.alpha * p.a2 + p.d2 * p.c1) * v + p.d2 * p.a1
    return _larger_root(p.beta * p.b1, -bb, -cc)


def v_tilde0(p: ModelParams) -> float:
    """Threshold below which F(0, v) may be nonpositive: the larger root of
    F(0, v) = 0, or 0 where it has no real root (which happens when c1/c2 <
    a1/a2 and alpha lies strictly between the two rates at which F(0, .)
    becomes tangent to zero).  The discriminant of _larger_root decides it.
    """
    if p.alpha <= 0.0:
        raise NotApplicable("v_tilde0 needs alpha > 0")
    try:
        return _larger_root(p.alpha * p.c2, -(p.alpha * p.a2 + p.d2 * p.c1), p.d2 * p.a1)
    except NotApplicable:
        return 0.0


def _one_sided_bound(p: ModelParams) -> float:
    den = p.d2 * p.b1 + p.d1 * p.b2
    if den == 0.0:
        raise NotApplicable("the level-set corner underflows in floating point")
    corner = (p.d2 * p.a1 + p.d1 * p.a2) / den
    v0 = v_tilde0(p)
    root = _u_of_v_raw(p, max(corner, v0))
    if math.isnan(v0) or math.isnan(root):      # max would drop it
        raise NotApplicable("a level-set root is NaN in floating point")
    return max(p.a1 / p.b1, root)


def sup_bound(p: ModelParams, eta: float) -> BoundCertificate:
    """Certify ceilings for max u and max v at the parameter's rates.

    Requires 0 < eta <= 1 and eta <= alpha/beta <= 1/eta.  When either rate
    is at or below eta the level-set argument does not apply and a
    qualitative small-rate certificate is returned instead.  The v ceiling
    reuses the u argument on the parameter set with the two equations
    swapped.
    """
    if not 0.0 < eta <= 1.0:
        raise NotApplicable("eta must lie in (0, 1]")
    if p.beta <= 0.0 or p.alpha <= 0.0:
        raise NotApplicable("certificate needs alpha, beta > 0")
    ratio = p.alpha / p.beta         # 0.0 where it underflows
    if not (ratio > 0.0 and eta <= min(ratio, 1.0 / ratio)):
        raise NotApplicable(f"alpha/beta = {ratio} outside [{eta}, {1.0 / eta}]")
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


def levelset_certificate(p: ModelParams):
    """The level-set sup-bound certificate at eta = min(alpha/beta,
    beta/alpha, 1), or None when a rate is not positive, the band check or
    a level-set root fails or only the small-rate certificate applies."""
    if p.alpha <= 0.0 or p.beta <= 0.0:
        return None
    ratio = p.alpha / p.beta
    if ratio == 0.0:                 # underflow: outside every band
        return None
    try:
        cert = sup_bound(p, min(ratio, 1.0 / ratio, 1.0))
    except NotApplicable:
        return None
    return cert if cert.kind == "levelset" else None
