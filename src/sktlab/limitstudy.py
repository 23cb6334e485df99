"""Orchestration of the simultaneous large-rate limit.

Solves the full system along a schedule of growing rate pairs with warm
starts, tracks the transformed fields w_n, z_n, estimates the limiting
density product from the mean of z_n, and classifies the run as incomplete
or complete segregation.  The seed, solved at the first rate pair by the
caller, is step 0; each later step is solved once, in the regular form of
limits._eps_newton; a state that form cannot hold, or a failed solve, falls
back to the (u, v) Newton, and the report counts those steps.  The matched
limiting-system solve quantifies how well the final member of the sequence
is explained by its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits, steady
from .errors import NotApplicable, ValidationError
from .grid import GridFn, integrate
from .limits import LimitParams
from .linalg import _FAILED
from .model import ModelParams, constant_state
from .steady import SteadyState


@dataclass(frozen=True)
class StepRecord:
    alpha: float
    beta: float
    gamma: float
    tau_hat: float
    uv_defect: float
    w_drift: float
    residual_inf: float


@dataclass(frozen=True)
class LimitRunReport:
    gamma_target: float
    steps: tuple
    classification: str            # "Incomplete" | "Complete" | "Undetermined"
    final_state: SteadyState
    final_w: GridFn
    tau_star: float
    complete_tol: float
    fallback_steps: int = 0        # solved steps the (u, v) Newton took


def geometric_schedule(alpha0: float, gamma: float, n_steps: int,
                       ratio: float = 10.0) -> list[tuple[float, float]]:
    """Rate pairs (alpha_k, beta_k) with alpha growing geometrically and
    alpha/beta held at gamma.  ValidationError unless ratio > 1 and the
    pairs are finite, positive and rise strictly in both rates."""
    if n_steps > 1 and not ratio > 1.0:
        raise ValidationError(f"run.ratio must exceed 1, got {ratio}")
    try:
        last = alpha0 * ratio ** (n_steps - 1)
    except OverflowError:
        last = math.inf
    if not (math.isfinite(last) and math.isfinite(last / gamma)):
        raise ValidationError(f"the last rate pair overflows: alpha0 = {alpha0}, "
                              f"ratio = {ratio}, {n_steps} steps")
    pairs = [(alpha0 * ratio ** k, alpha0 * ratio ** k / gamma) for k in range(n_steps)]
    rising = all(a1 > a0 and b1 > b0 for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]))
    if not (pairs[0][1] > 0.0 and rising):
        raise ValidationError("the rate pairs are not positive and strictly rising: "
                              f"alpha0 = {alpha0}, gamma = {gamma}")
    return pairs


def run_sequence(base: ModelParams, schedule, seed_state: SteadyState,
                 gamma_target: float, newton_tol: float = 1e-11) -> LimitRunReport:
    """Warm-start continuation in the rates along a strictly increasing
    schedule from seed_state, which must already be solved at the first
    pair (else ValueError) and is reported as step 0; each later pair is
    solved once.  Per step computes (w_n, z_n) and the segregation
    diagnostics; w_drift is sup|w_k - w_(k-1)|, NaN at step 0.  A step
    whose w or other diagnostics are not finite floats is NotApplicable.

    Classification at the final step: Complete if the mean of z fell below
    complete_tol = 1e-3 * tau* and w changes sign; Incomplete if it
    stabilized above the threshold; Undetermined otherwise.
    """
    pairs = [(float(a), float(b)) for a, b in schedule]
    if not pairs:
        raise ValueError("empty schedule")
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        if not (a1 > a0 and b1 > b0):
            raise ValueError("schedule must be strictly increasing in both rates")
    if seed_state.params != base.with_rates(*pairs[0]):
        raise ValueError("the seed state must be solved at the first rate pair")
    cs = constant_state(base)
    complete_tol = 1e-3 * cs.tau_star

    state, records, fallback_steps, w_prev = seed_state, [], 0, None
    for k, (alpha, beta) in enumerate(pairs):
        if k:
            try:
                state, fell_back = _solve_step(base.with_rates(alpha, beta), state, newton_tol)
            except _FAILED as exc:
                raise type(exc)(f"schedule step {k} (alpha={alpha:g}, "
                                f"beta={beta:g}): {exc}") from exc
            fallback_steps += fell_back
        with np.errstate(over="ignore", invalid="ignore"):
            w, z = limits.w_z_from_uv(state.params, state.u, state.v)
            tau_hat = integrate(z) / w.grid.length
            uv_defect = float(np.max(np.abs(state.u.values * state.v.values - tau_hat)))
            drift = math.nan if w_prev is None else float(np.max(np.abs(w.values - w_prev)))
        if not np.isfinite(np.append(w.values, (tau_hat, uv_defect, drift if k else 0))).all():
            raise NotApplicable(f"schedule step {k} (alpha={alpha:g}, beta={beta:g}): "
                                "the diagnostics are not finite in floating point")
        records.append(StepRecord(alpha=alpha, beta=beta, gamma=alpha / beta,
                                  tau_hat=tau_hat, uv_defect=uv_defect,
                                  w_drift=drift, residual_inf=state.residual_inf))
        w_prev = w.values

    tau_final = records[-1].tau_hat
    changes_sign = float(np.min(w.values)) < 0.0 < float(np.max(w.values))
    if tau_final < complete_tol and changes_sign:
        classification = "Complete"
    elif tau_final >= complete_tol and _tau_stabilized(records):
        classification = "Incomplete"
    else:
        classification = "Undetermined"

    return LimitRunReport(gamma_target=gamma_target, steps=tuple(records),
                          classification=classification, final_state=state,
                          final_w=w, tau_star=cs.tau_star,
                          complete_tol=complete_tol, fallback_steps=fallback_steps)


def _solve_step(p: ModelParams, state: SteadyState, tol: float) -> tuple[SteadyState, bool]:
    """One warm-started solve at the next rate pair: (state, whether the
    (u, v) Newton solved it).  The regular form starts from the previous
    state's (w, zeta, T), zeta = alpha_prev*(uv - T) with T the mean of uv.
    """
    prod = state.u.values * state.v.values
    if float(np.min(prod)) > 1e-12 * max(float(np.max(prod)), 1.0):
        lp = LimitParams.from_model(p, gamma=p.alpha / p.beta)
        t0 = float(np.mean(prod))
        x0 = np.concatenate((limits.w_z_from_uv(p, state.u, state.v)[0].values,
                             state.params.alpha * (prod - t0), [t0]))
        try:
            _, (_, _, _, (u, v, _)), rnorm, it, _, floor = limits._eps_newton(
                lp, x0, 1.0 / p.alpha, state.grid.h, tol)
        except _FAILED:
            pass
        else:
            return steady._steady_state(p, state.grid, u, v, rnorm, floor, it), False
    return steady.newton_solve(p, state.u, state.v, tol=tol), True


def _tau_stabilized(records) -> bool:
    if len(records) < 2:
        return True
    t0, t1 = records[-2].tau_hat, records[-1].tau_hat
    return abs(t1 - t0) <= 0.2 * max(abs(t1), 1e-30)


def match_limit(report: LimitRunReport, tol: float = 1e-11) -> float:
    """Solve the matched limiting system to tol, warm-started from the final
    step, and return sup|w_N - w_limit|."""
    if report.classification == "Undetermined":
        raise ValueError("cannot match an Undetermined run")
    lp = LimitParams.from_model(report.final_state.params, gamma=report.gamma_target)
    w_n = report.final_w
    if report.classification == "Incomplete":
        sol = limits.is_newton(lp, w_n, max(report.steps[-1].tau_hat, 1e-8), tol=tol)
        return float(np.max(np.abs(w_n.values - sol.w.values)))
    sol = limits.cs_solve(lp, w_n, tol=tol)
    return float(np.max(np.abs(w_n.values - sol.w.values)))
