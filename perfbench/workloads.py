"""Seeded operation generators for the three workloads.

An operation is one `sktlab <command> --config FILE` call on a generated
config.  A workload's batch is a whole number of passes; each pass has a
fixed composition (which commands, on which grids) and draws only the
continuous inputs from the seed, stratified across the grids of the pass,
so the cost of a batch barely depends on the seed.  `plan` sizes the batch
and the number of times it is repeated from the run length and a
per-workload pass time measured once on the reference machine, so the
batch is the same on every commit and a faster program finishes it sooner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

GRIDS = (256, 1024, 4096)

# parameter sets of the test suite: P1 is strong competition (the march
# ends on the exclusion state u = a1/b1), PW weak competition (coexistence)
P1 = dict(a1=5.0, a2=3.0, b1=0.1, b2=1.0, c1=1.0, c2=0.1, d1=1.0, d2=0.1)
PW = dict(a1=3.0, a2=5.0, b1=1.0, b2=0.1, c1=0.1, c2=1.0, d1=1.0, d2=0.1)
# symmetric kinetics a = b = c = 1 for the complete-segregation family
SYM = dict(a1=1.0, a2=1.0, b1=1.0, b2=1.0, c1=1.0, c2=1.0)
# closed-form first bifurcation threshold delta_1 of P1 at gamma = 1
DELTA1_P1 = 0.6580216489505262

# seconds one pass takes at the commit that defined the benchmark
# (single thread, Intel Xeon, 2 vCPUs); fixes the batch size per run length
PASS_SECONDS = {"steady": 15.0, "limits": 0.37, "patterns": 0.85}

WORKLOADS = tuple(PASS_SECONDS)


@dataclass(frozen=True)
class Op:
    command: str
    n: int
    cfg: dict = field(hash=False)
    expect_exit: int | None = None     # set when only one exit code is right

    def config_text(self) -> str:
        lines = []
        for key, val in self.cfg.items():
            lines.append(f"{key} = {format(val, '.17g') if isinstance(val, float) else val}")
        return "\n".join(lines) + "\n"


def _model(params: dict, **extra) -> dict:
    cfg = {f"model.{k}": float(v) for k, v in params.items()}
    cfg.update(extra)
    return cfg


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _in_slice(rng: random.Random, lo: float, hi: float, i: int, k: int = 3) -> float:
    """A draw from the i-th of k equal slices of [lo, hi]."""
    return lo + (hi - lo) * (i + rng.random()) / k


def _strata(rng: random.Random, lo: float, hi: float, index: int, log: bool = False):
    """One draw per grid, each from its own third of [lo, hi]; which grid
    gets which third rotates with the pass index, so over a batch every grid
    sees every third about equally often."""
    if log:
        return [math.exp(v) for v in _strata(rng, math.log(lo), math.log(hi), index)]
    return [_in_slice(rng, lo, hi, (i + index) % 3) for i in range(len(GRIDS))]


def _steady_pass(rng: random.Random, index: int) -> list[Op]:
    # one solve per grid; the parameter set alternates along the grids and
    # between passes, so every pass holds both attractor kinds and a pass's
    # cost does not depend on the seed
    ops = []
    for i, n in enumerate(GRIDS):
        params = (P1, PW)[(i + index) % 2]
        alpha = _log_uniform(rng, 10.0, 1e3)
        ratio = _log_uniform(rng, 0.5, 2.0)              # alpha / beta
        ops.append(Op("solve", n, _model(params, **{
            "model.alpha": alpha, "model.beta": alpha / ratio, "grid.n_cells": n,
            "run.seed": rng.randrange(2 ** 31)})))
    return ops


def _limits_pass(rng: random.Random, index: int) -> list[Op]:
    s_max = {mode: _strata(rng, 0.1, 1.0, index + mode) for mode in (1, 2)}
    amp = {side: _strata(rng, 0.1, 10.0, index + j, log=True)
           for j, side in enumerate(("below", "above"))}
    ops = []
    for i, n in enumerate(GRIDS):
        for mode in (1, 2):
            ops.append(Op("bifurcate", n, _model(P1, **{
                "grid.n_cells": n, "run.mode": mode, "run.s_max": s_max[mode][i],
                "run.ds": rng.uniform(0.002, 0.01)})))
        # d1 on both sides of the threshold; the start amplitude decides
        # whether bordered Newton reaches a state or tau collapses
        for side, lo, hi in (("below", 0.5, 1.0), ("above", 1.0, 1.5)):
            ops.append(Op("is-solve", n, _model(P1, **{
                "grid.n_cells": n, "model.d1": DELTA1_P1 * rng.uniform(lo, hi),
                "run.amplitude": amp[side][i]})))
        ops.append(Op("limit-study", n, _model(P1, **{
            "grid.n_cells": n, "run.alpha0": _log_uniform(rng, 10.0, 1e3),
            "run.steps": rng.randint(3, 5), "model.gamma": _log_uniform(rng, 0.5, 2.0)})))
        alpha = _log_uniform(rng, 10.0, 1e3)
        ops.append(Op("bounds", n, _model(P1, **{
            "grid.n_cells": n, "model.alpha": alpha,
            "model.beta": alpha / _log_uniform(rng, 0.5, 2.0)})))
    return ops


def _sym_diffusion(rng: random.Random, f_third: int, share_third: int):
    """(d1, d2, n_max) with n = 1, 2, 3 existing.

    sqrt(d1) + sqrt(d2) is a fraction f in [0.5, 0.95] of the n = 3 cutoff
    2/(3 pi), drawn from the given third of that range, and sqrt(d1) takes a
    share in [0.3, 0.7] of it, also from the given third.  n_max is the
    largest n that exists.
    """
    s = _in_slice(rng, 0.5, 0.95, f_third) * 2.0 / (3.0 * math.pi)
    share = _in_slice(rng, 0.3, 0.7, share_third)
    n_max = math.ceil(2.0 / (math.pi * s)) - 1
    return (share * s) ** 2, ((1.0 - share) * s) ** 2, n_max


def _patterns_pass(rng: random.Random, index: int) -> list[Op]:
    k = len(GRIDS)
    ops = []
    for i, n in enumerate(GRIDS):
        for c, cmd in enumerate(("dhmp", "cs-solve")):
            # node counts rotate over the grids; whether a solve converges
            # depends on (f, share), so each node count visits the nine cells
            # of that range in turn over passes
            j = (i + index + c) % 3 + 1
            d1, d2, _ = _sym_diffusion(rng, (index + j) % 3, (index // 3 + j) % 3)
            ops.append(Op(cmd, n, _model(SYM, **{
                "model.d1": d1, "model.d2": d2, "grid.n_cells": n, "run.n": j})))
    # P1 at n = 1, cycling through commands and grids
    grid = GRIDS[index % k]
    ops.append(Op(("dhmp", "cs-solve")[index % 2], grid,
                  _model(P1, **{"grid.n_cells": grid, "run.n": 1})))
    # one node count past the existence cutoff: must exit 4
    d1, d2, n_max = _sym_diffusion(rng, rng.randrange(3), rng.randrange(3))
    grid = GRIDS[(index + 1) % k]
    ops.append(Op(("cs-solve", "dhmp")[index % 2], grid, _model(SYM, **{
        "model.d1": d1, "model.d2": d2, "grid.n_cells": grid, "run.n": n_max + 1}),
        expect_exit=4))
    return ops


def plan(workload: str, seconds: float) -> tuple[int, int]:
    """(passes per batch, repetitions of the batch) for a run of the given
    length: a batch of about a quarter of the run, at least one pass, run at
    least twice."""
    passes = max(1, round(seconds / 4.0 / PASS_SECONDS[workload]))
    return passes, max(2, round(seconds / (passes * PASS_SECONDS[workload])))


def batch(workload: str, seed: int, passes: int) -> list[Op]:
    """The fixed, seeded batch of the given number of passes."""
    rng = random.Random(seed)
    ops = []
    for index in range(passes):
        if workload == "steady":
            ops += _steady_pass(rng, index)
        elif workload == "limits":
            ops += _limits_pass(rng, index)
        else:
            ops += _patterns_pass(rng, index)
    return ops
