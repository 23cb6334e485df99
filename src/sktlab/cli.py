"""Batch front end: flat key=value configs, subcommands, CSV output.

Exit codes: 0 success, 2 no convergence or no solution built, 3
configuration error, 4 not applicable (the requested object provably does
not exist for the given parameters).  `_EXITS` maps every package error to
its code and stderr prefix; the README lists the cases behind each code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import bifurcation, bounds, io, limits, limitstudy, steady, twolobe
from .errors import (AssemblyError, CheckFailed, NoConvergence, NonFiniteSystem,
                     NotApplicable, TauCollapse, ValidationError)
from .grid import MIN_CELLS, Grid, GridFn, integrate, laplacian_values, neumann_eigenpair
from .limits import LimitParams
from .linalg import _FAILED
from .model import ModelParams, constant_state

_POS = "positive"
_NONNEG = "nonnegative"

# key -> (converter, constraint, default); None default means required-if-used
_KNOWN_KEYS = {
    "model.a1": (float, _POS, 5.0),
    "model.a2": (float, _POS, 3.0),
    "model.b1": (float, _POS, 0.1),
    "model.b2": (float, _POS, 1.0),
    "model.c1": (float, _POS, 1.0),
    "model.c2": (float, _POS, 0.1),
    "model.d1": (float, _POS, 1.0),
    "model.d2": (float, _POS, 0.1),
    "model.alpha": (float, _NONNEG, 100.0),
    "model.beta": (float, _NONNEG, 100.0),
    "model.gamma": (float, _POS, 1.0),
    "grid.n_cells": (int, _POS, 256),
    "grid.length": (float, _POS, 1.0),
    "run.seed": (int, _NONNEG, 42),
    "run.tol": (float, _POS, 1e-11),
    "run.eta": (float, _POS, 0.5),
    "run.mode": (int, _POS, 1),
    "run.n": (int, _POS, 1),
    "run.s_max": (float, _POS, 0.1),
    "run.ds": (float, _POS, 0.005),
    "run.alpha0": (float, _POS, 10.0),
    "run.steps": (int, _POS, 4),
    "run.ratio": (float, _POS, 10.0),
    "run.amplitude": (float, _POS, 0.1),
    "run.t_march": (float, _NONNEG, 20.0),
    "run.dt": (float, _POS, 0.1),
}

# command-line flag -> the config key it overrides, typed as in _KNOWN_KEYS
_FLAGS = {
    "--grid": "grid.n_cells",
    "--seed": "run.seed",
    "--alpha": "model.alpha",
    "--beta": "model.beta",
    "--gamma": "model.gamma",
    "--eta": "run.eta",
    "--mode": "run.mode",
    "--n": "run.n",
}

# error types -> (exit code, stderr prefix), all that main catches.  A collapsed
# tau does not prove that no state exists, so it exits 2, not 4.  linalg raises
# numpy's LinAlgError; ValueError is not caught: it would relabel solver faults.
_EXITS = {
    (ValidationError, OSError): (3, "config error"),
    (NotApplicable,): (4, "not applicable"),
    (NoConvergence,): (2, "no convergence"),
    (TauCollapse,): (2, "no convergence: tau collapse"),
    (AssemblyError,): (2, "no solution built"),
    (CheckFailed,): (2, "selftest failed"),
    (np.linalg.LinAlgError,): (2, "no convergence: singular linear system"),
    (NonFiniteSystem,): (2, "no convergence: non-finite linear system"),
}


def _checked(key: str, value):
    """value if it satisfies the constraint of key, else ValidationError."""
    _, constraint, _ = _KNOWN_KEYS[key]
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value}")
    if constraint == _POS and not value > 0:
        raise ValidationError(f"{key} must be positive, got {value}")
    if constraint == _NONNEG and value < 0:
        raise ValidationError(f"{key} must be nonnegative, got {value}")
    if key == "run.eta" and value > 1.0:
        raise ValidationError(f"{key} must be at most 1, got {value}")
    if key == "grid.n_cells" and value < MIN_CELLS:
        raise ValidationError(f"{key} must be at least {MIN_CELLS}, got {value}")
    return value


def parse_config(text: str) -> dict:
    """Flat `key = value` lines, `#` comments; unknown keys are an error."""
    cfg = {k: v[2] for k, v in _KNOWN_KEYS.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        try:
            value = _KNOWN_KEYS[key][0](val)
        except ValueError:
            raise ValidationError(f"line {lineno}: cannot parse {val!r} for {key}") from None
        cfg[key] = _checked(key, value)
    return cfg


def _model(cfg: dict) -> ModelParams:
    return ModelParams(a1=cfg["model.a1"], a2=cfg["model.a2"],
                       b1=cfg["model.b1"], b2=cfg["model.b2"],
                       c1=cfg["model.c1"], c2=cfg["model.c2"],
                       d1=cfg["model.d1"], d2=cfg["model.d2"],
                       alpha=cfg["model.alpha"], beta=cfg["model.beta"])


def _limit_params(cfg: dict) -> LimitParams:
    return LimitParams.from_model(_model(cfg), gamma=cfg["model.gamma"])


def _grid(cfg: dict) -> Grid:
    """The config's grid; ValidationError where 1/h^2 is not a finite float."""
    try:
        return Grid(n_cells=cfg["grid.n_cells"], length=cfg["grid.length"])
    except ValueError as exc:
        raise ValidationError(f"grid.length: {exc}") from None


def _unit_grid(cfg: dict) -> Grid:
    """The grid of a two-lobe pattern, which twolobe tiles on the unit
    interval: ValidationError unless grid.length is 1."""
    if cfg["grid.length"] != 1.0:
        raise ValidationError("grid.length must be 1 for the two-lobe patterns, "
                              f"got {cfg['grid.length']}")
    return _grid(cfg)


def _mode(cfg: dict, g: Grid) -> int:
    """run.mode, which indexes a Neumann eigenpair of g: below its n_cells."""
    if cfg["run.mode"] >= g.n_cells:
        raise ValidationError(f"run.mode must be below grid.n_cells = {g.n_cells}, "
                              f"got {cfg['run.mode']}")
    return cfg["run.mode"]


def _march_steps(cfg: dict) -> int:
    """round(run.t_march / run.dt) >= 1 march steps; ValidationError above 10^6."""
    steps = cfg["run.t_march"] / cfg["run.dt"]
    if not steps <= 1e6:
        raise ValidationError(f"run.dt: run.t_march / run.dt = {steps:g} march steps, "
                              "more than 1e6")
    return max(1, int(round(steps)))


def _seeded_fields(p: ModelParams, g: Grid, seed: int, amplitude: float):
    """Constant coexistence state plus a seeded low-mode cosine perturbation;
    ValidationError where a seeded density is not a finite float."""
    cs = constant_state(p)
    rng = np.random.default_rng(seed)
    x = g.x / g.length
    pert_u = np.zeros(g.n_cells)
    pert_v = np.zeros(g.n_cells)
    for k in range(1, 5):
        pert_u += rng.uniform(-1, 1) / k * np.cos(k * math.pi * x)
        pert_v += rng.uniform(-1, 1) / k * np.cos(k * math.pi * x)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.maximum(cs.u_star * (1.0 + amplitude * pert_u), 1e-8)
        v = np.maximum(cs.v_star * (1.0 + amplitude * pert_v), 1e-8)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValidationError(f"run.amplitude: the seed is not finite at {amplitude!r}")
    return GridFn(g, u), GridFn(g, v)


# Each command returns {file name: (columns, metadata)}; columns None means
# a key = value metadata file.  main writes them once all are computed.

def _cmd_solve(cfg) -> dict:
    p = _model(cfg)
    g = _grid(cfg)
    u0, v0 = _seeded_fields(p, g, cfg["run.seed"], cfg["run.amplitude"])
    state = steady.solve(p, u0, v0, dt=cfg["run.dt"], steps=_march_steps(cfg),
                         tol=cfg["run.tol"])
    cert = bounds.levelset_certificate(p)
    return {"state.csv": ({"x": g.x, "u": state.u.values, "v": state.v.values},
                          {"residual_inf": state.residual_inf,
                           "residual_floor": state.residual_floor,
                           "newton_iters": state.newton_iters,
                           "march_steps": state.march_steps,
                           "march_cells": state.march_cells,
                           "constant_rate": state.constant_rate,
                           "u_max": state.u_max, "v_max": state.v_max,
                           "certificate_ok": None if cert is None
                           else cert.covers(state.u_max, state.v_max)})}


def _cmd_bounds(cfg) -> dict:
    cert = bounds.sup_bound(_model(cfg), cfg["run.eta"])
    return {"bounds.txt": (None, {"eta": cert.eta, "alpha": cert.alpha,
                                  "beta": cert.beta, "kind": cert.kind,
                                  "u_bound": cert.u_bound, "v_bound": cert.v_bound,
                                  "u_shape": cert.u_shape, "v_shape": cert.v_shape})}


def _cmd_limit_study(cfg) -> dict:
    base = _model(cfg)
    g = _grid(cfg)
    gamma = cfg["model.gamma"]
    schedule = limitstudy.geometric_schedule(cfg["run.alpha0"], gamma,
                                             cfg["run.steps"], cfg["run.ratio"])
    a0, b0 = schedule[0]
    p0 = base.with_rates(a0, b0)
    u0, v0 = _seeded_fields(p0, g, cfg["run.seed"], cfg["run.amplitude"])
    # seed with a direct Newton polish of the patterned fields, and search
    # only where it fails: marching first would hand the schedule whatever
    # attractor the dynamics picks, at strong competition an exclusion state
    try:
        seed_state = steady.newton_solve(p0, u0, v0, tol=cfg["run.tol"])
    except _FAILED:
        seed_state = steady.search(p0, u0, v0, dt=cfg["run.dt"], steps=_march_steps(cfg),
                                   tol=cfg["run.tol"])
    report = limitstudy.run_sequence(base, schedule, seed_state,
                                     gamma_target=gamma,
                                     newton_tol=cfg["run.tol"])
    meta = {"classification": report.classification,
            "gamma_target": report.gamma_target,
            "tau_star": report.tau_star,
            "complete_tol": report.complete_tol,
            "fallback_steps": report.fallback_steps}
    if report.classification != "Undetermined":
        meta["limit_comparison"] = limitstudy.match_limit(report, cfg["run.tol"])
    names = ("alpha", "beta", "gamma", "tau_hat", "uv_defect", "w_drift", "residual_inf")
    return {"limit_study.csv": ({name: [getattr(r, name) for r in report.steps]
                                 for name in names}, meta)}


def _cmd_is_solve(cfg) -> dict:
    lp = _limit_params(cfg)
    g = _grid(cfg)
    cs = constant_state(lp)
    w0c = limits.w_star(lp, cs, lp.d1)
    _, phi = neumann_eigenpair(g, _mode(cfg, g))
    amplitude = cfg["run.amplitude"]
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = w0c + amplitude * phi.values
    if not np.all(np.isfinite(w0)):
        raise ValidationError(f"run.amplitude: the start is not finite at {amplitude!r}")
    sol = limits.is_newton(lp, GridFn(g, w0), cs.tau_star, tol=cfg["run.tol"])
    u, v = sol.densities(lp)
    return {"is_state.csv": ({"x": g.x, "w": sol.w.values, "u": u.values, "v": v.values},
                             {"tau": sol.tau, "residual_inf": sol.residual_inf,
                              "newton_iters": sol.newton_iters,
                              "constraint": sol.constraint})}


def _cmd_cs_solve(cfg) -> dict:
    lp = _limit_params(cfg)
    g = _unit_grid(cfg)
    n = cfg["run.n"]
    lobe = twolobe.solve_unit(lp, n)
    start = twolobe.assemble(lobe, lp, "fg", g)
    sol = limits.cs_solve(lp, start.w, tol=cfg["run.tol"])
    u, v = sol.densities(lp)
    return {"cs_state.csv": ({"x": g.x, "w": sol.w.values, "u": u.values, "v": v.values},
                             {"residual_inf": sol.residual_inf, "n": n})}


def _cmd_bifurcate(cfg) -> dict:
    lp = _limit_params(cfg)
    g = _grid(cfg)
    j = _mode(cfg, g)
    d1c = bifurcation.delta_j(lp, j, g.length)
    # the discrete threshold lies above d1c (lambda_j^h < lambda_j), at any mode
    bp = bifurcation.detect_crossing(lp, j, g)
    branch = bifurcation.switch_and_continue(lp, bp, s_max=cfg["run.s_max"],
                                             ds=cfg["run.ds"], tol=cfg["run.tol"])
    pts = branch.points
    return {"branch.csv": ({"s": [pt.s for pt in pts],
                            "d1": [pt.d1 for pt in pts],
                            "tau": [pt.tau for pt in pts],
                            "w_min": [float(np.min(pt.w.values)) for pt in pts],
                            "w_max": [float(np.max(pt.w.values)) for pt in pts],
                            "arclength": [pt.arclength for pt in pts],
                            "newton_iters": [pt.newton_iters for pt in pts]},
                           {"mode": j, "delta_j_closed": d1c,
                            "delta_j_discrete": bp.delta_j,
                            "lambda_j_discrete": bp.lambda_j,
                            "truncated": branch.truncated,
                            "end_reason": branch.end_reason,
                            "fold": branch.fold, "mirrored": branch.mirrored,
                            "corrector_iters": sum(pt.newton_iters for pt in pts)})}


def _cmd_dhmp(cfg) -> dict:
    lp = _limit_params(cfg)
    g = _unit_grid(cfg)
    n = cfg["run.n"]
    lobe = twolobe.solve_unit(lp, n)
    files = {}
    for variant in ("fg", "gf"):
        sol = twolobe.assemble(lobe, lp, variant, g)
        u, v = limits.CSState(sol.w).densities(lp)
        files[f"dhmp_{variant}.csv"] = (
            {"x": g.x, "w": sol.w.values, "u": u.values, "v": v.values},
            {"n": n, "variant": sol.variant, "theta_n": lobe.theta,
             "flux": lobe.flux_u, "zero_count": sol.zero_count,
             "cs_residual": sol.cs_residual})
    return files


def _require(what: str, value: float, bound: float):
    """CheckFailed (exit 2) unless value < bound or both are 0 (an error
    that is exactly 0 where the allowance underflowed); NaN fails."""
    if not (value < bound or value == bound == 0.0):
        raise CheckFailed(f"{what}: {value:.3g} is not below {bound:.3g}")


def _cmd_selftest(cfg) -> dict:
    g = Grid(64)
    lam, phi = neumann_eigenpair(g, 3)
    eig_err = float(np.max(np.abs(laplacian_values(phi.values, g.h) + lam * phi.values)))
    _require("discrete eigenpair identity", eig_err, 1e-10 * lam)
    _require("eigenfunction quadrature", abs(integrate(phi)), 1e-12)

    p = _model(cfg)
    cs = constant_state(p)
    u0 = GridFn(g, np.full(g.n_cells, cs.u_star))
    v0 = GridFn(g, np.full(g.n_cells, cs.v_star))
    # one sup over both fields, so that inf or NaN in either fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.max(np.abs([r.values for r in steady.residual_skt(p, u0, v0)])))
    _require("constant-state residual", res, 1e-9)

    lp = _limit_params(cfg)
    w, tau = np.full(g.n_cells, limits.w_star(lp, cs, lp.d1)), cs.tau_star
    # u v - tau is the rounding of the inversion: with S^2 = w^2 + 4 gamma
    # d1 d2 tau, (S - w) loses digits when w^2 >> 4 gamma d1 d2 tau, and to
    # first order |u v - tau| <= 5.5 eps S^2 / (4 gamma d1 d2); allow 8 eps.
    # Where S^2 or the allowance overflows, the check fails on inf or NaN.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, v = limits.uv_from_w_tau(lp, w, tau)
        prod_err = float(np.max(np.abs(u * v - tau)))
        prod_tol = 8.0 * np.finfo(float).eps * (
            tau + w[0] * w[0] / (4.0 * lp.gamma * lp.d1 * lp.d2))
    _require("product identity", prod_err, prod_tol)

    print("selftest: ok")
    return {"selftest.csv": ({"check": ["eigenpair_identity", "eigenfunction_mean",
                                        "constant_state_residual", "product_identity"],
                              "value": [eig_err, float(abs(integrate(phi))), res,
                                        prod_err]},
                             None)}


_COMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "limit-study": _cmd_limit_study,
    "is-solve": _cmd_is_solve,
    "cs-solve": _cmd_cs_solve,
    "bifurcate": _cmd_bifurcate,
    "dhmp": _cmd_dhmp,
    "selftest": _cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it;
    parse_args keeps no state between calls."""
    parser = _Parser(prog="sktlab",
                     description="Stationary cross-diffusion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="path to key=value config")
        sp.add_argument("--out", default=None, help="output directory")
        for flag, key in _FLAGS.items():
            sp.add_argument(flag, type=_KNOWN_KEYS[key][0], help=f"overrides {key}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = parse_config("")
        for flag, key in _FLAGS.items():
            if (value := getattr(args, flag[2:])) is not None:
                cfg[key] = _checked(key, value)
        files = _COMMANDS[args.command](cfg)
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        for name, (columns, meta) in files.items():
            path = os.path.join(out, name)
            if columns is None:
                io.write_metadata(path, args.command, cfg, meta)
            else:
                io.write_csv(path, columns, args.command, cfg, metadata=meta)
        return 0
    except tuple(t for types in _EXITS for t in types) as exc:
        code, prefix = next(v for types, v in _EXITS.items() if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
