"""Output checks, one per command, from the written files and public API.

Each check returns (ok, note, facts); `facts` carries values the report
counts, such as the certificate verdict of a steady state.
"""

from __future__ import annotations

import math
import os

import numpy as np

from sktlab import cli, limits, steady
from sktlab.grid import Grid, GridFn
from sktlab.limits import LimitParams
from sktlab.model import ModelParams

# recomputing a residual from the 17-digit CSV repeats the solver's own
# arithmetic; allow a few ulps of the reported value
_REL = 1e-9

_MODEL_KEYS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


def read_csv(path: str) -> tuple[dict, dict]:
    """(metadata, columns) of an sktlab CSV file."""
    meta, rows, names = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, sep, val = line[2:].partition(": ")
                if sep:
                    meta[key] = val
            elif names is None:
                names = line.split(",")
            else:
                rows.append(line.split(","))
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(names)}
    return meta, cols


def _config(op) -> dict:
    """The effective configuration, defaults included, as the CLI reads it."""
    return cli.parse_config(op.config_text())


def _params(cfg: dict) -> dict:
    return {k: cfg[f"model.{k}"] for k in _MODEL_KEYS}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(abs(a), abs(b)) + 1e-300


def _check_solve(op, out):
    meta, cols = read_csv(os.path.join(out, "state.csv"))
    cfg = _config(op)
    p = ModelParams(alpha=cfg["model.alpha"], beta=cfg["model.beta"], **_params(cfg))
    g = Grid(cfg["grid.n_cells"], cfg["grid.length"])
    u, v = cols["u"], cols["v"]
    facts = {"certificate_ok": meta.get("certificate_ok")}
    if np.any(u < 0.0) or np.any(v < 0.0):
        return False, "negative density", facts
    r1, r2 = steady.residual_skt(p, GridFn(g, u), GridFn(g, v))
    res = max(float(np.max(np.abs(r1.values))), float(np.max(np.abs(r2.values))))
    if not _close(res, float(meta["residual_inf"])):
        return False, f"residual {res:.3e} != reported {meta['residual_inf']}", facts
    return True, "", facts


def _check_is_solve(op, out):
    meta, cols = read_csv(os.path.join(out, "is_state.csv"))
    cfg = _config(op)
    lp = LimitParams(gamma=cfg["model.gamma"], **_params(cfg))
    g = Grid(cfg["grid.n_cells"], cfg["grid.length"])
    if np.any(cols["u"] < 0.0) or np.any(cols["v"] < 0.0):
        return False, "negative density", {}
    s = limits.ISState(w=GridFn(g, cols["w"]), tau=float(meta["tau"]))
    fld, con = limits.is_residual(lp, s)
    res = float(np.max(np.abs(fld.values)))
    if not _close(res, float(meta["residual_inf"])):
        return False, f"residual {res:.3e} != reported {meta['residual_inf']}", {}
    if not _close(con, float(meta["constraint"])):
        return False, f"constraint {con:.3e} != reported {meta['constraint']}", {}
    return True, "", {}


def _sign_changes(w: np.ndarray) -> int:
    s = np.sign(w)
    s = s[s != 0.0]
    return int(np.sum(s[:-1] * s[1:] < 0.0))


def _check_segregated(path: str, n_nodes: int):
    meta, cols = read_csv(path)
    zeros = _sign_changes(cols["w"])
    if zeros != n_nodes:
        return False, f"{os.path.basename(path)}: {zeros} zeros, expected {n_nodes}"
    if np.any(cols["u"] * cols["v"] != 0.0):
        return False, f"{os.path.basename(path)}: u*v != 0 somewhere"
    return True, ""


def _check_dhmp(op, out):
    for variant in ("fg", "gf"):
        ok, note = _check_segregated(os.path.join(out, f"dhmp_{variant}.csv"),
                                     op.cfg["run.n"])
        if not ok:
            return False, note, {}
    return True, "", {}


def _check_cs_solve(op, out):
    ok, note = _check_segregated(os.path.join(out, "cs_state.csv"), op.cfg["run.n"])
    return ok, note, {}


def _check_limit_study(op, out):
    meta, _ = read_csv(os.path.join(out, "limit_study.csv"))
    if meta["classification"] == "Undetermined":
        return False, "classification Undetermined", {}
    return True, "", {}


def _check_bifurcate(op, out):
    meta, cols = read_csv(os.path.join(out, "branch.csv"))
    d1c = float(meta["delta_j_discrete"])
    if not np.any((cols["s"] == 0.0) & (cols["d1"] == d1c)):
        return False, "branch lacks s = 0 at delta_j_discrete", {}
    return True, "", {}


def _check_bounds(op, out):
    meta = {}
    with open(os.path.join(out, "bounds.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, sep, val = line.partition(" = ")
            if sep:
                meta[key] = val.strip()
    for key in ("u_bound", "v_bound"):
        val = float(meta[key])
        if not (math.isfinite(val) and val > 0.0):
            return False, f"{key} = {meta[key]}", {}
    return True, "", {}


CHECKS = {"solve": _check_solve, "is-solve": _check_is_solve, "dhmp": _check_dhmp,
          "cs-solve": _check_cs_solve, "limit-study": _check_limit_study,
          "bifurcate": _check_bifurcate, "bounds": _check_bounds}


def check(op, out: str):
    """Check the files an exit-0 operation wrote into `out`."""
    try:
        return CHECKS[op.command](op, out)
    except (OSError, KeyError, ValueError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", {}
