import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import sktlab
from sktlab import cli, errors, limits, steady, twolobe
from sktlab.cli import main, parse_config
from sktlab.errors import AssemblyError, NoConvergence, ValidationError
from sktlab.grid import Grid, GridFn, neumann_eigenpair
from sktlab.linalg import residual_floor
from sktlab.model import constant_state

from conftest import PW, TANGENCY, WEAK


def run_python(args, cwd):
    # the child runs in cwd, where a relative PYTHONPATH (such as "src")
    # does not resolve; put the directory of the imported package first
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(sktlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args, cwd):
    return run_python(["-m", "sktlab.cli"] + args, cwd)


# in-process invocations for speed; subprocess only where the exit code
# of the installed entry point itself is under test

def test_parse_config_defaults_and_overrides():
    cfg = parse_config("model.alpha = 50\n# comment\nrun.seed = 7\n")
    assert cfg["model.alpha"] == 50.0
    assert cfg["run.seed"] == 7
    assert cfg["model.a1"] == 5.0  # untouched default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValidationError):
        parse_config("model.zeta = 1\n")


def test_parse_config_rejects_garbage():
    with pytest.raises(ValidationError, match="line 1: expected 'key = value'"):
        parse_config("model.alpha\n")
    with pytest.raises(ValidationError, match="line 1: cannot parse 'abc' for model.alpha"):
        parse_config("model.alpha = abc\n")
    with pytest.raises(ValidationError):
        parse_config("model.a1 = -3\n")


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    assert main(["selftest", "--config", str(bad)]) == 3
    assert main(["selftest", "--config", str(tmp_path / "missing.cfg")]) == 3


def test_exit_code_unknown_command():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 3


def test_exit_code_threshold_failure(tmp_path):
    # no 4-node profile exists for these diffusion lengths
    assert main(["dhmp", "--n", "4", "--out", str(tmp_path)]) == 4
    # weak competition has no bifurcation threshold
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("model.a1 = 3\nmodel.a2 = 5\nmodel.b1 = 1\nmodel.b2 = 0.1\n"
                   "model.c1 = 0.1\nmodel.c2 = 1\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 4


def test_exit_code_negative_state(tmp_path, monkeypatch):
    def negative(*args, **kwargs):
        raise NoConvergence("no Newton step stays in the nonnegative cone")

    monkeypatch.setattr(steady, "newton_solve", negative)
    assert main(["solve", "--grid", "16", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "state.csv").exists()


def test_dhmp_assembly_error_writes_no_partial_output(tmp_path, monkeypatch):
    assemble = twolobe.assemble

    def fail_second(lobe, lp, variant, g):
        if variant == "gf":
            raise AssemblyError("tiling produced 0 zeros, expected 1")
        return assemble(lobe, lp, variant, g)

    monkeypatch.setattr(twolobe, "assemble", fail_second)
    out = tmp_path / "out"
    cfg = tmp_path / "sym.cfg"
    cfg.write_text("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
                   "model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = 0.01\nmodel.d2 = 0.01\n")
    assert main(["dhmp", "--config", str(cfg), "--grid", "64", "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command", ["dhmp", "cs-solve"])
def test_singular_linear_system_exits_2(command, tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise LinAlgError("singular matrix")

    monkeypatch.setattr(twolobe, "solve_unit", singular)
    assert main([command, "--grid", "16", "--out", str(tmp_path)]) == 2
    assert "no convergence: singular linear system: singular matrix" \
        in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_value_error_is_not_relabelled(tmp_path, monkeypatch):
    def bad(*args, **kwargs):
        raise ValueError("not a solver outcome")

    monkeypatch.setattr(twolobe, "solve_unit", bad)
    with pytest.raises(ValueError):
        main(["dhmp", "--grid", "16", "--out", str(tmp_path)])


def test_selftest_and_outputs(tmp_path):
    out = tmp_path / "a"
    assert main(["selftest", "--out", str(out)]) == 0
    assert (out / "selftest.csv").exists()


def test_is_solve_csv_round(tmp_path):
    out = tmp_path / "is"
    assert main(["is-solve", "--out", str(out)]) == 0
    text = (out / "is_state.csv").read_text()
    assert text.startswith("# sktlab")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.split(",") == ["x", "w", "u", "v"]


def test_determinism_selftest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["selftest", "--out", str(a)]) == 0
    assert main(["selftest", "--out", str(b)]) == 0
    assert (a / "selftest.csv").read_bytes() == (b / "selftest.csv").read_bytes()


def test_determinism_bifurcate(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["bifurcate", "--grid", "128", "--out", str(out)]) == 0
    assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()


def test_entry_point_exit_codes(tmp_path):
    r = run_cli(["dhmp", "--n", "4", "--out", str(tmp_path)], cwd=str(tmp_path))
    assert r.returncode == 4
    assert "not applicable" in r.stderr


def test_is_solve_tau_collapse_exits_2(tmp_path, capsys):
    # P1 with d1 below delta_1 = 0.658: from a very large start amplitude
    # the bordered Newton halves a step below 2**-20 and that trial still
    # has tau below its floor
    cfg = tmp_path / "tc.cfg"
    cfg.write_text("model.d1 = 0.55\nrun.amplitude = 30\ngrid.n_cells = 64\n")
    assert main(["is-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tau collapse" in err and "last tau" in err
    assert not (tmp_path / "is_state.csv").exists()


def test_is_solve_start_below_the_collapse_floor_exits_2_at_once(tmp_path, capsys,
                                                                 monkeypatch):
    # tau* = u* v* = 1.26e-308 is positive but below limits._TAU_FLOOR: the
    # start is not admissible, so no Newton step is taken
    calls = []
    corrector = limits._is_corrector
    monkeypatch.setattr(limits, "_is_corrector",
                        lambda *a, **k: calls.append(1) or corrector(*a, **k))
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("model.a1 = 4.2136006673059524e-10\nmodel.c1 = 0.8735754586555506\n"
                   "model.c2 = 1e300\nmodel.d1 = 1.0332222161076256e-12\n"
                   "grid.n_cells = 12\nrun.amplitude = 1e-300\nrun.mode = 4\n")
    assert main(["is-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("no convergence: tau collapse: start tau is below the "
                          f"collapse floor {limits._TAU_FLOOR:g}")
    assert calls == []
    assert not (tmp_path / "is_state.csv").exists()


def test_is_solve_halves_an_overshooting_step_and_converges(tmp_path):
    # the same P1 start at a smaller amplitude: the first full Newton steps
    # overshoot to tau < 0, and the halved trials reach a nonconstant state
    cfg = tmp_path / "os.cfg"
    cfg.write_text("model.d1 = 0.5\nrun.amplitude = 10\ngrid.n_cells = 64\n")
    assert main(["is-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "is_state.csv")
    w = _columns(tmp_path / "is_state.csv")["w"]
    floor = residual_floor(Grid(64).h, float(np.max(np.abs(w))))
    assert float(meta["tau"]) == 14.277907362086978
    assert float(meta["residual_inf"]) <= max(parse_config("")["run.tol"], floor)
    assert int(meta["newton_iters"]) == 10


@pytest.mark.parametrize("key", ["model.a1", "model.alpha", "run.t_march"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_config_rejects_non_finite(key, value, tmp_path):
    # a positive key (a1) and two nonnegative ones (alpha, t_march)
    with pytest.raises(ValidationError):
        parse_config(f"{key} = {value}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_too_small_grid_and_bad_overrides_are_config_errors(tmp_path, capsys):
    with pytest.raises(ValidationError):
        parse_config("grid.n_cells = 4\n")
    assert parse_config("grid.n_cells = 8\n")["grid.n_cells"] == 8
    # command-line overrides pass the same checks as config values
    assert main(["is-solve", "--grid", "4", "--out", str(tmp_path)]) == 3
    assert main(["bounds", "--alpha", "nan", "--out", str(tmp_path)]) == 3
    # a nonnegative key below 0, in a config and as a flag
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("run.seed = -1\n")
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert main(["bounds", "--alpha", "-1", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "config error: run.seed must be nonnegative, got -1",
        "config error: model.alpha must be nonnegative, got -1.0"]


def test_cached_parser_leaks_no_state(tmp_path):
    # two in-process calls share one parser; each must write what a fresh
    # process writes for the same arguments
    calls = [("bounds", ["bounds", "--eta", "0.3"], "bounds.txt"),
             ("bifurcate", ["bifurcate", "--mode", "2", "--grid", "64"], "branch.csv")]
    for name, argv, _ in calls:
        assert main(argv + ["--out", str(tmp_path / "inproc" / name)]) == 0
    for name, argv, _ in calls:
        r = run_cli(argv + ["--out", str(tmp_path / "fresh" / name)], cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
    for name, _, fname in calls:
        assert (tmp_path / "inproc" / name / fname).read_bytes() \
            == (tmp_path / "fresh" / name / fname).read_bytes()


def _metadata(path):
    return dict(line[2:].split(": ", 1) for line in path.read_text().splitlines()
                if line.startswith("# ") and ": " in line)


def _columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]
    return {name: np.array([float(r[i]) for r in rows[1:]])
            for i, name in enumerate(rows[0])}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("mode, s_max", [(1, 0.5), (2, 0.45)])
def test_bifurcate_branch_is_ordered_and_admissible(mode, s_max, n, tmp_path):
    cfg = tmp_path / "br.cfg"
    cfg.write_text(f"run.mode = {mode}\nrun.s_max = {s_max}\ngrid.n_cells = {n}\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "branch.csv")
    cols = _columns(tmp_path / "branch.csv")
    s, arc, iters = cols["s"], np.abs(cols["arclength"]), cols["newton_iters"]
    assert np.all(cols["d1"] > 0.0) and np.all(cols["tau"] > 0.0)
    assert np.all(np.diff(s) > 0.0)
    (zero,) = np.flatnonzero(s == 0.0)
    assert cols["d1"][zero] == float(meta["delta_j_discrete"])
    assert np.all(np.diff(arc[zero:]) > 0.0) and np.all(np.diff(arc[:zero + 1]) < 0.0)
    assert iters[zero] == 0 and int(meta["corrector_iters"]) == iters.sum()


def test_solve_reports_the_residual_floor(tmp_path):
    # the weak-competition state at n = 256 stops on the rounding floor of
    # the 1/h^2 stencil, above run.tol; the metadata shows which bound held
    cfg = tmp_path / "pw.cfg"
    cfg.write_text("".join(f"model.{k} = {v}\n" for k, v in PW.items())
                   + "grid.n_cells = 256\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "state.csv")
    tol = parse_config("")["run.tol"]
    residual, floor = float(meta["residual_inf"]), float(meta["residual_floor"])
    assert tol < residual <= max(tol, floor)


def test_is_solve_reports_its_newton_iterations(p1_limit, tmp_path):
    # the defaults are P1 at gamma = 1: the same solve as a direct is_newton
    assert main(["is-solve", "--grid", "64", "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "is_state.csv")
    cfg = parse_config("")
    g = Grid(64)
    _, phi = neumann_eigenpair(g, cfg["run.mode"])
    w0 = GridFn(g, limits.w_star(p1_limit, p1_limit.d1) + cfg["run.amplitude"] * phi.values)
    sol = limits.is_newton(p1_limit, w0, constant_state(p1_limit).tau_star,
                           tol=cfg["run.tol"])
    assert float(meta["tau"]) == sol.tau
    assert sol.newton_iters > 0 and int(meta["newton_iters"]) == sol.newton_iters


def test_bifurcate_ends_a_branch_where_the_predictor_leaves_the_cone(tmp_path):
    # on P1 the mode-2 branch runs d1 -> 0 near s = 0.49; the branch
    # predictor crosses d1 = 0 before s_max = 0.8 is reached, and the branch
    # ends at its last corrected point
    cfg = tmp_path / "m2.cfg"
    cfg.write_text("run.mode = 2\nrun.s_max = 0.8\ngrid.n_cells = 256\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "branch.csv")
    cols = _columns(tmp_path / "branch.csv")
    assert meta["end_reason"] == "predictor" and meta["truncated"] == "False"
    assert np.all(cols["d1"] > 0.0) and np.all(cols["tau"] > 0.0)
    assert np.max(np.abs(cols["s"])) < 0.8
    (zero,) = np.flatnonzero(cols["s"] == 0.0)
    assert cols["d1"][zero] == float(meta["delta_j_discrete"])


def test_bifurcate_ends_a_side_on_its_point_budget(tmp_path):
    # the correctors converge, but in steps of ~1e-2 ds down to 5e-5 ds:
    # unbounded, the branch takes ~17 000 points; the side ends at s ~ 0.1
    # once it holds 4 s_max/ds = 45.6 of them
    s_max, ds = 0.38431798699613157, 0.0337216460441377
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model.d2 = 1.7942933845021284e-06\nmodel.alpha = 1e300\n"
                   "model.beta = 4.3049279570800596e-11\ngrid.n_cells = 111\n"
                   f"run.mode = 3\nrun.s_max = {s_max!r}\nrun.ds = {ds!r}\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "branch.csv")
    cols = _columns(tmp_path / "branch.csv")
    assert meta["end_reason"] == "budget" and meta["truncated"] == "True"
    assert meta["mirrored"] == "True" and len(cols["s"]) == 2 * 46 + 1
    assert np.max(np.abs(cols["s"])) < s_max


@pytest.mark.filterwarnings("error")
def test_bifurcate_with_no_corrected_point_exits_2(tmp_path, capsys):
    # the corrector fails at the first step of both sides at every step
    # size down to 1e-6 ds: no branch is traced, and no branch.csv holding
    # the constant state alone is written
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model.c1 = 15.762411364014845\nmodel.gamma = 1.1436017733884874e-11\n"
                   "grid.n_cells = 51\nrun.mode = 2\nrun.s_max = 0.4953983716355266\n"
                   "run.ds = 0.0025085410671406355\n")
    out = tmp_path / "out"
    assert main(["bifurcate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "no convergence: no corrected branch point on either side"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["is-solve", "bifurcate"])
def test_mode_outside_the_grid_is_config_error(command, tmp_path, capsys):
    for mode in ("400", "256"):
        argv = [command, "--mode", mode, "--grid", "256", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert "run.mode must be below grid.n_cells" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("line", ["run.steps = 400", "run.ratio = 1e200",
                                  "run.ratio = 0.5",
                                  pytest.param("run.alpha0 = 1e-300\nmodel.gamma = 1e300",
                                               id="beta-underflows")])
def test_limit_study_bad_schedule_is_config_error(line, tmp_path):
    cfg = tmp_path / "ls.cfg"
    cfg.write_text(line + "\ngrid.n_cells = 64\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "limit_study.csv").exists()


def test_limit_study_match_that_stalls_at_rounding_level_exits_0(tmp_path):
    # the matched incomplete-segregation solve holds its correction at
    # ~2 200 ulps of w over its last iterations, just above the residual
    # test; the stall is at rounding level, so the solve has converged
    cfg = tmp_path / "st.cfg"
    cfg.write_text("model.d2 = 1.2717493191102978e-05\ngrid.n_cells = 13\nrun.steps = 1\n"
                   "run.alpha0 = 56.52043974277678\nrun.amplitude = 0.7147564613041372\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "limit_study.csv")
    assert meta["classification"] == "Incomplete"
    assert float(meta["limit_comparison"]) < 1e-12


def test_a_nan_level_set_root_is_not_applicable(tmp_path, capsys):
    # U(v) has NaN coefficients at c1 = 1e300, a2 = 1e-300: bounds has no
    # certificate to give (exit 4), and solve writes its state uncertified
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("model.c1 = 1e300\nmodel.a2 = 1e-300\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert "a level-set root is NaN" in capsys.readouterr().err
    assert main(["solve", "--config", str(cfg), "--grid", "64", "--out", str(tmp_path)]) == 0
    assert _metadata(tmp_path / "state.csv")["certificate_ok"] == "None"


@pytest.mark.parametrize("command, length, code", [
    ("solve", 1e-300, 3), ("is-solve", 1e-200, 3), ("limit-study", 1e-300, 3),
    ("bifurcate", 1e-200, 3), ("bifurcate", 1e-160, 3), ("bifurcate", 1e300, 4)])
def test_grid_length_extremes_exit_documented_codes(command, length, code, tmp_path):
    # 1/h^2 not a finite float is a config error; at L = 1e300 the
    # eigenvalue underflows to 0 and no threshold exists
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"grid.length = {length!r}\n")
    argv = [command, "--grid", "8", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == code


@pytest.mark.parametrize("length", [0.5, 2.0])
@pytest.mark.parametrize("command", ["dhmp", "cs-solve"])
def test_two_lobe_patterns_need_the_unit_interval(command, length, tmp_path, capsys):
    # twolobe tiles [0, 1]; on another length the tiling once failed as
    # "no solution built" (exit 2) instead of a config error
    cfg = tmp_path / "len.cfg"
    cfg.write_text("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
                   "model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = 0.004\nmodel.d2 = 0.004\n"
                   f"grid.length = {length!r}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--n", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("config error: grid.length must be 1 for the "
                                       f"two-lobe patterns, got {length!r}\n")
    assert not out.exists()


def test_bounds_at_the_tangency_edge_is_certified(tmp_path):
    # PW at a float next to its upper tangency rate, where F(0, .) touches
    # 0: its discriminant is just negative, so v_tilde0 is 0 and a level-set
    # certificate is given
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("".join(f"model.{k} = {v!r}\n" for k, v in PW.items())
                   + "model.alpha = 0.043908902300206644\n"
                   "model.beta = 0.043908902300206644\nrun.eta = 0.04\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "bounds.txt").read_text().splitlines() if " = " in line)
    assert meta["kind"] == "levelset"
    assert float(meta["u_bound"]) == pytest.approx(24.250138650247905, rel=1e-14)


@pytest.mark.parametrize("dt", [5e-324, 1e-300])
@pytest.mark.parametrize("command, lines", [
    ("solve", ""),
    # PW's constant state is stable: solve runs Newton first and never marches
    ("solve", "".join(f"model.{k} = {v!r}\n" for k, v in PW.items())),
    # the seed polish leaves the nonnegative cone, so the march fallback runs
    ("limit-study", "run.amplitude = 10\nrun.alpha0 = 10\n")],
    ids=["solve", "solve-PW", "limit-study"])
def test_a_march_above_the_step_ceiling_is_config_error(command, lines, dt, tmp_path,
                                                        monkeypatch, capsys):
    # t_march/dt = inf (5e-324) or 2e301 (1e-300) march steps: rejected
    # before any step runs, not an OverflowError or an endless march
    def no_step(*args, **kwargs):
        raise AssertionError("a march step ran")

    monkeypatch.setattr(steady, "solve_tridiag", no_step)
    cfg = tmp_path / "dt.cfg"
    cfg.write_text(f"{lines}run.dt = {dt!r}\ngrid.n_cells = 64\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: run.dt: ")
    assert not out.exists()


def _newton_spy(monkeypatch):
    """(caller, "ok" or the NoConvergence message) of each newton_solve call."""
    calls = []
    newton_solve = steady.newton_solve

    def spy(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        try:
            state = newton_solve(*args, **kwargs)
        except NoConvergence as exc:
            calls.append((caller, str(exc)))
            raise
        calls.append((caller, "ok"))
        return state

    monkeypatch.setattr(steady, "newton_solve", spy)
    return calls


def test_limit_study_of_an_exclusion_seed_is_undetermined(tmp_path, monkeypatch):
    # P1 from a large seed amplitude: the seed polish leaves the nonnegative
    # cone, the march reaches the exclusion state u = a1/b1, v = 0, and each
    # schedule step after that seed, with u*v = 0, is solved by the direct
    # Newton
    calls = _newton_spy(monkeypatch)
    cfg = tmp_path / "ex.cfg"
    cfg.write_text("run.amplitude = 10\nrun.alpha0 = 10\ngrid.n_cells = 64\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "limit_study.csv")
    assert meta["classification"] == "Undetermined"
    assert "limit_comparison" not in meta
    assert calls[:2] == [("_cmd_limit_study", "no Newton step stays in the nonnegative cone"),
                         ("search", "ok")]
    steps = parse_config("")["run.steps"]
    assert calls[2:] == [("_solve_step", "ok")] * (steps - 1)
    assert meta["fallback_steps"] == str(steps - 1)


@pytest.mark.parametrize("n_cells", [256, 1024])
def test_limit_study_seed_runs_one_failed_newton(n_cells, tmp_path, monkeypatch):
    # the seed's fallback is search, which marches at once: it does not
    # repeat the seed's failed Newton from the same fields
    calls = _newton_spy(monkeypatch)
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("".join(f"model.{k} = {v!r}\n" for k, v in WEAK.items())
                   + "run.seed = 5\nrun.amplitude = 3\nrun.alpha0 = 10\n"
                   f"grid.n_cells = {n_cells}\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    failed = [call for call in calls if call[1] != "ok"]
    assert failed == [("_cmd_limit_study", "no Newton step stays in the nonnegative cone")]
    assert calls[:2] == [failed[0], ("search", "ok")]


def test_limit_study_matches_its_limit_at_run_tol(tmp_path, monkeypatch):
    # the matched is-solve of an Incomplete run stops at run.tol
    tols = []
    is_newton = limits.is_newton

    def spy(*args, tol=1e-11, **kwargs):
        tols.append(tol)
        return is_newton(*args, tol=tol, **kwargs)

    monkeypatch.setattr(limits, "is_newton", spy)
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("run.tol = 1e-9\ngrid.n_cells = 64\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _metadata(tmp_path / "limit_study.csv")["classification"] == "Incomplete"
    assert tols == [1e-9]


def test_limit_study_reaches_complete_from_the_command_line(tmp_path):
    # a fuzzed set whose three full-system steps, each solved in the regular
    # form, take the mean product from 3.37 to 0.297, below 1e-3 tau* = 2.83,
    # while w changes sign
    cfg = tmp_path / "cx.cfg"
    cfg.write_text("model.a1 = 0.7929303198688983\nmodel.b1 = 0.0555975974002565\n"
                   "model.c1 = 0.0006105690692569763\nmodel.c2 = 0.00029727420370706737\n"
                   "model.d2 = 0.1023088736755067\nmodel.gamma = 408.1048424779626\n"
                   "grid.n_cells = 79\nrun.amplitude = 10.56874764838156\n"
                   "run.alpha0 = 6.318752938211626\nrun.steps = 3\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "limit_study.csv")
    assert meta["classification"] == "Complete" and meta["fallback_steps"] == "0"
    tau_hat = _columns(tmp_path / "limit_study.csv")["tau_hat"]
    assert np.all(np.diff(tau_hat) < 0.0) and tau_hat[-1] < float(meta["complete_tol"])
    assert np.isfinite(float(meta["limit_comparison"]))


def test_limit_study_seed_fallback_above_256_cells_marches_on_256(tmp_path, monkeypatch):
    # the exclusion seed at n = 1024: the seed's fallback is search, whose
    # march settles on 256 cells and is polished at n onto u = a1/b1, v = 0
    bands, seeds = [], []
    solve_tridiag, search = steady.solve_tridiag, steady.search

    def band_spy(ab, rhs, overwrite_rhs=False):
        bands.append(ab.shape)
        return solve_tridiag(ab, rhs, overwrite_rhs)

    def search_spy(*args, **kwargs):
        seeds.append(search(*args, **kwargs))
        return seeds[-1]

    monkeypatch.setattr(steady, "solve_tridiag", band_spy)
    monkeypatch.setattr(steady, "search", search_spy)
    cfg = tmp_path / "ex.cfg"
    cfg.write_text("run.amplitude = 10\nrun.alpha0 = 10\ngrid.n_cells = 1024\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _metadata(tmp_path / "limit_study.csv")["classification"] == "Undetermined"
    [seed] = seeds
    assert seed.grid.n_cells == 1024 and seed.march_cells == 256
    assert bands and bands == [(3, 512)] * seed.march_steps
    a1_b1 = seed.params.a1 / seed.params.b1
    assert np.max(np.abs(seed.u.values - a1_b1)) < 1e-8
    assert seed.v_max < 1e-8


def test_bifurcate_threshold_far_from_the_continuum_one(tmp_path):
    # at mode 250 of 256 cells the discrete threshold is ~2.4x the continuum
    # one, outside the old (0.5, 2) * delta_j window; the branch is traced
    cfg = tmp_path / "hi.cfg"
    cfg.write_text("model.d2 = 1e-9\nrun.mode = 250\ngrid.n_cells = 256\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _metadata(tmp_path / "branch.csv")
    assert float(meta["delta_j_discrete"]) > 2.0 * float(meta["delta_j_closed"])


def test_eta_above_one_is_config_error(tmp_path, capsys):
    assert main(["bounds", "--eta", "5", "--out", str(tmp_path / "five")]) == 3
    assert "run.eta must be at most 1" in capsys.readouterr().err
    assert not (tmp_path / "five").exists()
    assert main(["bounds", "--eta", "1", "--out", str(tmp_path / "one")]) == 0


@pytest.mark.parametrize("command, line", [("is-solve", "run.amplitude = 1e200"),
                                           ("is-solve", "run.amplitude = 1e300"),
                                           ("solve", "model.alpha = 1e308"),
                                           ("limit-study", "run.alpha0 = 1e305"),
                                           ("limit-study", "run.alpha0 = 1e305\n"
                                                           "run.steps = 1")])
@pytest.mark.filterwarnings("error")
def test_non_finite_linear_system_exits_2(command, line, tmp_path, capsys):
    # the start, the first march step or the first Jacobian overflows to
    # inf before a banded solve, which rejects it; the overflow itself
    # prints no numpy warning
    cfg = tmp_path / "nf.cfg"
    cfg.write_text(line + "\ngrid.n_cells = 64\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("no convergence: non-finite linear system")
    assert not out.exists()


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # scipy.interpolate costs ~0.4 s of import time and ~22 MB; no command
    # needs it, the pattern commands included, since the lobe inverse is
    # twolobe's own numpy cubic Hermite
    r = run_python(["-c", "import sys, sktlab.cli; "
                    "print('scipy.interpolate' in sys.modules, end=' '); "
                    "print(*(sktlab.cli.main([c, '--grid', '64', '--out', 'out']) "
                    "for c in ('dhmp', 'cs-solve')), end=' '); "
                    "print('scipy.interpolate' in sys.modules)"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False 0 0 False"
    assert sorted(os.listdir(tmp_path / "out")) == ["cs_state.csv", "dhmp_fg.csv",
                                                    "dhmp_gf.csv"]


DEGENERATE = {
    # b2*c1 - b1*c2 = -6.7e-16: the nullclines are parallel to rounding
    "parallel": ("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1.0000000000000004\n"
                 "model.b2 = 1\nmodel.c1 = 1\nmodel.c2 = 1.0000000000000002\n"
                 "model.d1 = 1\nmodel.d2 = 1\nmodel.alpha = 1\nmodel.beta = 1\n"
                 "grid.n_cells = 64\n",
                 "b2*c1 - b1*c2 vanishes; nullclines are parallel"),
    # the existence check passes, but the u-lobe needs more than 0.98 of
    # the unit, so no admissible theta is left
    "empty_theta": ("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1\nmodel.b2 = 1\n"
                    "model.c1 = 1\nmodel.c2 = 1\nmodel.d1 = 0.395\nmodel.d2 = 1e-6\n"
                    "run.n = 1\n",
                    "admissible theta window is empty"),
    # P1 with a1/a2 = 50/3 above both b1/b2 and c1/c2: neither regime, so
    # no constant state to seed the fields around
    "no_regime": ("model.a1 = 50\ngrid.n_cells = 64\n",
                  "constant coexistence state requires weak or strong competition"),
}


@pytest.mark.parametrize("command, config", [
    ("solve", "parallel"), ("is-solve", "parallel"), ("bifurcate", "parallel"),
    ("limit-study", "parallel"), ("selftest", "parallel"),
    ("dhmp", "empty_theta"), ("cs-solve", "empty_theta"),
    ("solve", "no_regime"), ("limit-study", "no_regime")])
def test_degenerate_parameters_are_not_applicable(command, config, tmp_path, capsys):
    text, message = DEGENERATE[config]
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [f"not applicable: {message}"]
    assert not out.exists()


def test_bounds_in_the_tangency_window_returns_a_certificate(tmp_path, capsys):
    # v_tilde0 of the swapped set lies just inside its tangency window
    cfg = tmp_path / "x.cfg"
    cfg.write_text("".join(f"model.{k} = {v!r}\n" for k, v in TANGENCY.items())
                   + "run.eta = 1e-5\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = (out / "bounds.txt").read_text()
    assert "kind = levelset" in text


# the product check failed on its former absolute bound 1e-12: (S - w)
# cancels when 4 gamma d1 d2 tau << w^2
SELFTEST_ROUNDING = ["model.gamma = 0.0009461461648253325",
                     "model.gamma = 7.400433683372919e-06",
                     "model.d2 = 2.6129179742092635e-06\nmodel.b1 = 1.4037541487498866\n"
                     "model.c2 = 0.05364781754930493"]


@pytest.mark.parametrize("text", SELFTEST_ROUNDING, ids=["gamma_9.5e-4", "gamma_7.4e-6",
                                                        "d2_2.6e-6"])
def test_selftest_product_check_allows_the_rounding_of_the_inversion(text, tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text + "\n")
    assert main(["selftest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_selftest_passes_where_tau_star_underflows(tmp_path, capsys):
    # u* v* underflows to 0: the product error is exactly 0, and so is the
    # allowance 8 eps (tau + w^2/(4 gamma d1 d2))
    cfg = tmp_path / "x.cfg"
    cfg.write_text("model.c1 = 1e300\nmodel.a2 = 1e-300\n")
    assert main(["selftest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "selftest: ok\n"


@pytest.mark.filterwarnings("error")
def test_selftest_whose_inversion_overflows_exits_2_without_a_warning(tmp_path, capsys):
    # w^2 overflows in the (w, tau) -> (u, v) inversion and in the
    # allowance: the check fails on inf, with one stderr line
    cfg = tmp_path / "x.cfg"
    cfg.write_text("model.a1 = 1e300\nmodel.c1 = 1e300\nmodel.d1 = 1e300\n"
                   "model.alpha = 1e-300\nmodel.beta = 1e-300\nmodel.gamma = 1e-300\n"
                   "model.d2 = 1e-300\n")
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["selftest failed: product identity: inf is not "
                                         "below inf"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a1, a2", [(1e300, 1e300), (1e5, 6e4)])
def test_selftest_whose_residual_overflows_exits_2_without_a_warning(a1, a2, tmp_path,
                                                                     capsys):
    # beta*u overflows in the constant-state residual: NaN in the second
    # field (at a1 = 1e5 the first stays finite) fails the one sup over both
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"model.a1 = {a1}\nmodel.a2 = {a2}\nmodel.beta = 1e300\n")
    out = tmp_path / "out"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["selftest failed: constant-state residual: nan "
                                         "is not below 1e-09"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, config", [
    ("solve", "model.a2 = 24.16602535184861\nmodel.b1 = 1.2407466164343763e-09\n"
              "model.b2 = 1e-300\nmodel.c1 = 6.006154616422188e-06\nmodel.d2 = 1e-300\n"
              "model.alpha = 0.0002678036019728739\ngrid.n_cells = 53\n"),
    ("limit-study", "model.b1 = 4.450018974199167e-12\nmodel.b2 = 1.5211614540183321e-12\n"
                    "model.c2 = 8.077386761615763\ngrid.n_cells = 8\n"
                    "run.alpha0 = 0.405909937285172\nrun.steps = 2\n")],
    ids=["solve", "limit-study"])
def test_a_seed_that_overflows_is_a_config_error(command, config, tmp_path, capsys):
    # u* (1 + amplitude pert) overflows at run.amplitude = 1e300 where u*
    # is large, so a seeded density is inf before any solve
    cfg = tmp_path / "x.cfg"
    cfg.write_text(config + "run.amplitude = 1e300\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "config error: run.amplitude: the seed is not finite at 1e+300"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_limit_study_whose_diagnostics_overflow_is_not_applicable(tmp_path, capsys):
    # at d1 = 1e300 the mean of z = (d1/alpha) u + u v overflows: no
    # limit_study.csv with tau_hat = inf, but exit 4 with one stderr line
    cfg = tmp_path / "x.cfg"
    cfg.write_text("model.a1 = 58.174693588731536\nmodel.b1 = 85.82237180468171\n"
                   "model.c1 = 0.26048735891644104\nmodel.d1 = 1e300\n"
                   "model.d2 = 1.1968316086230762e-09\nmodel.alpha = 660.1919308637539\n"
                   "model.beta = 1.0210252913817647e-07\nmodel.gamma = 37.14916358634999\n"
                   "grid.n_cells = 32\nrun.alpha0 = 1.483505468130165e-08\nrun.steps = 3\n")
    out = tmp_path / "out"
    assert main(["limit-study", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("not applicable: schedule step 0 ")
    assert err[0].endswith("the diagnostics are not finite in floating point")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["dhmp", "cs-solve"])
def test_a_pattern_whose_residual_overflows_is_not_built(command, tmp_path, capsys):
    # b2 u overflows on the u-lobe, where v = 0, so g = v (a2 - b2 u - c2 v)
    # is 0 x inf = NaN there: neither command writes a pattern
    cfg = tmp_path / "x.cfg"
    cfg.write_text("model.b1 = 3.08532455160055e-10\nmodel.b2 = 1e300\n"
                   "model.c2 = 4.814550232141981e-12\nmodel.d1 = 0.13546437207481107\n"
                   "model.beta = 5.2127186974730534e-11\ngrid.n_cells = 118\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "no solution built: the pattern's residual is nan in floating point"]
    assert not out.exists()


def test_selftest_flags_a_perturbed_inversion(tmp_path, monkeypatch, capsys):
    exact = limits.uv_from_w_tau

    def perturbed(lp, w, tau):
        u, v = exact(lp, w, tau)
        return u * (1.0 + 1e-12), v

    monkeypatch.setattr(limits, "uv_from_w_tau", perturbed)
    out = tmp_path / "out"
    assert main(["selftest", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("selftest failed: product identity: ")
    assert not out.exists()


PACKAGE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.SktlabError) and cls is not errors.SktlabError]

# Outcomes that once had a type of their own and now raise the type of their
# _EXITS row; each keeps its case under its old name, checked through that type.
FOLDED_OUTCOMES = {
    "BandError": errors.NotApplicable,
    "DegenerateError": errors.NotApplicable,
    "DomainError": errors.NotApplicable,
    "NegativeState": errors.NoConvergence,
    "NoBracket": errors.NotApplicable,
    "NoThreshold": errors.NotApplicable,
    "ParseError": errors.ValidationError,
    "RegimeError": errors.NotApplicable,
}
EXIT_CASES = sorted([(cls.__name__, cls) for cls in PACKAGE_ERRORS]
                    + list(FOLDED_OUTCOMES.items()))


def test_folded_outcomes_are_not_package_types():
    assert not set(FOLDED_OUTCOMES) & {cls.__name__ for cls in PACKAGE_ERRORS}
    assert set(FOLDED_OUTCOMES.values()) <= set(PACKAGE_ERRORS)


@pytest.mark.parametrize("cls", [cls for _, cls in EXIT_CASES],
                         ids=[name for name, _ in EXIT_CASES])
def test_every_package_error_has_one_exit_code(cls, tmp_path, monkeypatch, capsys):
    # exactly one row of the table matches, so its order decides nothing
    rows = [row for types, row in cli._EXITS.items() if issubclass(cls, types)]
    assert len(rows) == 1
    code, prefix = rows[0]
    assert code in (2, 3, 4)

    def fail(cfg):
        raise cls("injected")

    monkeypatch.setitem(cli._COMMANDS, "selftest", fail)
    out = tmp_path / "out"
    assert main(["selftest", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{prefix}: injected")
    assert not out.exists()
