import inspect
import os
import subprocess
import sys

import pytest
from scipy.linalg import LinAlgError

import sktlab
from sktlab import cli, errors, steady, twolobe
from sktlab.cli import main, parse_config
from sktlab.errors import (AssemblyError, BlowUp, NegativeState, ParseError,
                           ValidationError)

from conftest import TANGENCY


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
    with pytest.raises(ParseError):
        parse_config("model.alpha\n")
    with pytest.raises(ParseError):
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
        raise NegativeState("no Newton step stays in the nonnegative cone")

    monkeypatch.setattr(steady, "newton_solve", negative)
    assert main(["solve", "--grid", "16", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "state.csv").exists()


def test_exit_code_blow_up(tmp_path, monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise BlowUp("state exceeded 10x the certificate cap")

    monkeypatch.setattr(steady, "time_march", blow_up)
    assert main(["solve", "--grid", "16", "--out", str(tmp_path)]) == 2
    assert "no solution built: state exceeded" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    # P1 with d1 below delta_1 = 0.658: the bordered Newton iterate from a
    # large start amplitude drives tau below its floor
    cfg = tmp_path / "tc.cfg"
    cfg.write_text("model.d1 = 0.5\nrun.amplitude = 10\ngrid.n_cells = 64\n")
    assert main(["is-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tau collapse" in err and "last tau" in err
    assert not (tmp_path / "is_state.csv").exists()


@pytest.mark.parametrize("key", ["model.a1", "model.alpha", "run.t_march"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_config_rejects_non_finite(key, value, tmp_path):
    # a positive key (a1) and two nonnegative ones (alpha, t_march)
    with pytest.raises(ValidationError):
        parse_config(f"{key} = {value}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_too_small_grid_and_bad_overrides_are_config_errors(tmp_path):
    with pytest.raises(ValidationError):
        parse_config("grid.n_cells = 4\n")
    assert parse_config("grid.n_cells = 8\n")["grid.n_cells"] == 8
    # command-line overrides pass the same checks as config values
    assert main(["is-solve", "--grid", "4", "--out", str(tmp_path)]) == 3
    assert main(["bounds", "--alpha", "nan", "--out", str(tmp_path)]) == 3


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


def test_bifurcate_predictor_leaving_the_cone_exits_2(tmp_path, capsys):
    # on P1 the mode-2 branch runs d1 -> 0 near s = 0.49; the secant
    # predictor crosses d1 = 0 before s_max = 0.8 is reached
    cfg = tmp_path / "m2.cfg"
    cfg.write_text("run.mode = 2\nrun.s_max = 0.8\ngrid.n_cells = 256\n")
    assert main(["bifurcate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "branch predictor left d1 > 0 / tau > 0" in capsys.readouterr().err
    assert not (tmp_path / "branch.csv").exists()


@pytest.mark.parametrize("command", ["is-solve", "bifurcate"])
def test_mode_outside_the_grid_is_config_error(command, tmp_path, capsys):
    for mode in ("400", "256"):
        argv = [command, "--mode", mode, "--grid", "256", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert "run.mode must be below grid.n_cells" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("line", ["run.steps = 400", "run.ratio = 1e200",
                                  "run.ratio = 0.5"])
def test_limit_study_bad_schedule_is_config_error(line, tmp_path):
    cfg = tmp_path / "ls.cfg"
    cfg.write_text(line + "\ngrid.n_cells = 64\n")
    assert main(["limit-study", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "limit_study.csv").exists()


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
    # only the pattern commands need scipy.interpolate, which costs a
    # quarter second of import time; twolobe imports it lazily
    r = run_python(["-c", "import sys, sktlab.cli; "
                    "print('scipy.interpolate' in sys.modules)"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


DEGENERATE = {
    # b2*c1 - b1*c2 = -6.7e-16: the nullclines are parallel to rounding
    "parallel": ("model.a1 = 1\nmodel.a2 = 1\nmodel.b1 = 1.0000000000000004\n"
                 "model.b2 = 1\nmodel.c1 = 1\nmodel.c2 = 1.0000000000000002\n"
                 "model.d1 = 1\nmodel.d2 = 1\nmodel.alpha = 1\nmodel.beta = 1\n"
                 "grid.n_cells = 64\n"),
}


@pytest.mark.parametrize("command, config", [
    ("solve", "parallel"), ("is-solve", "parallel"), ("bifurcate", "parallel"),
    ("limit-study", "parallel"), ("selftest", "parallel")])
def test_degenerate_parameters_are_not_applicable(command, config, tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(DEGENERATE[config])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("not applicable: ")
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


PACKAGE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.SktlabError) and cls is not errors.SktlabError]


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
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
