"""Property test of the exit-code contract for the pattern commands.

Hypothesis draws the diffusion rates, gamma, the node count and the grid of
`dhmp` and `cs-solve` and runs them through `cli.main`: every draw must end
in one of the documented exit codes, and none may raise.  Only a narrow band
of rates has a solution, so the explicit examples make sure that the lobe
profiles are built and tiled on every run.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sktlab.cli import main

# log-uniform in [1e-12, 1e3]; one draw in four is 1e-300 or 1e300 instead
RATE = st.tuples(st.floats(-12.0, 3.0), st.integers(0, 7)).map(
    lambda t: (1e-300, 1e300)[t[1]] if t[1] < 2 else 10.0 ** t[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["dhmp", "cs-solve"]), d1=RATE, d2=RATE, gamma=RATE,
       n=st.integers(1, 8), n_cells=st.integers(8, 1024))
@example(command="dhmp", d1=1e-3, d2=1e-3, gamma=1.0, n=2, n_cells=256)      # exit 0
@example(command="cs-solve", d1=1e-3, d2=1e-3, gamma=1.0, n=1, n_cells=64)   # exit 0
@example(command="dhmp", d1=1e-3, d2=1e-4, gamma=1.0, n=8, n_cells=8)        # 2: 0 zeros
def test_pattern_commands_exit_with_a_documented_code(command, d1, d2, gamma, n,
                                                      n_cells, tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"model.d1 = {d1!r}\nmodel.d2 = {d2!r}\nmodel.gamma = {gamma!r}\n"
                   f"run.n = {n}\ngrid.n_cells = {n_cells}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) \
        in (0, 2, 3, 4)
    capsys.readouterr()
