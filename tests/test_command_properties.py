"""Property test of the exit-code contract for the other subcommands.

Hypothesis draws configs for `solve`, `bounds`, `is-solve`, `bifurcate`,
`limit-study` and `selftest` and runs them through `cli.main`: every draw
must end in one of the documented exit codes, and none may raise.  Any
subset of the model keys is drawn, with finite values over fifteen decades,
1e-300, 1e300 and non-finite values, and `grid.length` log-uniform over
[1e-300, 1e300].  The grid, `run.steps` and `run.s_max` are capped so that
one draw stays cheap.  `run.t_march` and `run.dt` are drawn together, so
that `t_march / dt` is either at most 2 000 march steps or above the
ceiling of 10^6 steps (dt in [5e-324, 1e-300]), which is a config error
before any step runs; a count in between would be a valid but slow march.
The examples are configs that once ended in a traceback or did not end.
A numpy RuntimeWarning is an error here: output outside the documented
stderr line fails the draw instead of passing as a warning count.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sktlab.cli import main

# log-uniform in [1e-12, 1e3]; one draw in five is 1e-300, 1e300 or nan
VALUE = st.tuples(st.floats(-12.0, 3.0), st.integers(0, 14)).map(
    lambda t: (1e-300, 1e300, math.nan)[t[1]] if t[1] < 3 else 10.0 ** t[0])
# log-uniform in [1e-300, 1e300]; one draw in five is one of the two ends
LENGTH = st.tuples(st.floats(-300.0, 300.0), st.integers(0, 9)).map(
    lambda t: (1e-300, 1e300)[t[1]] if t[1] < 2 else 10.0 ** t[0])
MODEL = st.fixed_dictionaries({}, optional={
    f"model.{k}": VALUE for k in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2",
                                  "alpha", "beta", "gamma")})
RUN = st.fixed_dictionaries({}, optional={
    "grid.n_cells": st.integers(8, 128),
    "grid.length": LENGTH,
    "run.mode": st.integers(1, 12),
    "run.eta": st.floats(1e-6, 1.0),
    "run.amplitude": VALUE,
    "run.alpha0": VALUE,
    "run.steps": st.integers(1, 4),
    "run.ratio": st.floats(0.5, 1e3),
    "run.s_max": st.floats(1e-3, 1.0),
})
# t_march / dt at most 2 000 steps, or above the 10^6-step ceiling
MARCH = st.one_of(
    st.fixed_dictionaries({}, optional={"run.t_march": st.floats(0.0, 20.0),
                                        "run.dt": st.floats(1e-2, 10.0)}),
    st.fixed_dictionaries({"run.dt": st.floats(5e-324, 1e-300)},
                          optional={"run.t_march": st.floats(1.0, 20.0)}))
RUN = st.tuples(RUN, MARCH).map(lambda t: {**t[0], **t[1]})
COMMANDS = ["solve", "bounds", "is-solve", "bifurcate", "limit-study", "selftest"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), model=MODEL, run=RUN)
@example(command="bounds", model={"model.a2": 1e-300}, run={})
@example(command="bounds", model={"model.a2": 1e-170}, run={})
@example(command="bounds", model={"model.a1": 1e-300}, run={})
@example(command="bounds", model={"model.alpha": 1e-300, "model.beta": 1e300}, run={})
@example(command="solve", model={"model.alpha": 1e-300, "model.beta": 1e300},
         run={"grid.n_cells": 64})
@example(command="bounds", model={"model.a2": 1e-10, "model.c2": 1.0,
                                  "model.d2": 1e155}, run={})
@example(command="selftest", model={"model.gamma": 0.0009461461648253325}, run={})
@example(command="selftest", model={"model.gamma": 7.400433683372919e-06}, run={})
@example(command="selftest", model={"model.d2": 2.6129179742092635e-06,
                                    "model.b1": 1.4037541487498866,
                                    "model.c2": 0.05364781754930493}, run={})
@example(command="bifurcate", model={"model.b1": 1e-300, "model.b2": 1e-300}, run={})
@example(command="solve", model={"model.b1": 1e-300, "model.b2": 1e-300,
                                 "model.d1": 1e-300, "model.beta": 1e-300}, run={})
@example(command="is-solve", model={"model.c1": 1e300, "model.a2": 1e-300}, run={})
@example(command="selftest", model={"model.c1": 1e300, "model.a2": 1e-300}, run={})
@example(command="solve", model={}, run={"grid.n_cells": 8, "grid.length": 1e-300})
@example(command="limit-study", model={}, run={"grid.n_cells": 8, "grid.length": 1e-200})
@example(command="bifurcate", model={}, run={"grid.n_cells": 8, "grid.length": 1e-160})
@example(command="bifurcate", model={}, run={"grid.n_cells": 8, "grid.length": 1e300})
@example(command="limit-study", model={"model.gamma": 1e300},
         run={"grid.n_cells": 16, "run.alpha0": 1e-300})
@example(command="solve", model={}, run={"run.dt": 5e-324})
@example(command="solve", model={}, run={"run.dt": 1e-300})
@example(command="selftest", model={"model.a1": 1e300, "model.c1": 1e300,
                                    "model.d1": 1e300, "model.alpha": 1e-300,
                                    "model.beta": 1e-300, "model.gamma": 1e-300,
                                    "model.d2": 1e-300}, run={})
@example(command="bounds", model={"model.b1": 1e-200, "model.b2": 1e-200,
                                  "model.d1": 1e-200, "model.d2": 1e-200}, run={})
@example(command="bifurcate", model={"model.a1": 1e-30, "model.a2": 1e200, "model.b1": 1e200,
                                     "model.b2": 1e-8, "model.c1": 1e-30, "model.c2": 1e300,
                                     "model.d2": 1e30, "model.alpha": 1e-200,
                                     "model.beta": 0.5, "model.gamma": 1.0},
         run={"grid.n_cells": 64, "run.s_max": 0.05})
@example(command="bifurcate", model={"model.a1": 1e-30, "model.a2": 1e-30, "model.b1": 1e-30,
                                     "model.b2": 1e300, "model.c1": 1e300, "model.c2": 1e8,
                                     "model.d1": 1e200, "model.d2": 0.5, "model.gamma": 1e30,
                                     "model.alpha": 3.0, "model.beta": 1e-8},
         run={"grid.n_cells": 64, "run.s_max": 0.05})
def test_commands_exit_with_a_documented_code(command, model, run, tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in {**model, **run}.items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) \
        in (0, 2, 3, 4)
    capsys.readouterr()
