"""Property test of the exit-code contract for the other subcommands.

Hypothesis draws configs for `solve`, `bounds`, `is-solve`, `bifurcate`,
`limit-study` and `selftest` and runs them through `cli.main`: every draw
must end in one of the documented exit codes with at most one stderr
line, and none may raise.  Any subset of the model keys is drawn, with
finite values over fifteen decades, 1e-300, 1e300 and non-finite values,
and `grid.length` log-uniform over [1e-300, 1e300].  The grid, `run.steps`
and `run.s_max` are capped so that one draw stays cheap.  `run.t_march`
and `run.dt` are drawn together, so that `t_march / dt` is either at most
2 000 march steps or above the ceiling of 10^6 steps (dt in [5e-324,
1e-300]), which is a config error before any step runs; a count in between
would be a valid but slow march.  The examples are configs that once ended
in a traceback, a numpy warning or an `inf` in an exit-0 file, or did not
end.  A numpy RuntimeWarning is an error here: output outside the
documented stderr line fails the draw instead of passing as a warning
count.
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
@example(command="bifurcate", model={"model.a2": 112.2764961860205,
                                     "model.b1": 2.5612216644373475e-12,
                                     "model.c2": 1.0796874464162453e-06,
                                     "model.d1": 0.05505006107683375,
                                     "model.beta": 1.0407252505934247e-06,
                                     "model.gamma": 0.0002291475503824676},
         run={"run.mode": 7, "run.s_max": 0.6470062007145957})
@example(command="bifurcate", model={"model.d2": 1.7942933845021284e-06, "model.alpha": 1e300,
                                     "model.beta": 4.3049279570800596e-11},
         run={"grid.n_cells": 111, "run.mode": 3, "run.s_max": 0.38431798699613157,
              "run.ds": 0.0337216460441377})
@example(command="selftest", model={"model.a1": 1e300, "model.a2": 1e300,
                                    "model.beta": 1e300}, run={})
@example(command="selftest", model={"model.a1": 1e5, "model.a2": 6e4,
                                    "model.beta": 1e300}, run={})
# a seed that overflows at run.amplitude = 1e300: config error
@example(command="solve", model={"model.a2": 24.16602535184861,
                                 "model.b1": 1.2407466164343763e-09, "model.b2": 1e-300,
                                 "model.c1": 6.006154616422188e-06, "model.d2": 1e-300,
                                 "model.alpha": 0.0002678036019728739},
         run={"grid.n_cells": 53, "run.amplitude": 1e300})
@example(command="limit-study", model={"model.b1": 4.450018974199167e-12,
                                       "model.b2": 1.5211614540183321e-12,
                                       "model.c2": 8.077386761615763},
         run={"grid.n_cells": 8, "run.amplitude": 1e300, "run.alpha0": 0.405909937285172,
              "run.steps": 2})
# limit-study diagnostics that overflow: w and z, the uv defect, the mean of z
@example(command="limit-study", model={"model.a2": 0.0012009537204451266,
                                       "model.c1": 1.1710236678728854e-09,
                                       "model.c2": 1e-300, "model.d2": 1e300,
                                       "model.beta": 1.50839939075083e-08},
         run={"grid.n_cells": 12, "run.amplitude": 0.00012458234395730947, "run.steps": 4})
@example(command="limit-study", model={"model.a2": 24.78183007254955,
                                       "model.b1": 4.898013828462042e-09,
                                       "model.b2": 1.560473733307389e-05,
                                       "model.c1": 0.1281601555445208,
                                       "model.c2": 0.1921632985053921, "model.d2": 1e300,
                                       "model.beta": 0.0036936352768892227,
                                       "model.gamma": 1e300},
         run={"grid.n_cells": 119, "run.steps": 2})
@example(command="limit-study", model={"model.a1": 58.174693588731536,
                                       "model.b1": 85.82237180468171,
                                       "model.c1": 0.26048735891644104, "model.d1": 1e300,
                                       "model.d2": 1.1968316086230762e-09,
                                       "model.alpha": 660.1919308637539,
                                       "model.beta": 1.0210252913817647e-07,
                                       "model.gamma": 37.14916358634999},
         run={"grid.n_cells": 32, "run.alpha0": 1.483505468130165e-08, "run.steps": 3})
# an overflow on a tiny grid: the is-solve start, and 2/h^2 in solve's stability check
@example(command="is-solve", model={"model.a2": 9.546138429833693,
                                    "model.b2": 26.532871115959523,
                                    "model.c2": 0.0008040436418269495,
                                    "model.alpha": 1.9821074362471866e-12},
         run={"grid.n_cells": 20, "grid.length": 1.2116284419931336e-92,
              "run.amplitude": 1e300, "run.mode": 2})
@example(command="solve", model={"model.b1": 0.00020681693232176237,
                                 "model.c1": 122.74872123933957, "model.c2": 1e-300,
                                 "model.d1": 3.639137833032263e-06},
         run={"grid.n_cells": 21, "grid.length": 3.0639417157226723e-153,
              "run.amplitude": 8.1595709684715e-06, "run.alpha0": 4.463214609064537e-09})
def test_commands_exit_with_a_documented_code(command, model, run, tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in {**model, **run}.items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) \
        in (0, 2, 3, 4)
    assert len(capsys.readouterr().err.splitlines()) <= 1
