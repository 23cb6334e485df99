"""Every feasibility check of the package follows one protocol.

An AST scan over `src/sktlab`: no function named `feasible` (the trial
check that `linalg._damped_newton` calls before evaluating a residual)
contains a `raise`.  A check returns its exception instead, so that the
driver halves an infeasible trial and raises that exception only once
the step falls below 2**-20; a check that raised would abandon the whole
iteration on one overshooting step.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))


def _raising_feasible(sources: dict[str, str]) -> list[str]:
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "feasible":
                found += [f"{name}:{r.lineno}" for r in ast.walk(node)
                          if isinstance(r, ast.Raise)]
    return sorted(found)


def test_no_feasible_raises():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _raising_feasible(sources) == []


def test_scan_flags_a_raising_feasible():
    # the check of the incomplete-segregation Newton as it was when it
    # raised TauCollapse on the first trial below the floor
    raising = (
        "def is_newton(lp, w0, tau0):\n"
        "    def feasible(x):\n"
        "        if x[-1] < _TAU_FLOOR:\n"
        "            raise TauCollapse('tau fell below the collapse floor')\n"
        "    return feasible\n")
    returning = (
        "def feasible(x):\n"
        "    if x[-1] < _TAU_FLOOR:\n"
        "        return TauCollapse('tau fell below the collapse floor')\n"
        "def other(x):\n"
        "    raise ValueError(x)\n")
    assert _raising_feasible({"a.py": raising, "b.py": returning}) == ["a.py:4"]
