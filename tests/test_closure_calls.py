"""No closure of the package rebuilds per-solve records on every call.

An AST scan over `src/sktlab`: a function or lambda nested in another
function (the residual, step and feasible closures that
`linalg._damped_newton` calls once per trial) must not call
`LimitParams(...)`, `replace(...)` (`dataclasses.replace`, how a record with
another d1 is built), `.with_d1(...)` or `constant_state(...)`.  The first
three build and validate a parameter record, the last re-solves the kinetic
nullclines; what they produce is fixed for a whole solve, or (d1 in the
branch corrector) is passed to the helpers as a plain number, so these
calls belong in the enclosing function.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
FORBIDDEN = {"LimitParams", "replace", "with_d1", "constant_state"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    return name if name in FORBIDDEN else None


def _closure_calls(sources: dict[str, str]) -> list[str]:
    found = set()

    def visit(node, outer, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                label = getattr(child, "name", "<lambda>")
                if outer is not None:
                    for call in ast.walk(child):
                        if isinstance(call, ast.Call) and _callee(call):
                            found.add(f"{file}:{outer}.{label}:{_callee(call)}")
                visit(child, label if outer is None else f"{outer}.{label}", file)
            else:
                visit(child, outer, file)

    for name, text in sources.items():
        visit(ast.parse(text, filename=name), None, name)
    return sorted(found)


def test_no_closure_rebuilds_parameter_records():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _closure_calls(sources) == []


def test_scan_flags_per_trial_records():
    # the residual closure of the branch corrector as it was when it built
    # a validated LimitParams for every trial
    branch = (
        "def _branch_newton(lp, w, tau, d1, phi, s_target, g):\n"
        "    cs = constant_state(lp)\n"
        "    def residual(x):\n"
        "        w, tau, d1 = x[:-2], float(x[-2]), float(x[-1])\n"
        "        lp1 = lp.with_d1(d1)\n"
        "        fld, con = _is_residual_values(lp1, w, tau, h)\n"
        "        return fld, con\n"
        "    return residual\n")
    other = (
        "def solve(p):\n"
        "    lp = LimitParams.from_model(p)\n"
        "    step = lambda x: constant_state(p).u_star * x\n"
        "    def outer(x):\n"
        "        def inner(y):\n"
        "            return LimitParams(a1=y)\n"
        "        return inner(x)\n"
        "    return lp, step, outer\n")
    assert _closure_calls({"a.py": branch, "b.py": other}) == [
        "a.py:_branch_newton.residual:with_d1",
        "b.py:solve.<lambda>:constant_state",
        "b.py:solve.outer.inner:LimitParams",
        "b.py:solve.outer:LimitParams",
    ]
