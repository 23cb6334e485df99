"""Every Newton solver of the package stops by one rule, the driver's.

`linalg._damped_newton` stops once the residual norm is below max(tol,
floor), where each solver's residual reports the rounding floor of the
fields it differenced.  An AST scan over `src/sktlab`: no call of
`_damped_newton` passes a function (a lambda, or the name of a function
defined in the module) where the driver takes `tol`, and no closure named
`done` or `floor` (the per-solver stop tests and floors the driver used
to call) is defined.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_stop_tests(sources: dict[str, str]) -> list[str]:
    found = set()
    for name, text in sources.items():
        tree = ast.parse(text, filename=name)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, FUNCTIONS)}
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                found |= {f"{name}:{inner.lineno}:{inner.name}" for inner in ast.walk(node)
                          if inner is not node and isinstance(inner, FUNCTIONS)
                          and inner.name in ("done", "floor")}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_damped_newton":
                stop = node.args[3:4] + [k.value for k in node.keywords
                                         if k.arg in ("tol", "done")]
                if any(isinstance(a, ast.Lambda) or getattr(a, "id", None) in defined
                       for a in stop):
                    found.add(f"{name}:{node.lineno}:_damped_newton")
    return sorted(found)


def test_no_solver_passes_its_own_stop_test():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _own_stop_tests(sources) == []


def test_scan_flags_own_stop_tests():
    # the semismooth and (u, v) Newtons as they were when each passed the
    # driver its own stop test
    closure = (
        "def cs_solve(lp, w0, tol):\n"
        "    def done(w, rnorm):\n"
        "        return rnorm <= max(tol, residual_floor(h, max_abs(w)))\n"
        "    return _damped_newton(residual, step, w0, done, 60, 'semismooth Newton')\n")
    inline = (
        "def newton_solve(p, x, tol):\n"
        "    def floor(x):\n"
        "        return residual_floor(h, max_abs(x))\n"
        "    return _damped_newton(residual, step, x,\n"
        "                          lambda x, rnorm: rnorm <= max(tol, floor(x)), 60, 'Newton')\n")
    driver = (
        "def is_newton(lp, x, tol):\n"
        "    return _damped_newton(residual, step, x, tol, 40, 'bordered Newton')\n")
    assert _own_stop_tests({"a.py": closure, "b.py": inline, "c.py": driver}) == [
        "a.py:2:done", "a.py:4:_damped_newton", "b.py:2:floor", "b.py:4:_damped_newton"]
