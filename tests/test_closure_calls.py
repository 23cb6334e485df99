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

The scan looks one level deeper: a closure must not call a package
function or method whose own body calls one of those names either, which
would rebuild the record behind one more name.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
FORBIDDEN = {"LimitParams", "replace", "with_d1", "constant_state"}


def _name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def _wrappers(trees) -> dict[str, str]:
    """name -> a forbidden name that its body calls, for each top-level
    function and method of the package that calls one directly."""
    found = {}
    for tree in trees:
        defs = [node for node in tree.body if isinstance(node, FUNCTIONS)]
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, FUNCTIONS)]
        for node in defs:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _name(call) in FORBIDDEN:
                    found.setdefault(node.name, _name(call))
    return found


def _closure_calls(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    wrappers = _wrappers(trees.values())
    found = set()

    def visit(node, outer, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                label = getattr(child, "name", "<lambda>")
                if outer is not None:
                    for call in ast.walk(child):
                        if not isinstance(call, ast.Call):
                            continue
                        callee = _name(call)
                        if callee in FORBIDDEN:
                            found.add(f"{file}:{outer}.{label}:{callee}")
                        elif callee in wrappers:
                            found.add(f"{file}:{outer}.{label}:{callee} -> "
                                      f"{wrappers[callee]}")
                visit(child, label if outer is None else f"{outer}.{label}", file)
            else:
                visit(child, outer, file)

    for name, tree in trees.items():
        visit(tree, None, name)
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
    # the phase row as it was when w_star solved the nullclines itself:
    # residual reaches constant_state one call deeper, through w_star
    limits = (
        "def w_star(lp, d1):\n"
        "    cs = constant_state(lp)\n"
        "    return d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star\n\n"
        "def w_star_at(lp, cs, d1):\n"
        "    return d1 * cs.u_star - lp.gamma * lp.d2 * cs.v_star\n\n"
        "class Params:\n"
        "    def shifted(self, d1):\n"
        "        return replace(self, d1=d1)\n\n"
        "def _is_corrector(lp, x, phi):\n"
        "    cs = constant_state(lp)\n"
        "    def residual(x):\n"
        "        return phi @ (x[:-1] - w_star(lp, x[-1]))\n"
        "    def step(x):\n"
        "        return phi @ (x[:-1] - w_star_at(lp, cs, x[-1]))\n"
        "    def feasible(x):\n"
        "        return lp.shifted(x[-1])\n"
        "    return residual, step, feasible, w_star(lp, 1.0)\n")
    assert _closure_calls({"a.py": branch, "b.py": other, "limits.py": limits}) == [
        "a.py:_branch_newton.residual:with_d1",
        "b.py:solve.<lambda>:constant_state",
        "b.py:solve.outer.inner:LimitParams",
        "b.py:solve.outer:LimitParams",
        "limits.py:_is_corrector.feasible:shifted -> replace",
        "limits.py:_is_corrector.residual:w_star -> constant_state",
    ]

