"""Every parameter of every function in the package is read, and every
defaulted one is set by some call of the program.

An AST scan over `src/sktlab`: each parameter of each function, method,
closure and lambda must be loaded somewhere in that function's body
(nested closures included), unless its name starts with `_`.  A parameter
that outlives the code which read it fails Tier-1 instead of lingering in
the signatures and at every call site.

A second scan takes each parameter with a default and looks for a call in
the package or in the benchmark scripts `perfbench/*.py` (which are only
read) that passes it: by position, by keyword, or through `*` / `**`.
Calls are matched by the callee's name (`f(...)` or `x.f(...)`; a class
name calls its `__init__`), so a name shared by two functions counts for
both.  A default that only tests override is an option the program does
not have, and its value belongs in the function body.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
READERS = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unread_params(sources: dict[str, str]) -> list[str]:
    dead = []
    for name, text in sources.items():
        for fn in ast.walk(ast.parse(text, filename=name)):
            if not isinstance(fn, FUNCTIONS):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs \
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            label = getattr(fn, "name", "<lambda>")
            dead += [f"{name}:{label}({a.arg})" for a in params
                     if not a.arg.startswith("_") and a.arg not in read]
    return sorted(dead)


def _defs(tree):
    """(callee name, def, is a method) for every named function of tree;
    an `__init__` is called by its class name."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                callee = cls if child.name == "__init__" else child.name
                yield callee, child, cls is not None and not static
                yield from visit(child, None)
            else:
                yield from visit(child, cls)
    yield from visit(tree, None)


def _passes(call: ast.Call, fn, method: bool, arg: str) -> bool:
    """Whether call sets parameter arg of fn."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None or k.arg == arg for k in call.keywords):
        return True
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if method and (isinstance(call.func, ast.Attribute) or fn.name == "__init__"):
        positional = positional[1:]          # self or cls is bound
    return arg in positional[:len(call.args)]


def _unset_defaults(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in package.items()}
    calls = {}
    for tree in [*trees.values(),
                 *(ast.parse(text, filename=name) for name, text in readers.items())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(callee, []).append(node)
    unset = []
    for name, tree in trees.items():
        for callee, fn, method in _defs(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] \
                + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            unset += [f"{name}:{fn.name}({a.arg})" for a in defaulted
                      if not any(_passes(c, fn, method, a.arg) for c in calls.get(callee, []))]
    return sorted(unset)


def test_every_parameter_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _unread_params(sources) == []


def test_scan_flags_a_dead_parameter():
    sources = {"a.py": (
        "def solve(x, _spare):\n"
        "    def inner(y, z):\n"
        "        return x + y\n"
        "    return inner(1, 2), (lambda k, j: k)(3, 4)\n")}
    assert _unread_params(sources) == ["a.py:<lambda>(j)", "a.py:inner(z)"]


def test_every_defaulted_parameter_is_set_by_the_program():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = {p.name: p.read_text(encoding="utf-8") for p in READERS}
    assert readers, "perfbench/*.py not found next to tests/"
    assert _unset_defaults(package, readers) == []


def test_scan_flags_a_default_no_call_sets():
    package = {
        "a.py": ("def solve(x, tol=1e-9, max_iter=40, *, what='s'):\n"
                 "    return x\n\n"
                 "def spread(x, y=1, z=2):\n"
                 "    return x\n\n"
                 "class Err(Exception):\n"
                 "    def __init__(self, msg, tau=None, line=None):\n"
                 "        self.tau = tau\n\n"
                 "class Rec:\n"
                 "    def scaled(self, k=2.0, shift=0.0):\n"
                 "        return k\n"),
        "b.py": ("from a import solve, spread, Err, Rec\n\n"
                 "def run(r, args, kw):\n"
                 "    spread(*args)\n"
                 "    spread(1, **kw)\n"
                 "    r.scaled(3.0)\n"
                 "    raise Err('m', 1.0)\n"),
    }
    readers = {"bench.py": "import a\n\nprint(a.solve(1.0, what='b'), a.solve(2.0, 1e-3))\n"}
    assert _unset_defaults(package, readers) == [
        "a.py:__init__(line)", "a.py:scaled(shift)", "a.py:solve(max_iter)"]
