"""Every parameter of every function in the package is read.

An AST scan over `src/sktlab`: each parameter of each function, method,
closure and lambda must be loaded somewhere in that function's body
(nested closures included), unless its name starts with `_`.  A parameter
that outlives the code which read it fails Tier-1 instead of lingering in
the signatures and at every call site.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
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
