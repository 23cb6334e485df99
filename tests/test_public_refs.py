"""Every public definition of the package is used by the program.

An AST scan over `src/sktlab`: a top-level `def name` or `class Name`, and
a method or property `def name` of a public top-level class, that does not
start with `_` must occur as a Name node or an attribute name outside its
own body, somewhere in the package or in the benchmark scripts
`perfbench/*.py` (which are only read).  Uses in tests do not count, so code
that only tests reach lives under `tests/` (`tests/oracles.py`), and the
package stays what the command line and the benchmark run.  Nor do uses in
`cli._cmd_selftest`: it checks the kernels the program runs, so a wrapper
that only it calls is API of its own.
"""

import ast
import pathlib
from collections import Counter

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))
READERS = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))


def _names(nodes) -> list[str]:
    out = []
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append(node.id)
            elif isinstance(node, ast.Attribute):
                out.append(node.attr)
    return out


def _unreferenced(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in package.items()}
    selftest = [node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_cmd_selftest"]
    used = Counter(_names([*trees.values(),
                           *(ast.parse(text, filename=name) for name, text in readers.items())]))
    used -= Counter(_names(selftest))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for name, tree in trees.items():
        members = [(f"{node.name}.", sub) for node in tree.body
                   if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                   for sub in node.body]
        for prefix, node in [("", node) for node in tree.body] + members:
            if isinstance(node, defs) and not node.name.startswith("_"):
                own = _names(node.body + node.decorator_list).count(node.name)
                if used[node.name] == own:
                    dead.append(f"{name}:{prefix}{node.name}")
    return sorted(dead)


def test_every_public_definition_is_referenced():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = {p.name: p.read_text(encoding="utf-8") for p in READERS}
    assert readers, "perfbench/*.py not found next to tests/"
    assert _unreferenced(package, readers) == []


def test_scan_flags_an_unreferenced_definition():
    package = {
        "a.py": ("def used():\n    pass\n\n"
                 "def selftest_only():\n    pass\n\n"
                 "def bench_only():\n    pass\n\n"
                 "def dead(k):\n    return dead(k - 1)\n\n"
                 "class Dead:\n    def make(self):\n        return Dead()\n\n"
                 "class Rec:\n    def used_by_bench(self):\n        pass\n\n"
                 "    @property\n    def spare(self):\n        return self.spare\n\n"
                 "    def _helper(self):\n        pass\n\n"
                 "class _Hook:\n    def error(self):\n        pass\n\n"
                 "def _private():\n    pass\n"),
        "b.py": "from a import Rec, used, dead\n\ndef run():\n    return used(), Rec()\n",
        "cli.py": ("import a\n\ndef _cmd_solve():\n    return a.used()\n\n"
                   "def _cmd_selftest():\n    return a.selftest_only(), a.used()\n"),
    }
    readers = {"bench.py": "import a\n\nprint(a.bench_only(), a.Rec().used_by_bench())\n"}
    assert _unreferenced(package, readers) == [
        "a.py:Dead", "a.py:Dead.make", "a.py:Rec.spare", "a.py:dead", "a.py:selftest_only",
        "b.py:run"]
