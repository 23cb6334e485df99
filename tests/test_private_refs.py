"""Every module-private function of the package is used somewhere in it.

An AST scan over `src/sktlab`: a top-level `def _name` (not a dunder) must
occur as a Name node or an attribute name somewhere in the package outside
its own body, so a helper whose last caller is deleted fails Tier-1
instead of lingering as dead solver code.  Uses in tests do not count.
"""

import ast
import pathlib

import sktlab

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))


def _names(nodes) -> list[str]:
    out = []
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append(node.id)
            elif isinstance(node, ast.Attribute):
                out.append(node.attr)
    return out


def _unreferenced(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    used = _names(trees.values())
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                own = _names(node.body + node.decorator_list).count(node.name)
                if used.count(node.name) == own:
                    dead.append(f"{name}:{node.name}")
    return sorted(dead)


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _unreferenced(sources) == []


def test_scan_flags_an_unreferenced_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead(k):\n    return _dead(k - 1)\n",
        "b.py": "from a import _used\n\ndef run():\n    return _used()\n",
    }
    assert _unreferenced(sources) == ["a.py:_dead"]
