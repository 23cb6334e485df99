"""Every name a module of the package imports is used in that module.

An AST scan: a name bound by `import`/`from ... import` must occur as a
Name node (a bare name or the root of an attribute chain) in the module.
`__init__.py` is skipped, since its imports are the package's re-exports,
and `from __future__` imports are not names.
"""

import ast
import pathlib

import pytest

import sktlab

MODULES = sorted(p for p in pathlib.Path(sktlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, pi)\n")
    assert _unused_imports(tree) == ["tau (line 2)"]
