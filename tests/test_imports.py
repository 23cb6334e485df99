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


def _scipy_linalg_imports(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_only_linalg_imports_scipy_linalg():
    # linalg owns the band layouts and the LAPACK calls
    found = {p.name: _scipy_linalg_imports(ast.parse(p.read_text(encoding="utf-8")))
             for p in MODULES if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_a_scipy_linalg_import():
    tree = ast.parse("import scipy.linalg\nfrom scipy.linalg import solve_banded\n"
                     "from scipy import linalg\nfrom scipy.interpolate import x\n"
                     "from scipy.linalg.lapack import dgtsv\n")
    assert _scipy_linalg_imports(tree) == [1, 2, 3, 5]
