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


def _scipy_imports(tree: ast.Module, sub: str) -> list[int]:
    """Lines that import scipy.<sub> or anything inside it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == f"scipy.{sub}" or name.startswith(f"scipy.{sub}.")
               for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_linalg_imports_scipy_linalg():
    # linalg owns the band layouts and the LAPACK calls
    found = {p.name: _scipy_imports(ast.parse(p.read_text(encoding="utf-8")), "linalg")
             for p in MODULES if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_a_scipy_linalg_import():
    tree = ast.parse("import scipy.linalg\nfrom scipy.linalg import solve_banded\n"
                     "from scipy import linalg\nfrom scipy.interpolate import x\n"
                     "from scipy.linalg.lapack import dgtsv\n")
    assert _scipy_imports(tree, "linalg") == [1, 2, 3, 5]


def test_no_module_imports_scipy_interpolate():
    # the lobe inverse is a numpy cubic Hermite (twolobe._hermite), and
    # loading scipy.interpolate would cost ~22 MB and ~0.4 s per process
    found = {p.name: _scipy_imports(ast.parse(p.read_text(encoding="utf-8")), "interpolate")
             for p in pathlib.Path(sktlab.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_a_scipy_interpolate_import():
    tree = ast.parse("def f():\n    from scipy.interpolate import CubicHermiteSpline\n"
                     "import scipy.linalg\nfrom scipy import interpolate\n"
                     "import scipy.interpolate._cubic\n")
    assert _scipy_imports(tree, "interpolate") == [2, 4, 5]


def _scipy_beyond_lapack(tree: ast.Module) -> list[int]:
    """Lines that import from scipy anything but a `scipy.linalg.lapack`
    driver (`from scipy.linalg.lapack import ...`), or refer to
    solve_banded."""
    lines = set(_references(tree, {"solve_banded"}))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module != "scipy.linalg.lapack":
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_scipy_serves_only_lapack_drivers():
    # linalg calls gtsv and gbsv itself, so the band layout and the solve
    # checks have one route to LAPACK
    found = {p.name: _scipy_beyond_lapack(ast.parse(p.read_text(encoding="utf-8")))
             for p in pathlib.Path(sktlab.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_scipy_beyond_lapack():
    tree = ast.parse("import scipy\nfrom scipy.linalg import solve_banded\n"
                     "from scipy.linalg.lapack import dgbsv, dgtsv\nfrom scipy import linalg\n"
                     "x = linalg.solve_banded((1, 1), a, b)\nimport scipy.linalg.lapack\n"
                     "from .lapack import y\nfrom numpy.linalg import LinAlgError\n")
    assert _scipy_beyond_lapack(tree) == [1, 2, 4, 5, 6]


def _references(tree: ast.Module, names) -> list[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names or \
                isinstance(node, ast.Attribute) and node.attr in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in names for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


IS_SYSTEM = {"solve_bordered", "_is_residual_values"}


def test_only_limits_assembles_the_incomplete_segregation_system():
    # the bordered Newton on (w, tau), with or without d1 and the phase
    # row, lives in limits; linalg defines solve_bordered
    found = {p.name: _references(ast.parse(p.read_text(encoding="utf-8")), IS_SYSTEM)
             for p in MODULES if p.name not in ("limits.py", "linalg.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_a_bordered_system_reference():
    tree = ast.parse("from .linalg import solve_bordered\nfrom . import limits\n"
                     "x = limits._is_residual_values(1)\nsolve = solve_bordered\n"
                     "y = limits.is_residual(2)\n")
    assert _references(tree, IS_SYSTEM) == [1, 3, 4]


def _package_imports(tree: ast.Module, names) -> list[int]:
    """Lines that import sktlab.<name> for one of names, relatively or not;
    a bare `import io` is the standard library's."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "sktlab" if node.level else ""
            base = ".".join(part for part in (base, node.module) if part)
            full = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == f"sktlab.{sub}" or name.startswith(f"sktlab.{sub}.")
               for name in full for sub in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_cli_imports_bounds_or_io():
    # the solvers return states; the command layer certifies and writes them
    found = {p.name: _package_imports(ast.parse(p.read_text(encoding="utf-8")),
                                      {"bounds", "io"})
             for p in pathlib.Path(sktlab.__file__).parent.glob("*.py")
             if p.name != "cli.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_flags_a_bounds_or_io_import():
    tree = ast.parse("import io\nfrom . import bounds, steady\nfrom .io import write_csv\n"
                     "from .iox import y\nfrom sktlab import io as sio\n"
                     "import sktlab.bounds\nfrom .limits import bounds_of\n")
    assert _package_imports(tree, {"bounds", "io"}) == [2, 3, 5, 6]
