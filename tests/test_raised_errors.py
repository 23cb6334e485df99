"""Every package error is raised by the program.

An AST scan over `src/sktlab`: each class of `errors.py` that derives,
directly or through another of its classes, from `SktlabError` must be
constructed in a `raise` or a `return` statement (`raise X(...)`,
`raise err or X(...)`, `return X(...)`) in some other module of the
package.  A class named only in an import, an `except` clause or the exit
table `cli._EXITS` fails, so an error whose last raise is deleted does not
linger with an exit code of its own.  Raises in tests do not count.

Each such class is also named in exactly one row of `cli._EXITS`, and no
row names two of them: one type per exit outcome, so an `except` never
has to list two types that end the same way.

An error is its type and its message: no class of `errors.py` defines
`__init__` or assigns an attribute, in its body or on `self`, so no value
rides on an exception that the message does not already carry.

Outside values are range-checked once, where they enter: the config keys
in `cli`, the coefficient and grid records in their `__post_init__`.  So
a `raise ValueError(...)` or `raise IndexError(...)` appears only in a
`__post_init__`, in `io.write_csv` (its columns) and in
`limits.is_residual` (a tau read back from a file), never as a second
check on an argument that only checked values reach.  Likewise a `raise
ValidationError(...)`, which names config keys, appears only in `cli` and
in `limitstudy.geometric_schedule`, the schedule builder that only `cli`
calls: a solver raises only solver outcomes.
"""

import ast
import inspect
import pathlib

import sktlab
from sktlab import cli, errors

MODULES = sorted(pathlib.Path(sktlab.__file__).parent.glob("*.py"))


def _error_classes(tree) -> list[str]:
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    errors = {"SktlabError"}
    while True:
        more = {name for name, parents in bases.items() if parents & errors} - errors
        if not more:
            return sorted(errors - {"SktlabError"})
        errors |= more


def _constructed(tree) -> set[str]:
    """Names called anywhere in the value of a raise or return statement."""
    values = [node.exc if isinstance(node, ast.Raise) else node.value
              for node in ast.walk(tree) if isinstance(node, (ast.Raise, ast.Return))]
    return {sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", "")
            for value in values if value is not None
            for sub in ast.walk(value) if isinstance(sub, ast.Call)}


def _never_raised(errors_text: str, package: dict[str, str]) -> list[str]:
    raised = set().union(*(_constructed(ast.parse(text, filename=name))
                           for name, text in package.items()))
    return [name for name in _error_classes(ast.parse(errors_text)) if name not in raised]


def test_every_package_error_is_raised():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES
               if p.name != "errors.py"}
    errors_text = (pathlib.Path(sktlab.__file__).parent / "errors.py").read_text(
        encoding="utf-8")
    assert len(_error_classes(ast.parse(errors_text))) == 7
    assert _never_raised(errors_text, package) == []


def test_scan_flags_an_error_that_is_only_mapped_and_caught():
    errors_text = ("class SktlabError(Exception):\n    pass\n\n"
                   "class Raised(SktlabError):\n    pass\n\n"
                   "class Returned(SktlabError):\n    pass\n\n"
                   "class Chained(Raised):\n    pass\n\n"
                   "class Mapped(SktlabError):\n    pass\n\n"
                   "class Other(Exception):\n    pass\n")
    package = {
        "a.py": ("from errors import Chained, Mapped, Raised, Returned\n\n"
                 "def f(x):\n    if x:\n        raise Raised('no')\n"
                 "    return Returned('no')\n\n"
                 "def g(err):\n    raise err or Chained('no')\n"),
        "cli.py": ("import errors\n\n_EXITS = {(errors.Mapped,): (2, 'x')}\n\n"
                   "def main():\n    try:\n        pass\n"
                   "    except errors.Mapped as exc:\n        return str(exc)\n"),
    }
    assert _never_raised(errors_text, package) == ["Mapped"]


def _stored_state(errors_text: str) -> list[str]:
    """`Class.__init__` for each class that defines one, and `Class.name`
    for each attribute a class assigns in its body or on an instance."""
    faults = []
    for cls in ast.parse(errors_text).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                faults.append(f"{cls.name}.__init__")
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for t in targets:
                if isinstance(t, ast.Attribute):
                    faults.append(f"{cls.name}.{t.attr}")
                elif isinstance(t, ast.Name) and node in cls.body:
                    faults.append(f"{cls.name}.{t.id}")
    return faults


def test_package_errors_store_nothing_but_their_message():
    errors_text = (pathlib.Path(sktlab.__file__).parent / "errors.py").read_text(
        encoding="utf-8")
    assert _stored_state(errors_text) == []


def test_stored_state_scan_flags_init_and_attributes():
    errors_text = ("class SktlabError(Exception):\n    \"\"\"Base.\"\"\"\n\n"
                   "class Plain(SktlabError):\n    pass\n\n"
                   "class Payload(SktlabError):\n"
                   "    def __init__(self, message, tau=None):\n"
                   "        super().__init__(message)\n"
                   "        self.tau = tau\n\n"
                   "class Tagged(SktlabError):\n    code: int = 2\n    kind = 'x'\n\n"
                   "class Patched(SktlabError):\n"
                   "    def note(self):\n        self.seen = True\n")
    assert _stored_state(errors_text) == ["Payload.__init__", "Payload.tau",
                                          "Tagged.code", "Tagged.kind", "Patched.seen"]


def _exit_table_faults(exits: dict, classes: list[type]) -> list[str]:
    """Package classes named in no row or in several, and rows that name
    more than one package class."""
    rows = [[t for t in types if t in classes] for types in exits]
    faults = [f"{cls.__name__} in {n} rows" for cls in classes
              if (n := sum(cls in row for row in rows)) != 1]
    return faults + [" and ".join(t.__name__ for t in row) + " share a row"
                     for row in rows if len(row) > 1]


def test_one_exit_row_per_package_error():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SktlabError) and cls is not errors.SktlabError]
    assert _exit_table_faults(cli._EXITS, classes) == []


def test_exit_table_check_flags_shared_and_missing_rows():
    class A(Exception):
        pass

    class B(Exception):
        pass

    class C(Exception):
        pass

    class D(Exception):
        pass

    exits = {(A, OSError): (3, "a"), (B, C): (4, "bc"), (B,): (2, "b")}
    assert _exit_table_faults(exits, [A, B, C, D]) == [
        "B in 2 rows", "D in 0 rows", "B and C share a row"]


_ARGUMENT_ERRORS = {"ValueError", "IndexError"}
_CHECKS_AT_A_BOUNDARY = {("io", "write_csv"), ("limits", "is_residual")}


def _raises_outside(package: dict[str, str], names: set[str], allowed) -> list[str]:
    """`module.qualname` of each function that raises one of names where
    allowed(module, scope) is false; scope is the list of enclosing names."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in names and not allowed(module, scope):
                    found.append(".".join([module] + scope))
            visit(child, module, scope)

    for name, text in sorted(package.items()):
        visit(ast.parse(text, filename=name), name.removesuffix(".py"), [])
    return found


def _stray_argument_checks(package: dict[str, str]) -> list[str]:
    """Functions that raise ValueError or IndexError outside a
    `__post_init__` and the two boundary checks."""
    return _raises_outside(
        package, _ARGUMENT_ERRORS,
        lambda module, scope: scope[-1:] == ["__post_init__"]
        or (module, scope[-1] if scope else "") in _CHECKS_AT_A_BOUNDARY)


def _stray_config_errors(package: dict[str, str]) -> list[str]:
    """Functions outside `cli` and `limitstudy.geometric_schedule` that
    raise ValidationError."""
    return _raises_outside(
        package, {"ValidationError"},
        lambda module, scope: module == "cli"
        or (module, scope[:1]) == ("limitstudy", ["geometric_schedule"]))


def test_argument_errors_are_raised_only_at_the_edges():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _stray_argument_checks(package) == []


def test_argument_error_scan_flags_a_repeated_check():
    package = {
        "a.py": ("class R:\n    def __post_init__(self):\n"
                 "        if self.x < 0:\n            raise ValueError('x')\n\n"
                 "    def check(self, j):\n        raise ValueError('again')\n\n"
                 "def f(j):\n    if j < 0:\n        raise IndexError(j)\n"
                 "    raise KeyError(j)\n\n"
                 "def g():\n    raise ValueError\n"),
        "io.py": "def write_csv(cols):\n    raise ValueError('length')\n",
        "limits.py": ("def is_residual(s):\n    raise ValueError('tau')\n\n"
                      "def w_z(p):\n    def inner():\n        raise ValueError('rates')\n"),
    }
    assert _stray_argument_checks(package) == ["a.R.check", "a.f", "a.g", "limits.w_z.inner"]


def test_config_errors_are_raised_only_at_the_config_edge():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _stray_config_errors(package) == []


def test_config_error_scan_flags_a_solver_that_checks_a_config_key():
    # the march ceiling as steady checked it before cli took it over
    package = {
        "cli.py": ("def _march_steps(cfg):\n"
                   "    if not cfg['run.t_march'] / cfg['run.dt'] <= 1e6:\n"
                   "        raise ValidationError('run.dt: too many march steps')\n"),
        "limitstudy.py": ("def geometric_schedule(ratio):\n"
                          "    if ratio <= 1:\n        raise ValidationError('run.ratio')\n\n"
                          "def run_sequence(schedule):\n"
                          "    raise ValidationError('schedule')\n"),
        "steady.py": ("def _step_count(dt, t_end):\n"
                      "    if not t_end / dt <= 1e6:\n"
                      "        raise ValidationError('run.dt: too many march steps')\n"
                      "    raise ValueError('not a config error')\n"),
    }
    assert _stray_config_errors(package) == ["limitstudy.run_sequence", "steady._step_count"]
