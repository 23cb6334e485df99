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
