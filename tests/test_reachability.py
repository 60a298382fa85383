"""Every definition in the package is reached from a command.

The package source is parsed, not imported.  The roots are cli.main,
build_parser, every cmd_* function and all module-level statements (a class
body's statements other than its methods run at import, so they count).
From there names are followed through reached code: a Name id or an
Attribute attr reaches each module-level function or class of that name,
and an Attribute attr reaches each method of that name, so a local variable
that shares a method's name does not reach the method.  A reached
definition's code is walked in turn.  Imports are not references, so a
re-export from __init__ reaches nothing.  Dunders are reached.

The same parse keeps one exception class per exit code: the three classes
in errors.py, the shelling budget class with its own message, and
charmap.CharMapError, an InputError, are the only exception classes, and
every raise names one of them.
"""

import ast
import builtins
from pathlib import Path

import smallcover

PACKAGE = Path(smallcover.__file__).parent
ROOTS = {"main", "build_parser"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(nodes) -> tuple[set[str], set[str]]:
    """The Name ids and the Attribute attrs in the nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return names, attrs


def _definitions(package: Path):
    """(qualified name, bare name, is a method, code run when reached) per
    definition, and the code that runs at import."""
    defs = []
    at_import = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                at_import += stmt.decorator_list + stmt.bases + stmt.keywords
                for item in stmt.body:
                    if isinstance(item, _DEFS):
                        qual = f"{path.stem}.{stmt.name}.{item.name}"
                        defs.append((qual, item.name, True, [item]))
                    else:
                        at_import.append(item)
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, False, []))
            elif isinstance(stmt, _DEFS):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, False, [stmt]))
            else:
                at_import.append(stmt)
    return defs, at_import


def unreached_definitions(package: Path = PACKAGE) -> list[str]:
    defs, at_import = _definitions(package)
    names, attrs = _referenced(at_import)
    names |= ROOTS | {name for _, name, _, _ in defs if name.startswith("cmd_")}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, name, is_method, code in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qual in reached or not (
                dunder or name in attrs or (not is_method and name in names)
            ):
                continue
            reached.add(qual)
            grew = True
            more_names, more_attrs = _referenced(code)
            names |= more_names
            attrs |= more_attrs
    return sorted(qual for qual, _, _, _ in defs if qual not in reached)


def test_every_definition_is_reached_from_a_command():
    unreached = unreached_definitions()
    assert unreached == [], "not reached from any command: " + ", ".join(unreached)


def test_guard_reports_what_only_an_import_or_a_test_reaches(tmp_path):
    (tmp_path / "__init__.py").write_text("from .cli import main\nfrom .lib import spare\n")
    (tmp_path / "cli.py").write_text(
        "from .lib import Box\n"
        "def main():\n"
        "    return cmd_run()\n"
        "def cmd_run():\n"
        "    unused = Box().used()\n"
        "    return unused\n"
    )
    (tmp_path / "lib.py").write_text(
        "class Box:\n"
        "    size = 2\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def used(self):\n"
        "        return helper(self.size)\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def helper(x):\n"
        "    return x\n"
        "def spare():\n"
        "    return helper(1)\n"
    )
    assert unreached_definitions(tmp_path) == ["lib.Box.unused", "lib.spare"]


def test_guard_follows_names_from_class_bodies_and_defaults(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main(x=default_x()):\n"
        "    return x\n"
        "def default_x():\n"
        "    return Kind.A\n"
        "class Kind:\n"
        "    A = make_a()\n"
        "def make_a():\n"
        "    return 1\n"
    )
    assert unreached_definitions(tmp_path) == []


EXIT_CODE_CLASSES = {"InputError", "PropertyViolation", "InternalConsistencyError"}
KEPT_EXCEPTIONS = EXIT_CODE_CLASSES | {"ShellingBudgetExceeded", "CharMapError"}
_BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _bare(node) -> str:
    """The last dotted part of a name: errors.InputError -> InputError."""
    return ast.unparse(node).rsplit(".", 1)[-1]


def exception_classes(package: Path = PACKAGE) -> dict[str, list[str]]:
    """Class name -> base names, for each class of the package that derives
    from a builtin exception directly or through another such class."""
    bases = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_bare(b) for b in node.bases]
    found: dict[str, list[str]] = {}
    grew = True
    while grew:
        grew = False
        for name, names in bases.items():
            if name not in found and any(
                b in _BUILTIN_EXCEPTIONS or b in found for b in names
            ):
                found[name] = names
                grew = True
    return found


def exception_findings(package: Path = PACKAGE) -> list[str]:
    """Each exception class that derives from none of the exit-code classes
    (the exit-code classes and the budget class aside), and each raise of a
    class other than the kept ones."""
    out = [
        f"class {name}({', '.join(names)})"
        for name, names in sorted(exception_classes(package).items())
        if name not in EXIT_CODE_CLASSES | {"ShellingBudgetExceeded"}
        and not set(names) & EXIT_CODE_CLASSES
    ]
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if exc is None:
                    out.append(f"{path.name}:{node.lineno} re-raises what it caught")
                elif _bare(exc) not in KEPT_EXCEPTIONS:
                    out.append(f"{path.name}:{node.lineno} raises {_bare(exc)}")
    return out


def test_one_exception_class_per_exit_code():
    classes = exception_classes()
    assert set(classes) == KEPT_EXCEPTIONS
    assert classes["CharMapError"] == ["InputError"]
    assert exception_findings() == []


def test_exception_guard_reports_stray_classes_and_raises(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class InputError(ValueError):\n"
        "    pass\n"
        "class InternalConsistencyError(RuntimeError):\n"
        "    pass\n"
    )
    (tmp_path / "lib.py").write_text(
        "from . import errors\n"
        "class LibError(ValueError):\n"
        "    pass\n"
        "class DeepError(LibError):\n"
        "    pass\n"
        "class Fine(errors.InputError):\n"
        "    pass\n"
        "class Plain:\n"
        "    pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise errors.InputError('bad input')\n"
        "    try:\n"
        "        raise LibError\n"
        "    except LibError:\n"
        "        raise\n"
    )
    assert set(exception_classes(tmp_path)) == {
        "InputError", "InternalConsistencyError", "LibError", "DeepError", "Fine",
    }
    assert exception_findings(tmp_path) == [
        "class DeepError(LibError)",
        "class LibError(ValueError)",
        "lib.py:14 raises LibError",
        "lib.py:16 re-raises what it caught",
    ]
