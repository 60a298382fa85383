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

The package's __init__ holds its docstring and __version__ and nothing
else, and that version is the one pyproject.toml declares: the static walk
cannot see a re-export, because imports are not references.

The static walk counts every dunder as reached and follows names, not
calls, so a second check runs a fixed set of commands under a tracer and
requires every function of the package, dunders and nested functions
included, to be entered.  A third parse keeps each module's private
attributes its own: a single-underscore attribute read on anything but
self or cls must be defined in the same module.
"""

import ast
import builtins
import contextlib
import io
import json
import sys
import tomllib
from pathlib import Path

import smallcover
from smallcover.catalog import catalog
from smallcover.cli import main

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


def _is_string(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def package_surface(init: Path) -> list[str]:
    """What __init__.py holds besides its docstring and one __version__
    string assignment, one entry per other statement."""
    body = ast.parse(init.read_text(encoding="utf-8")).body
    out = []
    if body and isinstance(body[0], ast.Expr) and _is_string(body[0].value):
        body = body[1:]
    else:
        out.append("no module docstring")
    version = next(
        (
            stmt for stmt in body
            if isinstance(stmt, ast.Assign)
            and [ast.unparse(t) for t in stmt.targets] == ["__version__"]
            and _is_string(stmt.value)
        ),
        None,
    )
    if version is None:
        out.append("no __version__ string")
    out += [
        f"line {stmt.lineno}: {ast.unparse(stmt).splitlines()[0]}"
        for stmt in body if stmt is not version
    ]
    return out


def test_package_holds_only_its_docstring_and_version():
    init = PACKAGE / "__init__.py"
    assert package_surface(init) == []
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        declared = tomllib.load(f)["project"]["version"]
    assert smallcover.__version__ == declared


def test_surface_guard_reports_imports_and_extra_statements(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text(
        '"""Doc."""\n'
        "from .cli import main\n"
        "__version__ = '1.0'\n"
        "__version__ = '1.1'\n"
        "VERBOSE = True\n"
    )
    assert package_surface(init) == [
        "line 2: from .cli import main",
        "line 4: __version__ = '1.1'",
        "line 5: VERBOSE = True",
    ]
    init.write_text("import os\n")
    assert package_surface(init) == [
        "no module docstring", "no __version__ string", "line 1: import os",
    ]


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


# Functions the runtime check may find unentered, with the reason.
NOT_ENTERED = {
    # entered only when some K_W has torsion, and no catalog K_W has any; the
    # sympy Smith normal form oracles in test_homology cover it
    ("homology.py", "_dense_snf"),
    # a class that defines __eq__ alone loses hashing, so it stays defined
    # although no command hashes a complex
    ("simplicial.py", "SimplicialComplex.__hash__"),
}

RUNTIME_COMPLEXES = ("rp2", "cross3mixed", "cross3notsimplex", "deltas0", "gon6klein", "rp2_6v")


def defined_functions(package: Path = PACKAGE) -> set[tuple[str, str]]:
    """(file name, qualified name as in code.co_qualname) of every function
    the package defines, methods and nested functions included."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((path.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def entered_functions(argvs) -> set[tuple[str, str]]:
    """(file name, co_qualname) of every package function entered while
    cli.main runs each argv under sys.settrace; output is discarded."""
    codes = {}

    def trace(frame, event, arg):
        # called on each new frame only; None leaves the frame untraced
        code = frame.f_code
        codes[id(code)] = code

    catalog.cache_clear()  # the builders run again, inside the trace
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            sys.settrace(trace)
            try:
                main(argv)
            finally:
                sys.settrace(None)
    root = PACKAGE.resolve()
    return {
        (Path(code.co_filename).name, code.co_qualname)
        for code in codes.values()
        if Path(code.co_filename).resolve().parent == root
    }


def test_every_function_is_entered_by_a_command(tmp_path):
    argvs = [["catalog", "list"], ["table1"], ["fuzz", "--complex", "cross3", "--samples", "5"]]
    for name in RUNTIME_COMPLEXES:
        path = tmp_path / f"{name}.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["catalog", "emit", name]) == 0
        path.write_text(buf.getvalue(), encoding="utf-8")
        argvs += [
            ["analyze", str(path)],
            ["analyze", str(path), "--format", "json"],
            ["shelling", str(path)],
            ["bier", str(path)],
        ]
    order = tmp_path / "order.json"
    order.write_text(json.dumps([[1, 2], [1, 3], [2, 3]]), encoding="utf-8")
    argvs.append(["shelling", str(tmp_path / "rp2.json"), "--order", str(order)])
    missing = defined_functions() - entered_functions(argvs)
    assert missing == NOT_ENTERED, sorted(missing - NOT_ENTERED)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads(package: Path = PACKAGE) -> list[str]:
    """'file:line expression' for each single-underscore attribute read on
    something other than self or cls that its module does not define as a
    def, a class or a stored attribute."""
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _is_private(node.attr)
                and node.attr not in defined
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                out.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return out


def test_no_module_reads_another_modules_privates():
    assert foreign_private_reads() == []


def test_private_guard_reports_reads_across_modules(tmp_path):
    (tmp_path / "box.py").write_text(
        "class Box:\n"
        "    def __init__(self, other):\n"
        "        self._size = 1\n"
        "        self.__dict__.update()\n"
        "        self.bigger = other._size + self._size\n"
        "    def _grow(self):\n"
        "        return self._missing\n"
    )
    (tmp_path / "user.py").write_text(
        "from . import box\n"
        "def use(b, cls):\n"
        "    b._grow()\n"
        "    b._size = 2\n"
        "    return box._helper, b._size, cls._anything\n"
    )
    assert foreign_private_reads(tmp_path) == [
        "user.py:3 b._grow",
        "user.py:5 box._helper",
    ]
