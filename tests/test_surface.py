"""Package-surface guards.

Every function, class, method and property defined in ``src/weyl4`` must be
reached from the package itself, from ``demos/`` or from ``weyl4.__all__``;
code that only tests call belongs in ``tests/`` (see ``paper_oracles.py``).
Every exception the package defines shares the ``Weyl4Error`` root, which is
what ``weyl4 ...`` maps to exit code 2.
"""

import ast
import importlib
import inspect
from pathlib import Path

import weyl4

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weyl4"
MODULES = sorted(p for p in PACKAGE.glob("*.py"))
READERS = MODULES + sorted((ROOT / "demos").glob("*.py"))


def _definitions(path: Path):
    """(name, first line, last line) of each top-level function and class and
    of each method and property of a top-level class; dunder methods excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(path: Path):
    """(name, line, is_attribute) of every name loaded and every attribute
    read in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_every_definition_is_reached():
    refs = {p: list(_references(p)) for p in READERS}
    exported = set(weyl4.__all__)
    unreached = []
    for path in MODULES:
        for qualname, first, last in _definitions(path):
            if qualname in exported:
                continue
            name = qualname.rsplit(".", 1)[-1]
            is_member = "." in qualname  # a method or property is only read as an attribute
            reached = any(
                ref == name and (attr or not is_member) and not (p == path and first <= line <= last)
                for p, found in refs.items()
                for ref, line, attr in found
            )
            if not reached:
                unreached.append(f"{path.name}:{first} {qualname}")
    assert not unreached, "defined in src/weyl4 but reached only from tests: " + ", ".join(unreached)


def test_every_package_exception_has_one_root():
    assert "Weyl4Error" in weyl4.__all__
    foreign = []
    for path in MODULES:
        module = importlib.import_module(f"weyl4.{path.stem}" if path.stem != "__init__" else "weyl4")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                if not issubclass(cls, weyl4.Weyl4Error):
                    foreign.append(f"{module.__name__}.{name}")
    assert not foreign, "exceptions outside the Weyl4Error hierarchy: " + ", ".join(foreign)
