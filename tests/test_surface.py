"""Package-surface guards.

Every function, class, method and property defined in ``src/weyl4`` must be
reached from the package itself, from ``demos/`` or from ``weyl4.__all__``;
code that only tests call belongs in ``tests/`` (see ``paper_oracles.py``).
Only ``exprjet`` reads the coefficient layout of a jet; every other module
reads derivative values through ``jpartials``.  Every exception the package
defines shares the ``Weyl4Error`` root, which is what ``weyl4 ...`` maps to
exit code 2.  Every dataclass field is read somewhere, and the benchmark's
tracer (``perfbench/tracer.py``) still finds every function and binding it
wraps by name, and sees every workload reach each layer it must reach.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import weyl4
from conftest import perfbench_module

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


def test_only_exprjet_reads_the_coefficient_layout():
    readers = [
        f"{path.name}:{n} {token}"
        for path in MODULES
        if path.name != "exprjet.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for token in ("tables(", ".pos[", ".factorials")
        if token in line
    ]
    assert not readers, "jet coefficient layout read outside exprjet: " + ", ".join(readers)


def _dataclass_fields(path: Path):
    """(class, field, line) of every field of each ``@dataclass`` class in a file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def _field_reads(path: Path):
    """Names read as attributes in a file, and names given as strings to ``require`` or ``getattr``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in (
            "require", "getattr"
        ):
            yield from (a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))


def test_every_dataclass_field_is_read():
    readers = READERS + sorted((ROOT / "tests").glob("*.py"))
    read = {name for p in readers for name in _field_reads(p)}
    unread = [f"{path.name}:{line} {cls}.{name}" for path in MODULES
              for cls, name, line in _dataclass_fields(path) if name not in read]
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def test_benchmark_tracer_attaches_and_restores(monkeypatch):
    # entering the tracer looks up every wrapped function by name and checks each module
    # listed as binding it; leaving it puts every original back, and no workload is run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    modules = {name: m for name, m in sys.modules.items() if name.startswith("weyl4.")}
    before = {(name, key): value for name, m in modules.items() for key, value in vars(m).items()}
    with tracer.Tracer():
        pass
    after = {(name, key): value for name, m in modules.items() for key, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_every_workload_reaches_its_traced_layers(tmp_path):
    # one cycle of each benchmark workload under the tracer, so that a change that stops a
    # workload from reaching a layer fails here in seconds, not only in perfbench/smoke.py
    tracer, workloads = perfbench_module("tracer"), perfbench_module("workloads")
    rng = np.random.default_rng(7)
    inputs = workloads.prepare(rng, tmp_path)
    for name, make_cycle in workloads.WORKLOADS.items():
        calls = make_cycle(inputs, rng)
        with tracer.Tracer() as traced:
            for call in calls:
                assert call.check(call.run()) is None, call.label
        traced.check_reached(name)
