"""Project metadata: every console-script entry point and every name a
module exports must resolve, every name the benchmark's layer trace
patches must resolve and be called where it is patched, no module
imports a name it never reads, and every top-level function, class and
constant of the package, and every method of its top-level classes, is
read by the package or the benchmark."""

import ast
import importlib
import pkgutil
import sys
import tomllib
from pathlib import Path

import hyflow

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_script_entry_points_resolve():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), name


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(hyflow.__path__):
        module = importlib.import_module(f"hyflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"hyflow.{info.name}.{name}"


def test_layer_trace_entry_points_are_called_where_patched():
    # the benchmark's layer trace patches each entry point in the module
    # that calls it by that global name; a refactor that renames or stops
    # calling one must fail here, not only in a benchmark run
    perfbench = str(PYPROJECT.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import layertrace
        from test_perfbench import misplaced
    finally:
        sys.path.remove(perfbench)
    assert misplaced(layertrace.ENTRY_POINTS) == []


def test_every_name_the_layer_trace_patches_resolves():
    # read as data, so this holds even where the trace cannot be imported
    source = (PYPROJECT.parent / "perfbench" / "layertrace.py").read_text()
    entry_points = next(
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"])
    names = [(mod, attr) for mod, attr, _layer in entry_points]
    for mod_name, attr in names + [("hyflow.affine", "mul")]:
        assert callable(getattr(importlib.import_module(mod_name), attr,
                                None)), f"{mod_name}.{attr}"


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports (outside `from
    __future__`) and never reads. A read is a loaded name, a name in a
    string annotation, or an entry of `__all__`."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= string_annotation_names(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns):
            read |= string_annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def string_annotation_names(annotation) -> set:
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


def test_unused_import_scan_counts_every_kind_of_read():
    source = """from __future__ import annotations
import os, os.path as osp
from typing import TYPE_CHECKING, Any
from fractions import Fraction
from json import dumps
from math import pi
if TYPE_CHECKING:
    from re import Pattern
__all__ = ["dumps"]
def f(a: Any, b: "Pattern") -> "Fraction":
    return os.sep
"""
    assert unused_imports(source) == [(2, "osp"), (6, "pi")]


def test_no_module_imports_a_name_it_never_reads():
    root = PYPROJECT.parent
    unused = {str(path.relative_to(root)): found
              for folder in ("src/hyflow", "tests")
              for path in sorted((root / folder).glob("*.py"))
              if (found := unused_imports(path.read_text()))}
    assert unused == {}


# names of the package that only tests read, with the reason
TEST_ONLY = {
    "affine.sample": "the test oracle: a form's value at one valuation of "
                     "its noise symbols",
    "interval.Interval.contains": "the test oracle: whether an interval "
                                  "holds one exact value",
}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITION = (*FUNCTION, ast.ClassDef)


def definitions(source: str) -> list:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, DEFINITION)]


def methods(source: str) -> list:
    """`Class.name` of each function and property in the body of a
    top-level class of `source`, but dunders."""
    return [f"{stmt.name}.{node.name}" for stmt in ast.parse(source).body
            if isinstance(stmt, ast.ClassDef)
            for node in stmt.body if isinstance(node, FUNCTION)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def constants(source: str) -> list:
    """Names bound by the top-level assignments of `source`, but `__all__`."""
    return [name.id for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id != "__all__"]


def names_read(source: str) -> set:
    """Names `source` reads, as a loaded name or an attribute; a read inside
    the body of the top-level definition of that name, or of a method of
    that name in a top-level class, does not count."""
    read = set()

    def scan(tree, *own):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name not in own:
                    read.add(name)

    for stmt in ast.parse(source).body:
        if not isinstance(stmt, DEFINITION):
            scan(stmt)
        elif not isinstance(stmt, ast.ClassDef):
            scan(stmt, stmt.name)
        else:
            for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                scan(part, stmt.name)
            for node in stmt.body:
                scan(node, stmt.name,
                     *([node.name] if isinstance(node, FUNCTION) else []))
    return read


def test_dead_definition_scan_skips_reads_in_their_own_body():
    source = """import math
def walk(n):
    return walk(n - 1) if n else math.pi
def used():
    return 1
class Node:
    def child(self):
        return Node()
x = used()
"""
    assert [name for name in definitions(source)
            if name not in names_read(source)] == ["walk", "Node"]
    assert "pi" in names_read(source)


def test_dead_constant_scan_sees_every_assigned_name():
    source = """__all__ = ["f"]
A, (B, C) = 1, (2, 3)
D: int = A
E = [B]
def f():
    return D + C
"""
    assert [name for name in constants(source)
            if name not in names_read(source)] == ["E"]


def test_dead_method_scan_names_each_unread_method():
    source = """class Node:
    def __init__(self, kids):
        self.kids = kids
    def size(self):
        return 1 + sum(k.size() for k in self.kids)
    @property
    def leaf(self):
        return not self.kids
    def root(self):
        return self
    x = 1
def count(n):
    return n.leaf
"""
    assert methods(source) == ["Node.size", "Node.leaf", "Node.root"]
    assert [name for name in methods(source)
            if name.rpartition(".")[2] not in names_read(source)] == [
                "Node.size", "Node.root"]


def test_every_definition_is_read_outside_the_tests():
    root = PYPROJECT.parent
    package = sorted((root / "src" / "hyflow").glob("*.py"))
    readers = package + [path for path in sorted((root / "perfbench")
                                                  .glob("*.py"))
                         if not path.name.startswith("test_")]
    read = set().union(*(names_read(path.read_text()) for path in readers))
    unread = [f"{path.stem}.{name}" for path in package
              for name in [*definitions(path.read_text()),
                           *constants(path.read_text()),
                           *methods(path.read_text())]
              if name.rpartition(".")[2] not in read]
    assert sorted(unread) == sorted(TEST_ONLY)
