"""Project metadata: every console-script entry point and every name a
module exports must resolve, and every entry point the benchmark's layer
trace patches must be called where it is patched."""

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
    for mod_name, attr, layer in layertrace.ENTRY_POINTS:
        assert hasattr(importlib.import_module(mod_name), attr), layer
    assert misplaced(layertrace.ENTRY_POINTS) == []
