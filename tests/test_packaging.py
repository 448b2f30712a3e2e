"""Project metadata: every console-script entry point and every name a
module exports must resolve."""

import importlib
import pkgutil
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
