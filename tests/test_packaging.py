"""Project metadata: every console-script entry point must resolve."""

import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_script_entry_points_resolve():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), name
