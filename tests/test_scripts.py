"""Every script under ``scripts/`` loads: a ``sldsim`` name that a script
imports and that is renamed or deleted fails here, not minutes into a
run of the script."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # main() runs under __main__ only
    assert callable(module.main)
