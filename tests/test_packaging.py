"""The installable package's metadata, and the frozen benchmark, point at
code that exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_library_name_the_benchmark_imports_exists():
    # perfbench/ changes only in a benchmark revision, so a library change
    # must keep every module and name its files import
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in names:
                if module.partition(".")[0] == "adnn_energy_lab":
                    found.append((path.name, module, name))
                    imported = importlib.import_module(module)
                    assert name is None or hasattr(imported, name), (path.name, module, name)
    assert found, "no library import found in perfbench/"
