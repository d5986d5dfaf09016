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


def test_no_library_module_imports_a_name_it_never_uses():
    # a top-level import is used if its bound name is read anywhere in the
    # module, or listed in __all__; `from __future__` binds nothing
    unused = []
    for path in sorted((ROOT / "src" / "adnn_energy_lab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {ast.literal_eval(elt) for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append((path.name, alias.name))
    assert not unused
