"""The installable package's metadata, the frozen benchmark and README point
at code that exists; the system reads every public name of the library; no
module imports a name it never reads; and the network walk multiplies
through ndarray.dot."""

import ast
import collections
import importlib
import re
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


# public names that no file of src/ or perfbench/ reads, kept on purpose
READ_BY_TESTS_ONLY = {
    # one-input contracts, which the tests compare the batch forms against
    "measure_energy", "guarded_inference",
    # input-quality scores, which wait for a run record to read them
    "psnr", "ssim", "avg_squared_difference",
}


def _reads(node):
    """Counter of the names read under `node`, as a name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_public_library_name_is_read_by_the_system():
    # a public top-level function or class of the library is read by some
    # file of src/ or perfbench/ outside its own def: one that only tests
    # call twins a path the system runs, or belongs with the tests
    library = sorted((ROOT / "src" / "adnn_energy_lab").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in library + sorted((ROOT / "perfbench").glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    unread = [(path.name, node.name) for path in library for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in READ_BY_TESTS_ONLY
              and reads[node.name] == _reads(node)[node.name]]
    assert not unread, unread


def test_every_library_name_readme_cites_exists():
    # a backticked `module.name` whose module is one of the library's; a
    # file name such as `nn.py` is no citation
    package = ROOT / "src" / "adnn_energy_lab"
    modules = {path.stem for path in package.glob("*.py")}
    cites = [(module, name) for module, name in
             re.findall(r"`(\w+)\.(\w+)", (ROOT / "README.md").read_text())
             if module in modules and name != "py"]
    missing = [cite for cite in cites
               if not hasattr(importlib.import_module("adnn_energy_lab." + cite[0]), cite[1])]
    assert cites and not missing, missing


def test_readme_is_a_module_reference():
    # README is a short reference with one section per library module; the
    # module docstrings hold the detail
    lines = (ROOT / "README.md").read_text().splitlines()
    assert len(lines) <= 300, "README.md has %d lines, above 300" % len(lines)
    headings = [line for line in lines if line.startswith("#")]
    modules = sorted(path.stem for path in (ROOT / "src" / "adnn_energy_lab").glob("*.py")
                     if path.stem != "__init__")
    missing = [module for module in modules
               if not any(re.search(r"\b%s\b" % module, heading) for heading in headings)]
    assert not missing, missing


def test_no_module_imports_a_name_it_never_uses():
    # a top-level import is used if its bound name is read anywhere in the
    # module, or listed in __all__; `from __future__` binds nothing. The
    # library's modules and the tests' are held to it alike
    unused = []
    paths = sorted((ROOT / "src" / "adnn_energy_lab").glob("*.py"))
    for path in paths + sorted((ROOT / "tests").glob("*.py")):
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


def test_the_network_walk_multiplies_through_ndarray_dot():
    # `@` and np.matmul dispatch through the matmul ufunc, which costs more
    # per call than ndarray.dot for the same BLAS call (see nn's docstring)
    path = ROOT / "src" / "adnn_energy_lab" / "nn.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)
             or (isinstance(node, ast.Attribute) and node.attr == "matmul")
             or (isinstance(node, ast.Name) and node.id == "matmul")]
    assert not found, ("nn.py multiplies through the matmul ufunc (%d uses of @ or matmul); "
                       "use ndarray.dot, or np.dot(out=) into a C-contiguous slice: the "
                       "ufunc's dispatch costs more per call for the same BLAS call"
                       % len(found))
