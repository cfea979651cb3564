"""Declared dependencies match what the package and its tests import,
every module-level import is used, and every export exists."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_every_dependency_is_imported():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "fbmbt").glob("*.py"))
    for requirement in project["dependencies"]:
        module = _distribution_module(requirement)
        pattern = rf"^\s*(import|from)\s+{re.escape(module)}\b"
        assert re.search(pattern, source, re.MULTILINE), \
            f"{requirement!r} is declared but src/fbmbt never imports {module}"


def test_numpy_floor_has_fft_out():
    # fgn._embed writes irfft into a reused array through ``out=``, which
    # numpy.fft takes from numpy 2.0 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    (numpy_req,) = [r for r in project["dependencies"]
                    if _distribution_module(r) == "numpy"]
    floor = re.search(r">=\s*(\d+)\.(\d+)", numpy_req)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0), numpy_req
    fgn_source = (ROOT / "src" / "fbmbt" / "fgn.py").read_text()
    assert re.search(r"np\.fft\.irfft\([^)]*\bout=", fgn_source)


def _distribution_module(requirement):
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")


def _third_party_imports(directory):
    """Top-level modules imported anywhere in ``directory``'s sources, less
    the standard library, fbmbt and the directory's own modules."""
    local = {p.stem for p in directory.glob("*.py")} | {"fbmbt"}
    imported = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - local


def test_every_import_is_declared():
    # the package may import only its dependencies; the tests may also
    # import the ``test`` extra
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {_distribution_module(r) for r in project["dependencies"]}
    test = {_distribution_module(r) for r in project["optional-dependencies"]["test"]}
    package = _third_party_imports(ROOT / "src" / "fbmbt")
    assert package <= runtime
    tests = _third_party_imports(ROOT / "tests")
    assert "scipy" in tests
    assert not tests - runtime - test, \
        f"tests import {sorted(tests - runtime - test)}, not declared in pyproject.toml"


def _annotation_names(tree):
    """Names in string annotations such as ``"int | SeedRecord"``."""
    nodes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            nodes += [a.annotation for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            nodes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            nodes.append(node.annotation)
    names = set()
    for ann in nodes:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "fbmbt").glob("*.py") if p.name != "__init__.py"))
def test_every_module_import_is_used(module):
    tree = ast.parse((ROOT / "src" / "fbmbt" / module).read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    unused = sorted(set(imported) - used)
    assert not unused, f"src/fbmbt/{module} imports {unused} but never uses them"


def _module_names(module):
    """(``__all__``, names bound at module level) of one source module."""
    tree = ast.parse((ROOT / "src" / "fbmbt" / module).read_text())
    exported, defined = None, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {a.asname or a.name.split(".")[0] for a in node.names}
    return exported, defined


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "fbmbt").glob("*.py") if p.name != "__init__.py"))
def test_every_export_is_defined(module):
    exported, defined = _module_names(module)
    assert exported is not None, f"src/fbmbt/{module} has no __all__"
    missing = sorted(set(exported) - defined)
    assert not missing, f"src/fbmbt/{module} exports undefined {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse((ROOT / "src" / "fbmbt" / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported, _ = _module_names(f"{node.module}.py")
            stale = sorted({a.name for a in node.names} - set(exported or ()))
            assert not stale, \
                f"fbmbt/__init__.py imports {stale} from {node.module}, not in its __all__"
