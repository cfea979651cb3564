"""Declared dependencies match what the package imports."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_every_dependency_is_imported():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "fbmbt").glob("*.py"))
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        module = name.lower().replace("-", "_")
        pattern = rf"^\s*(import|from)\s+{re.escape(module)}\b"
        assert re.search(pattern, source, re.MULTILINE), \
            f"{requirement!r} is declared but src/fbmbt never imports {module}"
