"""The declared runtime dependencies are exactly the third-party imports."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_packages():
    """Top-level names of every absolute import in the package source."""
    names = set()
    for path in sorted((ROOT / "src" / "inforate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower() for d in deps}


def test_dependencies_match_third_party_imports():
    third_party = {
        n for n in imported_packages() if n not in sys.stdlib_module_names
    } - {"inforate"}
    assert third_party == declared_dependencies()


def test_every_declared_dependency_is_importable():
    missing = [d for d in declared_dependencies() if importlib.util.find_spec(d) is None]
    assert not missing, f"declared but not importable: {missing}"
