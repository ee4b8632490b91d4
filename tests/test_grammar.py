"""Every Python file parses under the oldest Python that pyproject.toml
declares (requires-python >= 3.10).

This checks grammar only: ``ast.parse`` with ``feature_version`` refuses
syntax newer than 3.10 (``except*``, PEP 695 type parameters, ...), but it
imports nothing, so a name missing from the 3.10 standard library or
numpy passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_as_python_3_10():
    paths = sorted(
        path
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert ROOT / "src" / "inforate" / "estimate.py" in paths
    refused = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
            ast.parse(text, str(path), feature_version=(3, 10))
        except SyntaxError as e:
            refused.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert refused == []
