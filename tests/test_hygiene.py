"""Source hygiene: no module imports a name it never uses.

No linter ships with the package, so this AST scan is the check. A name
counts as used when it appears as a bare name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in
``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "groundlm").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name}: unused imports " + ", ".join(
        f"{name!r} (line {line})" for line, name in found)


def test_scan_flags_unused_and_keeps_used():
    source = ("import os\nimport numpy as np\nfrom typing import List, Optional\n"
              "from .x import exported\n__all__ = ['exported']\n"
              "def f(a: List[int]):\n    return np.zeros(len(a))\n")
    assert unused_imports(source) == [(1, "os"), (3, "Optional")]
