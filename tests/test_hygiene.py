"""Source hygiene: no module imports a name it never uses, no private
module-level function or class goes unused, and the package reads no
environment variable.

No linter ships with the package, so this AST scan is the check. A name
counts as used when it appears as a bare name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in
``__all__``. Every setting reaches the package as an argument (the CLI's
flags and config keys), never through the environment.
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


def unused_private_definitions(sources):
    """(module, name) of each module-level ``_name`` function or class that
    no module of ``sources`` (module name -> source) names again."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(pair for pair in defined if pair[1] not in named)


def test_no_unused_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "groundlm").glob("*.py"))}
    found = unused_private_definitions(sources)
    assert not found, "private definitions named nowhere else in the package: " + \
        ", ".join(f"{module}:{name}" for module, name in found)


def test_private_scan_flags_unused_and_keeps_used():
    sources = {"a.py": "def _kept():\n    pass\n\ndef _dead():\n    pass\n"
                       "class _Row:\n    pass\n",
               "b.py": "from .a import _Row\n\ndef f():\n    return a._kept()\n"}
    assert unused_private_definitions(sources) == [("a.py", "_dead")]


def test_no_environment_reads():
    readers = [path.name for path in sorted((ROOT / "src" / "groundlm").glob("*.py"))
               if any(word in path.read_text(encoding="utf-8")
                      for word in ("environ", "getenv"))]
    assert not readers, f"modules reading the environment: {readers}"
