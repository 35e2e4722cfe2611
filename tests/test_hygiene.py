"""Source hygiene: no module of the package, its tests or its tools
imports a name it never uses, no private module-level function or class
goes unused, no package function has a parameter it never reads, the
package reads no environment variable, numpy is its only
third-party runtime import (scipy is a test-only oracle), and no two
derived generators of the training code share a key.

No linter ships with the package, so this AST scan is the check. A name
counts as used when it appears as a bare name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in
``__all__``. Every setting reaches the package as an argument (the CLI's
flags and config keys), never through the environment.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("src/groundlm", "tests", "tools")
           for path in sorted((ROOT / folder).glob("*.py"))]


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


def unread_parameters(source: str):
    """(line, function, parameter) of each parameter of a function or lambda
    that its body never names; ``self``, ``cls`` and ``_``-prefixed names are
    exempt. A nested function or lambda that reads the name counts as the body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                 *args.kwonlyargs, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), arg.arg) for arg in params
                  if arg.arg not in named and arg.arg not in ("self", "cls")
                  and not arg.arg.startswith("_")]
    return found


# Kept only because the frozen benchmark session (perfbench/session.py) passes
# ``threads=1`` to the three ``threads`` entries and the store's offsets as
# ``build_synset_index``'s third argument; tests/test_bench_contract.py
# asserts both call forms.
IGNORED_PARAMETERS = {("associate.py", "build_synset_index", "offsets"),
                      ("finetune.py", "finetune", "threads"),
                      ("train.py", "evaluate_perplexity", "threads"),
                      ("train.py", "pretrain", "threads")}


def test_no_unread_parameters():
    found = {(path.name, function, param): line
             for path in sorted((ROOT / "src" / "groundlm").glob("*.py"))
             for line, function, param in unread_parameters(path.read_text(encoding="utf-8"))}
    unread = sorted(set(found) - IGNORED_PARAMETERS)
    assert not unread, "parameters their function never reads: " + ", ".join(
        f"{module}:{found[module, function, param]} {function}({param})"
        for module, function, param in unread)
    assert set(found) == IGNORED_PARAMETERS, "stale allowlist entries: " + \
        ", ".join(map(str, sorted(IGNORED_PARAMETERS - set(found))))


def test_parameter_scan_flags_unread_and_keeps_read():
    source = ("def f(self, a, b, _c, *args, d=1, **kw):\n    return a + kw['x']\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n"
              "h = lambda y, z: y\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "args"), (1, "f", "d"),
                                         (7, "<lambda>", "z")]


def test_no_environment_reads():
    readers = [path.name for path in sorted((ROOT / "src" / "groundlm").glob("*.py"))
               if any(word in path.read_text(encoding="utf-8")
                      for word in ("environ", "getenv"))]
    assert not readers, f"modules reading the environment: {readers}"


def test_package_imports_no_scipy():
    importers = []
    for path in sorted((ROOT / "src" / "groundlm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, f"scipy imported at {importers}"


def test_fresh_interpreter_loads_no_scipy():
    # a subprocess: this test process has scipy loaded by the oracle tests
    modules = [f"groundlm.{path.stem}" for path in sorted((ROOT / "src" / "groundlm").glob("*.py"))
               if path.stem != "__main__"]  # __main__ runs the CLI; cli is imported here
    code = (f"import importlib, json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"[importlib.import_module(m) for m in {modules!r}]; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = json.loads(out.stdout)
    assert "groundlm.cli" in loaded and "groundlm.finetune" in loaded
    scipy_modules = [name for name in loaded if name.split(".")[0].startswith("scipy")]
    assert not scipy_modules, f"importing groundlm loaded {scipy_modules[:5]}"


def rng_keys(source: str):
    """(key, is_base, line) of each ``default_rng([seed, key])`` call: a
    constant key as itself, a per-epoch key ``base + e`` as its base. Any
    other call of ``default_rng`` is returned with key None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and getattr(func, "attr", None) == "default_rng"):
            continue
        arg = node.args[0] if len(node.args) == 1 else None
        key = arg.elts[1] if isinstance(arg, ast.List) and len(arg.elts) == 2 else None
        if isinstance(key, ast.Constant) and isinstance(key.value, int):
            found.append((key.value, False, node.lineno))
        elif (isinstance(key, ast.BinOp) and isinstance(key.op, ast.Add)
              and isinstance(key.left, ast.Constant) and isinstance(key.right, ast.Name)):
            found.append((key.left.value, True, node.lineno))
        else:
            found.append((None, False, node.lineno))
    return found


def key_clashes(keys):
    """What makes two derived generators share a stream: an unreadable key,
    a key used at two call sites, or a constant key at or above a per-epoch base."""
    problems = [f"line {line}: key is not [seed, constant] or [seed, base + e]"
                for key, _base, line in keys if key is None]
    values = [key for key, _base, _line in keys if key is not None]
    problems += [f"key {key} used {values.count(key)} times"
                 for key in sorted(set(values)) if values.count(key) > 1]
    bases = [key for key, base, _line in keys if base]
    problems += [f"line {line}: constant key {key} reaches the per-epoch base {min(bases)}"
                 for key, base, line in keys if key is not None and not base and bases
                 and key >= min(bases)]
    return problems


def test_derived_generator_keys_are_distinct():
    keys = []
    for name in ("train.py", "finetune.py"):
        keys += rng_keys((ROOT / "src" / "groundlm" / name).read_text(encoding="utf-8"))
    assert len(keys) >= 8
    assert not key_clashes(keys), key_clashes(keys)


def test_key_scan_flags_shared_and_unreadable_keys():
    source = ("import numpy as np\n"
              "a = np.random.default_rng([s, 3])\n"
              "b = np.random.default_rng([s, 1000 + e])\n"
              "c = np.random.default_rng([s, 3])\n"
              "d = np.random.default_rng([s, k])\n"
              "f = np.random.default_rng([s, 1500])\n")
    keys = rng_keys(source)
    assert keys == [(3, False, 2), (1000, True, 3), (3, False, 4), (None, False, 5),
                    (1500, False, 6)]
    assert key_clashes(keys) == [
        "line 5: key is not [seed, constant] or [seed, base + e]", "key 3 used 2 times",
        "line 6: constant key 1500 reaches the per-epoch base 1000"]
    assert key_clashes(rng_keys(source.split("c =")[0])) == []
