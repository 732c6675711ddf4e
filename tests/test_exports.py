import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import lyapunov_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lyapunov_lab"
MODULES = {m.name for m in pkgutil.iter_modules(lyapunov_lab.__path__)} - {"__main__"}  # importing it runs the CLI

# a code span that opens with a dotted name, `module.name` or `lyapunov_lab.module[.name]`, and ends or opens a call
_DOTTED = re.compile(r"`(\w+(?:\.\w+)+)[`(]")


def test_every_exported_name_resolves():
    assert len(MODULES) > 1  # the package path was walked
    for m in sorted(MODULES):
        module = importlib.import_module(f"lyapunov_lab.{m}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}, which it lacks"


def test_importing_the_package_loads_no_module():
    env = dict(os.environ, PYTHONPATH=str(Path(lyapunov_lab.__file__).resolve().parents[1]))
    code = "import sys, lyapunov_lab; print([m for m in sys.modules if m.startswith('lyapunov_lab.')])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _package_names(text: str) -> tuple[list[str], list[str]]:
    """(every package name in text's code spans, those that name no module or attribute)."""
    found, missing = [], []
    for ref in _DOTTED.findall(text):
        parts = ref.split(".")
        if parts[0] == "lyapunov_lab":
            parts = parts[1:]
        elif parts[0] not in MODULES:
            continue  # not the package's: `manifest.json`, `RngStream.seek_row`, `0.5`
        found.append(ref)
        if parts[0] not in MODULES:
            missing.append(ref)
            continue
        obj = importlib.import_module(f"lyapunov_lab.{parts[0]}")
        for attr in parts[1:]:
            if not hasattr(obj, attr):
                missing.append(ref)
                break
            obj = getattr(obj, attr)
    return found, missing


def test_docs_name_only_package_names_that_exist():
    total = 0
    for doc in ("README.md", "docs/manifest.md"):
        found, missing = _package_names((ROOT / doc).read_text())
        assert missing == [], doc
        total += len(found)
    assert total >= 10  # the pattern still finds the references the docs hold
    stale = "`lyapunov_lab.errors` holds them; `laws.law_from_name(name)` and `chain.run_chain` resolve"
    assert _package_names(stale)[1] == ["lyapunov_lab.errors", "laws.law_from_name"]


def _read_names(tree: ast.AST) -> list[str]:
    """The names a module reads: bare names, attributes of dotted ones, and names it imports from another module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level names a module defines that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _dead_names(trees: dict[str, ast.Module]) -> list[str]:
    """Imports a module never reads, and module-level private names that nothing in the package reads."""
    dead = []
    read_anywhere = {name for tree in trees.values() for name in _read_names(tree)}
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        dead.append(f"{module}: import {bound}")
        dead.extend(f"{module}: {name}" for name in _private_definitions(tree) if name not in read_anywhere)
    return dead


def test_no_unused_import_or_private_name_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    assert _dead_names(trees) == []
    # what a deletion leaves behind: a helper's last call and its import, gone
    left_behind = ast.parse("from .util import log_abs_bigint\n_SCALE = 2.0\ndef _helper():\n    return _SCALE\n")
    assert _dead_names({"v.py": left_behind}) == ["v.py: import log_abs_bigint", "v.py: _helper"]
