"""The package's public names."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import msprobit

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_every_exported_name_resolves():
    missing = [name for name in msprobit.__all__ if not hasattr(msprobit, name)]
    assert not missing, missing
    namespace = {}
    exec("from msprobit import *", namespace)
    assert set(msprobit.__all__) <= set(namespace)


def test_demos_import_only_exported_names():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    unexported = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "msprobit":
                unexported += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name not in msprobit.__all__
                ]
    assert not unexported, unexported


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "msprobit").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(
                    (alias.asname or alias.name.split(".")[0], node.lineno)
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused
