"""Tests for the package's public surface."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import fluidcell
import fluidcell.cli

LIBRARY_MODULES = ("channel", "field", "geometry", "mc", "numerics", "outage")


def test_every_exported_name_resolves():
    missing = [n for n in fluidcell.__all__ if not hasattr(fluidcell, n)]
    assert missing == []


def test_exports_are_the_union_of_the_library_modules():
    lists = [importlib.import_module(f"fluidcell.{name}").__all__
             for name in LIBRARY_MODULES]
    union = [n for names in lists for n in names]
    assert len(set(union)) == len(union)
    assert sorted(fluidcell.__all__) == sorted(union)


def test_command_line_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(fluidcell.cli))
    unexported = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(
            f"fluidcell.{node.module}").__all__
    ]
    assert unexported == []


def test_import_leaves_the_command_line_unloaded():
    # the command line is imported on its own, so `import fluidcell`
    # loads the library modules and nothing else of the package
    script = (
        "import sys, fluidcell\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith('fluidcell'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(fluidcell.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == sorted(
        ["fluidcell"] + [f"fluidcell.{name}" for name in LIBRARY_MODULES])
