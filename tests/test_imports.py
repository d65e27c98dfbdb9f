"""What the package imports.

No module of the package imports a name it does not use: each
``src/edgedispatch/*.py`` is parsed with ``ast``. A name an import binds
must be read somewhere in the module, be listed in its ``__all__``, or sit
on a line marked ``# noqa: F401`` (a deliberate re-export).
``from __future__`` imports bind nothing and are skipped.

jsonschema is a test dependency only: the package reads a scenario's shape
itself, and the tests hold that read to jsonschema. Nor does the package
import ``csv``: the trace has one fixed format with its own codec.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "edgedispatch"


def unused_imports(source: str) -> list[str]:
    """The imported names of ``source`` that nothing reads or exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in read or name in exported:
                continue
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import json as j",
            "from math import ceil, floor",
            "from sys import argv  # noqa: F401",
            "from re import (",
            "    compile,",
            "    escape,",
            ")",
            "__all__ = ['floor']",
            "print(os.getcwd(), compile)",
        ]
    )
    assert unused_imports(source) == ["line 3: j", "line 4: ceil", "line 8: escape"]


def imported_by_the_package(module: str) -> bool:
    """Whether a fresh ``import edgedispatch, edgedispatch.cli`` loads ``module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = f"import sys, edgedispatch, edgedispatch.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout.strip() == "True"


def test_the_package_does_not_import_jsonschema():
    assert not imported_by_the_package("jsonschema")


def test_the_package_does_not_import_csv():
    assert not imported_by_the_package("csv")
    assert imported_by_the_package("json")
