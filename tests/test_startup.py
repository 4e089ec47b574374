"""Importing distmon stays light: every CLI call pays for the import.

The records are NamedTuples, so neither ``dataclasses`` nor what it pulls
in (``inspect``, and with it ``ast``, ``dis`` and ``tokenize``) is loaded.
Only the JSON report hashes its document, so ``hashlib`` waits for it.
The kernel layer, ``exactlin``, decides no axiom and imports no module of
the package but ``errors``, so no module has to import inside a function
to break a cycle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
bare = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


@pytest.mark.parametrize("module", ["distmon", "distmon.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                         env=env, capture_output=True, text=True, check=True)
    added = set(json.loads(out.stdout))
    assert module in added
    assert not added & {"dataclasses", "inspect", "hashlib"}


def _package_modules(node):
    """The ``distmon`` modules an import statement names ("distmon" for
    the package itself)."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module or "distmon"]
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [name.partition(".")[2] or name for name in names
            if name.split(".")[0] == "distmon"]


def _tree(module):
    return ast.parse((SRC / "distmon" / f"{module}.py").read_text())


def test_the_kernel_layer_imports_only_errors():
    imported = {m for node in ast.walk(_tree("exactlin"))
                for m in _package_modules(node)}
    assert imported <= {"errors"}
    # reports reads exactlin's layouts; with no cycle it imports at the top
    nested = [node.lineno for fn in ast.walk(_tree("reports"))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
