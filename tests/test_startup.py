"""Importing distmon stays light: every CLI call pays for the import.

The records are NamedTuples, so neither ``dataclasses`` nor what it pulls
in (``inspect``, and with it ``ast``, ``dis`` and ``tokenize``) is loaded.
Only the JSON report hashes its document, so ``hashlib`` waits for it.
"""

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
