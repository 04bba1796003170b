"""Importing mdkit pulls in nothing beyond the standard library and numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import mdkit, mdkit.cli
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def test_no_runtime_dependency_beyond_numpy():
    # compare against a bare interpreter: site-packages may preload modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = set(json.loads(out))
    assert "mdkit" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "mdkit"}
    assert sorted(added - allowed) == []
