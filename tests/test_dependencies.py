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


MASKED_PROBE = """
import contextlib, io, sys
from mdkit import cli
for argv in (["build", "double:S3"], ["validate", "su2:10"],
             ["anisotropy", "tdouble:4:2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_commands_do_not_import_numpy_ma():
    # a plain np.unique asks np.ma.is_masked, which imports numpy.ma
    # (10-20 ms) on its first call in a process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", MASKED_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
