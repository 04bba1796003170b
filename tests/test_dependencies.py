"""Importing mdkit pulls in nothing beyond the standard library and numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


RANDOM_PROBE = """
import contextlib, io, sys
from mdkit import cli
for argv in (["fusion", "su2:4"], ["fusion", "preset:toric_code"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


def test_fusion_does_not_import_numpy_random():
    # the check of the fusion ring draws its coefficients from a fixed
    # hash: importing numpy.random costs about 10 ms per process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", RANDOM_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


GOLDEN_PROBE = """
import contextlib, io, json, sys
from mdkit import cli
for case in json.load(open("perfbench/golden/cli/commands.json")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(case["argv"]) == case["exit"], case["argv"]
print(json.dumps(sorted(name for name in ("numpy.random", "numpy.ma", "secrets",
                                          "hashlib") if name in sys.modules)))
"""


def test_golden_commands_import_neither_numpy_random_nor_numpy_ma():
    # every command of the benchmark's golden set, in one process: a
    # character table reads its coefficients from mdkit._normals, and
    # numpy.random would bring secrets and hashlib (OpenSSL) with it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", GOLDEN_PROBE], env=env, check=True,
                         capture_output=True, text=True, cwd=ROOT).stdout
    assert json.loads(out) == []


LOADED_PROBE = """
import contextlib, io, json, sys
from mdkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("mdkit"))))
"""


@pytest.mark.parametrize("argv, unloaded", [
    (["build", "double:S3"], {"mdkit.invariants", "mdkit.algebras"}),
    (["validate", "su2:10"], {"mdkit.invariants", "mdkit.algebras"}),
    (["fusion", "double:Z_3"], {"mdkit.invariants", "mdkit.algebras"}),
    (["witt", "double:Z_3", "su2:2"], {"mdkit.invariants"}),
    (["anisotropy", "tdouble:4:2"], {"mdkit.invariants"}),
    (["algebra", "screen", "preset:toric_code", "--mult", "1,1,0,0"],
     {"mdkit.invariants"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", LOADED_PROBE, json.dumps(argv)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    loaded = set(json.loads(out))
    assert "mdkit.modular_data" in loaded
    assert loaded & unloaded == set()


def test_package_exports_resolve_lazily():
    import mdkit
    from mdkit import modular_data

    # one home for each exported name, and none for a name not exported
    assert set(mdkit._HOME_OF) == set(mdkit.__all__) - {"__version__"}
    names = {}
    exec("from mdkit import *", names)
    for name in mdkit.__all__:
        value = getattr(mdkit, name)
        assert names[name] is value
        assert name in dir(mdkit)
    # read from the home module on every access, never cached here
    assert "validate" not in vars(mdkit)
    assert mdkit.validate is modular_data.validate
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mdkit.no_such_name  # noqa: B018


def test_an_export_follows_its_home_module(monkeypatch):
    # a function replaced in its home module (as a tracer wraps it) is
    # the one the package hands out, and the original comes back after
    import mdkit
    from mdkit import modular_data

    original = modular_data.validate

    def wrapped(md):
        return original(md)

    monkeypatch.setattr(modular_data, "validate", wrapped)
    assert mdkit.validate is wrapped
    monkeypatch.undo()
    assert mdkit.validate is original
