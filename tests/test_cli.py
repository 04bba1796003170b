"""End-to-end tests for the mdk command line interface."""

import io
import json

import numpy as np
import pytest

from mdkit.cli import run


def mdk(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_build_validate_round_trip(tmp_path):
    path = tmp_path / "toric.json"
    code, out, err = mdk("build", "preset:toric_code", "-o", str(path))
    assert code == 0, err
    doc = json.loads(path.read_text())
    assert doc["rank"] == 4
    code, out, err = mdk("validate", str(path))
    assert code == 0
    assert "overall: pass" in out


def test_build_prints_summary():
    code, out, err = mdk("build", "su2:2")
    assert code == 0
    assert "rank 3" in out
    # twists print as exact root-of-unity phases
    assert "exp(2*pi*i*3/16)" in out


def test_validate_reports_failure(tmp_path):
    code, out, _ = mdk("build", "preset:toric_code", "--format", "json")
    doc = json.loads(out)
    doc["T"][3] = {"re": 0.6, "im": 0.8}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = mdk("validate", str(path))
    assert code == 1
    assert "FAIL" in out
    # consumers refuse the file without --force
    code, out, err = mdk("fusion", str(path))
    assert code == 1
    assert "error:" in err
    code, out, err = mdk("fusion", str(path), "--force")
    assert code == 1  # still not a fusion ring, but the gate is explicit


def test_invariants_json_counts():
    code, out, err = mdk("invariants", "preset:fibonacci", "preset:fibonacci",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["invariants"][0]["kind"] == "diagonal"
    code, out, err = mdk("invariants", "preset:fibonacci", "preset:ising",
                         "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 0, "invariants": []}


def test_invariants_table_deterministic():
    runs = [mdk("invariants", "su2:10", "su2:10") for _ in range(2)]
    runs.append(mdk("invariants", "su2:10", "su2:10", "--workers", "3"))
    assert all(code == 0 for code, _, _ in runs)
    assert len({out for _, out, _ in runs}) == 1


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("build",),
    ("invariants", "preset:ising"),
    ("build", "su2:4", "--format", "yaml"),
    ("algebra", "screen", "preset:toric_code", "--mult", "1,x,0,0"),
    ("algebra", "from-invariant", "su2:4", "su2:4"),
])
def test_usage_errors_exit_2(argv):
    code, out, err = mdk(*argv)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("build", "su2:0"),
    ("build", "preset:nope"),
    ("build", "missing/file.json"),
    ("algebra", "screen", "preset:toric_code", "--mult", "0,1,0,0"),
    ("algebra", "from-invariant", "preset:fibonacci", "preset:fibonacci",
     "--index", "5"),
    ("anisotropy", "su2:16"),
])
def test_domain_errors_exit_1(argv):
    code, out, err = mdk(*argv)
    assert code == 1
    assert err.startswith("error:")


def test_algebra_screen_output():
    code, out, err = mdk("algebra", "screen", "preset:toric_code",
                         "--mult", "1,1,0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] is True
    assert doc["dim_gamma"] == 2.0
    names = {v["check"] for v in doc["verdicts"]}
    assert "trivial_twist_support" in names


def test_algebra_from_invariant_output():
    code, out, err = mdk("algebra", "from-invariant", "su2:4", "su2:4",
                         "--index", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] is True
    assert any(v["check"] == "maximal" and v["pass"]
               for v in doc["verdicts"])


def test_witt_single_and_pair():
    code, out, err = mdk("witt", "preset:fibonacci", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["central_charge"] == "14/5"
    assert doc["is_center_candidate"] is False
    code, out, err = mdk("witt", "preset:toric_code", "preset:double_semion",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "possibly_equivalent"


def test_anisotropy_output():
    code, out, err = mdk("anisotropy", "preset:toric_code", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["anisotropic"] is False
    assert len(doc["nontrivial"]) == 2


@pytest.mark.parametrize("argv", [
    ("build", "preset:ising"),
    ("validate", "su2:4"),
    ("fusion", "preset:toric_code"),
    ("invariants", "preset:ising", "preset:ising"),
    ("algebra", "screen", "preset:toric_code", "--mult", "1,0,1,0"),
    ("witt", "double:Z_3"),
    ("witt", "preset:ising", "preset:ising"),
    ("anisotropy", "preset:fibonacci"),
])
def test_json_mode_emits_json(argv):
    code, out, err = mdk(*argv, "--format", "json")
    assert code == 0
    json.loads(out)


def test_seed_does_not_change_output():
    # the degeneracy breaker only perturbs the eigenvector numerics, so
    # labels, ordering and twists agree exactly and S to full precision
    a = mdk("build", "double:S3", "--format", "json")
    b = mdk("build", "double:S3", "--format", "json", "--seed", "7")
    assert a[0] == b[0] == 0
    da, db = json.loads(a[1]), json.loads(b[1])
    assert da["labels"] == db["labels"]
    assert da["T"] == db["T"]
    for ra, rb in zip(da["S"], db["S"]):
        for za, zb in zip(ra, rb):
            assert abs(complex(za["re"], za["im"])
                       - complex(zb["re"], zb["im"])) < 1e-12


def test_eps_flag_beats_env(monkeypatch):
    monkeypatch.setenv("MDK_EPS", "1e-18")
    code, _, _ = mdk("validate", "preset:ising")
    assert code == 1
    code, _, _ = mdk("validate", "preset:ising", "--eps", "1e-9")
    assert code == 0


@pytest.mark.parametrize("exc", [
    MemoryError(),
    np.linalg.LinAlgError("SVD did not converge"),
])
def test_numeric_failures_exit_1(exc, monkeypatch):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("mdkit.cli.verlinde_fusion", fail)
    code, out, err = mdk("fusion", "preset:ising")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("prefix, doc", [
    ("double:", {"order": 2, "table": 5}),
    ("double:", {"table": [[0, 1], [1]]}),
    ("double:", {"table": [["e", "a"], ["a", "e"]]}),
    ("double:", None),  # a directory, not a file
    ("pointed:", {"group": "Z_2", "labels": [1, {"a": 2}],
                  "q": [{"re": 1, "im": 0}, {"re": 0, "im": 1}]}),
])
def test_malformed_input_files_exit_1(prefix, doc, tmp_path):
    path = tmp_path / "doc.json"
    if doc is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(doc))
    code, out, err = mdk("build", prefix + str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
