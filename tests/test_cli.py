"""End-to-end tests for the mdk command line interface."""

import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdkit import dump_modular_data, preset
from mdkit.cli import run
from mdkit.invariants import commutant_basis

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden" / "cli"
SEMION_DOC = json.loads(dump_modular_data(preset("semion")))
TRIVIAL_DOC = {"rank": 1, "S": [[{"re": 1, "im": 0}]],
               "T": [{"re": 1, "im": 0}]}


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
    # consumers refuse the file
    code, out, err = mdk("fusion", str(path))
    assert code == 1
    assert "error:" in err


def test_build_refuses_invalid_file_unless_forced(tmp_path):
    doc = json.loads(dump_modular_data(preset("toric_code")))
    doc["T"][3] = {"re": 0.6, "im": 0.8}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = mdk("build", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "t_roots_of_unity" in err
    code, out, err = mdk("build", str(path), "--force", "--format", "json")
    assert code == 0, err
    assert json.loads(out) == doc


def test_build_refuses_invalid_constructed_data_unless_forced(tmp_path):
    # at eps 1e-18 the floating-point residuals of su2:3 fail the checks
    code, out, err = mdk("build", "su2:3", "--eps", "1e-18")
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, err = mdk("build", "su2:3", "--eps", "1e-18", "--force")
    assert code == 0, err
    assert out.startswith("rank 4")
    path = tmp_path / "su2_3.json"
    code, out, err = mdk("build", "su2:3", "--eps", "1e-18", "-o", str(path))
    assert code == 1 and not path.exists()


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
    assert all(code == 0 for code, _, _ in runs)
    assert len({out for _, out, _ in runs}) == 1


def test_invariants_table_builds_the_commutant_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return commutant_basis(*args)

    monkeypatch.setattr("mdkit.invariants.commutant_basis", counted)
    code, out, _ = mdk("invariants", "double:Z_2", "double:Z_2")
    assert code == 0 and out.startswith("commutant dimension")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("build",),
    ("invariants", "preset:ising"),
    ("build", "su2:4", "--format", "yaml"),
    ("algebra", "screen", "preset:toric_code", "--mult", "1,x,0,0"),
    ("algebra", "from-invariant", "su2:4", "su2:4"),
    ("invariants", "su2:4", "su2:4", "--workers", "2"),
    ("build", "double:S3", "--seed", "7"),
    ("invariants", "su2:4", "su2:4", "--node-cap", "5"),
    ("algebra", "from-invariant", "su2:4", "su2:4", "--index", "0",
     "--node-cap", "5"),
    ("fusion", "preset:toric_code", "--force"),
    ("validate", "preset:ising", "--force"),
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
    ("build", "rev(" * 2000 + "preset:ising" + ")" * 2000),
    ("build", "double:preset:Z_05"),
    ("build", "su2:\u00b2"),
])
def test_domain_errors_exit_1(argv):
    code, out, err = mdk(*argv)
    assert code == 1
    assert err.startswith("error:")


def test_anisotropy_of_high_rank_data_answers():
    # rank 17, but only two trivial-twist objects to search
    code, out, err = mdk("anisotropy", "su2:16", "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["candidates"]) == 2


def test_anisotropy_past_its_node_cap_is_an_error_line(monkeypatch):
    monkeypatch.setattr("mdkit.algebras._CANDIDATE_NODE_CAP", 1)
    code, out, err = mdk("anisotropy", "preset:toric_code")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "1-node cap" in err


def test_invariants_past_their_node_cap_is_an_error_line(monkeypatch):
    monkeypatch.setattr("mdkit.invariants._NODE_CAP", 1)
    code, out, err = mdk("invariants", "preset:toric_code",
                         "preset:toric_code")
    assert code == 1 and out == ""
    assert err == "error: invariant search ran past its 1-node cap\n"


def test_oversized_multiplicity_is_an_error_line():
    # 23 nines pass the double range, 400 do not
    for big in ("99999999999999999999999", "9" * 400):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = mdk("algebra", "screen", "preset:toric_code",
                                 "--mult", f"1,{big},0,0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "int64 range" in err


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


def test_eps_flag_reaches_every_analysis(tmp_path, monkeypatch):
    # a toric code whose e twist is off by 1.88e-7: every analysis must
    # read the tolerance that --eps gives the data
    monkeypatch.delenv("MDK_EPS", raising=False)
    code, out, _ = mdk("build", "preset:toric_code", "--format", "json")
    doc = json.loads(out)
    phase = 2 * math.pi * 3e-8
    doc["T"][1] = {"re": math.cos(phase), "im": math.sin(phase)}
    path = str(tmp_path / "noisy.json")
    Path(path).write_text(json.dumps(doc))
    loose = ("--eps", "1e-6", "--format", "json")

    assert mdk("validate", path)[0] == 1
    code, out, _ = mdk("validate", path, *loose)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = mdk("algebra", "screen", path, "--mult", "1,1,0,0", *loose)
    assert code == 0
    screen = json.loads(out)
    assert screen["passes"] is True
    twist = next(v for v in screen["verdicts"]
                 if v["check"] == "trivial_twist_support")
    assert twist["pass"] and twist["residual"] == pytest.approx(1.885e-7, rel=1e-3)
    code, out, _ = mdk("anisotropy", path, *loose)
    assert code == 0
    report = json.loads(out)
    assert len(report["candidates"]) == 3 and len(report["nontrivial"]) == 2
    code, out, _ = mdk("witt", path, "--eps", "1e-6")
    assert code == 0 and "center candidate: yes" in out
    code, out, _ = mdk("invariants", path, "preset:toric_code", *loose)
    assert code == 0 and json.loads(out)["count"] == 6


def test_cli_stdout_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MDK_EPS", raising=False)
    commands = json.loads((GOLDEN / "commands.json").read_text())
    assert commands
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        code = run(list(cmd["argv"]), out, err)
        assert code == cmd["exit"], (cmd["argv"], err.getvalue())
        want = (GOLDEN / cmd["stdout"]).read_bytes()
        assert out.getvalue().encode() == want, cmd["argv"]


def test_eps_flag_beats_env(monkeypatch):
    monkeypatch.setenv("MDK_EPS", "1e-18")
    code, _, _ = mdk("validate", "preset:ising")
    assert code == 1
    code, _, _ = mdk("validate", "preset:ising", "--eps", "1e-9")
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
def test_bad_eps_flag_is_a_usage_error(value):
    code, out, err = mdk("validate", "preset:ising", "--eps", value)
    assert code == 2 and out == ""
    assert "argument --eps: value must be a finite number > 0" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-3", "abc"])
def test_bad_mdk_eps_is_an_error_line(value, monkeypatch):
    monkeypatch.setenv("MDK_EPS", value)
    code, out, err = mdk("validate", "preset:ising")
    assert code == 1 and out == ""
    assert err == f"error: MDK_EPS must be a finite number > 0, got {value!r}\n"


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
    # a semion whose twist is written as the JSON extension NaN
    ("", {"rank": 2, "S": [[{"re": 0.5 ** 0.5, "im": 0}] * 2,
                           [{"re": 0.5 ** 0.5, "im": 0},
                            {"re": -0.5 ** 0.5, "im": 0}]],
          "T": [{"re": 1, "im": 0}, {"re": math.nan, "im": 0}]}),
    # an integer past the double range
    ("pointed:", {"group": "Z_2",
                  "q": [{"re": 1, "im": 0}, {"re": 10 ** 400, "im": 0}]}),
    # a valid semion with a tolerance that is not a finite number > 0
    ("", {**SEMION_DOC, "eps": -1}),
    ("", {**SEMION_DOC, "eps": 0}),
    ("", {**SEMION_DOC, "eps": True}),
    # JSON true where a number belongs
    ("", {**TRIVIAL_DOC, "rank": True}),
    ("", {**TRIVIAL_DOC, "S": [[{"re": True, "im": False}]]}),
    ("pointed:", {"group": "Z_2",
                  "q": [{"re": True, "im": 0}, {"re": 0, "im": 1}]}),
    ("double:", {"order": True, "table": [[0]]}),
    # a tolerance past the double range
    ("", {**SEMION_DOC, "eps": 10 ** 400}),
])
def test_malformed_input_files_exit_1(prefix, doc, tmp_path):
    path = tmp_path / "doc.json"
    if doc is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(doc))
    code, out, err = mdk("build", prefix + str(path))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if doc and "eps" in doc:
        assert err.startswith("error: eps must be")


def assert_clean_exit(code, err):
    # every command ends in an exit code; a domain error also ends
    # stderr with an error: line
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.splitlines()[-1].startswith("error:"), err


_mult_ints = st.one_of(st.integers(-1, 3),
                      st.integers(-10 ** 400, 10 ** 400)).map(str)
_mults = st.one_of(
    # rank 4 with n_0 = 1, so the later screens are reached
    st.lists(_mult_ints, min_size=3, max_size=3).map(
        lambda rest: ",".join(["1", *rest])),
    st.lists(st.one_of(_mult_ints,
                       st.sampled_from(["", " ", "x", "1.5", "nan", "--"])),
             max_size=6).map(",".join))


@settings(max_examples=150, deadline=None)
@given(_mults)
def test_fuzzed_mult_lists_end_cleanly(mult):
    code, _, err = mdk("algebra", "screen", "preset:toric_code", "--mult", mult)
    assert_clean_exit(code, err)


# whole leaves of rank <= 4, and fragments that assemble leaves of rank
# <= 9; six tokens hold at most a product of two whole leaves
_leaves = [
    "preset:trivial", "preset:semion", "preset:ising", "preset:fibonacci",
    "preset:toric_code", "su2:2", "double:Z_2", "tdouble:2:1", "su2:0",
    "preset:nope"]
_specs = st.one_of(
    st.sampled_from(_leaves),
    st.sampled_from(_leaves).map("rev({})".format),
    st.tuples(st.sampled_from(_leaves), st.sampled_from(_leaves)).map(
        lambda ab: "prod({},{})".format(*ab)),
    st.lists(st.sampled_from(_leaves + [
        "su2", "double", "tdouble", "preset", "Z_2", "S3", "ising", "0",
        "1", "2", "3", "prod(", "rev(", ",", ")", ":"]),
        max_size=6).map("".join))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["build", "validate", "fusion", "witt", "anisotropy"]),
       _specs)
def test_fuzzed_specs_end_cleanly(command, spec):
    code, _, err = mdk(command, spec)
    assert_clean_exit(code, err)
