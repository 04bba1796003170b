"""Tests for build-spec parsing, rendering, evaluation and JSON files."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdkit import (MdkError, PRESETS, SpecParseError, ToleranceError,
                   UnknownPresetError,
                   ValidationFailedError, buildspec, commutant_basis, cyclic,
                   default_eps, drinfeld_double, dump_group, dump_modular_data,
                   equivalent_up_to_relabeling, evaluate, group_preset,
                   load_modular_data, parse_spec, preset, render, su2_level,
                   twisted_double_cyclic, verlinde_fusion)
from mdkit.buildspec import (Double, File, Pointed, Preset, Prod, Rev, Su2,
                             TDouble)


def test_parse_compound_spec():
    node = parse_spec("prod(su2:4,rev(preset:ising))")
    assert node == Prod(Su2(4), Rev(Preset("ising")))
    assert render(node) == "prod(su2:4,rev(preset:ising))"


def test_parse_atoms():
    assert parse_spec("preset:fibonacci") == Preset("fibonacci")
    assert parse_spec("double:S3") == Double("S3")
    assert parse_spec("tdouble:3:2") == TDouble(3, 2)
    assert parse_spec("pointed:docs/z4.json") == Pointed("docs/z4.json")
    assert parse_spec("data/my_set.json") == File("data/my_set.json")


@pytest.mark.parametrize("text", [
    "su2:0", "su2:33", "tdouble:0:0", "tdouble:13:0", "tdouble:4:4",
    "tdouble:4:-1",
])
def test_parse_range_errors(text):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert 0 <= exc.value.position <= len(text)
    assert exc.value.expected


def test_parse_unknown_preset():
    with pytest.raises(UnknownPresetError) as exc:
        parse_spec("preset:isng")
    assert "fibonacci" in exc.value.available


def test_parse_unknown_prefix():
    # a colon before any slash means a (mistyped) scheme, not a path
    with pytest.raises(SpecParseError) as exc:
        parse_spec("foo:bar")
    assert any(e.startswith("preset:") for e in exc.value.expected)


@pytest.mark.parametrize("text", [
    "", "prod(su2:4)", "prod(su2:4,su2:6", "rev()", "preset:ising)extra",
    "su2:4x",
])
def test_parse_shape_errors(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


_paths = st.from_regex(r"[a-z][a-z0-9_./-]{0,15}", fullmatch=True)
_atoms = st.one_of(
    st.sampled_from(PRESETS).map(Preset),
    st.integers(1, 32).map(Su2),
    st.sampled_from(["Z_2", "Z_6", "S3", "D4", "Q8"]).map(Double),
    st.integers(1, 12).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda p: TDouble(n, p))),
    _paths.map(Pointed),
    _paths.map(File),
)
_specs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: Prod(*ab)),
        inner.map(Rev)),
    max_leaves=6)


@given(_specs)
def test_render_parse_round_trip(node):
    assert parse_spec(render(node)) == node


def test_evaluate_compound():
    md = evaluate(parse_spec("prod(preset:fibonacci,rev(preset:fibonacci))"))
    assert md.rank == 4
    assert md.validation().ok
    direct = evaluate(parse_spec("su2:4"))
    assert np.allclose(direct.S, su2_level(4).S)


def test_json_file_round_trip(tmp_path, corpus):
    for spec, md in list(corpus.items())[:8]:
        path = tmp_path / "data.json"
        path.write_text(dump_modular_data(md))
        back = evaluate(parse_spec(str(path)))
        assert back.rank == md.rank
        assert np.abs(back.S - md.S).max() < 1e-15
        assert np.abs(back.T - md.T).max() < 1e-15


def test_dump_is_deterministic():
    a = dump_modular_data(preset("ising"))
    b = dump_modular_data(preset("ising"))
    assert a == b
    doc = json.loads(a)
    assert doc["rank"] == 3
    assert doc["labels"] == ["1", "psi", "sigma"]


def test_load_defers_validation_to_first_use(tmp_path):
    doc = json.loads(dump_modular_data(preset("toric_code")))
    doc["T"][0] = {"re": -1.0, "im": 0.0}
    text = json.dumps(doc)
    path = tmp_path / "broken.json"
    path.write_text(text)
    for md in (load_modular_data(text), evaluate(parse_spec(str(path)))):
        assert md.rank == 4 and md.T[0] == -1.0
        assert not md.validation().ok
        with pytest.raises(ValidationFailedError, match="t_unit"):
            verlinde_fusion(md)
        with pytest.raises(ValidationFailedError, match="t_unit"):
            commutant_basis(md)


def test_evaluate_missing_file():
    with pytest.raises(MdkError, match="cannot read"):
        evaluate(parse_spec("no/such/file.json"))


def test_evaluate_pointed_doc(tmp_path):
    doc = {"group": "Z_2", "q": [{"re": 1.0, "im": 0.0},
                                 {"re": 0.0, "im": 1.0}]}
    path = tmp_path / "semion.json"
    path.write_text(json.dumps(doc))
    md = evaluate(parse_spec(f"pointed:{path}"))
    assert equivalent_up_to_relabeling(md, preset("semion")) is not None


def test_pointed_doc_errors(tmp_path):
    bad = [("{", "not valid JSON"),
           ('{"q": []}', "needs 'group' and 'q'"),
           ('{"group": "Z_2", "q": [{"re": 1, "im": 0}]}', "unit complex"),
           ('{"group": 7, "q": []}', "name or a group")]
    for text, match in bad:
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(MdkError, match=match):
            evaluate(parse_spec(f"pointed:{path}"))


def test_default_eps_env(monkeypatch):
    monkeypatch.delenv("MDK_EPS", raising=False)
    assert default_eps() == 1e-9
    monkeypatch.setenv("MDK_EPS", "1e-7")
    assert default_eps() == 1e-7
    # an explicit eps always wins
    assert preset("ising", eps=1e-12).eps == 1e-12
    monkeypatch.setenv("MDK_EPS", "-3")
    with pytest.raises(ValueError):
        default_eps()


@pytest.mark.parametrize("text, direct", [
    ("preset:ising", lambda: preset("ising")),
    ("su2:7", lambda: su2_level(7)),
    ("double:Q8", lambda: drinfeld_double(group_preset("Q8"))),
    ("double:preset:S3", lambda: drinfeld_double(group_preset("S3"))),
    ("tdouble:6:5", lambda: twisted_double_cyclic(6, 5)),
])
def test_built_in_leaves_are_fresh_copies_of_the_constructor(text, direct):
    want = direct()
    first, second = (evaluate(parse_spec(text)) for _ in range(2))
    assert first is not second
    for md in (first, second):
        assert md.S.tobytes() == want.S.tobytes()
        assert md.T.tobytes() == want.T.tobytes()
        assert md.labels == want.labels
        assert md.eps == want.eps


def test_one_construction_serves_every_use_of_a_leaf(monkeypatch):
    monkeypatch.setattr(buildspec, "_BUILT", {})
    calls = []

    def counted(group, **kwargs):
        calls.append(group)
        return drinfeld_double(group, **kwargs)

    monkeypatch.setattr(buildspec, "drinfeld_double", counted)
    for text in ("double:Q8", "double:Q8", "prod(double:Q8,double:Q8)"):
        evaluate(parse_spec(text)).require_valid()
    assert len(calls) == 1


def test_reused_leaves_take_the_callers_eps(monkeypatch):
    monkeypatch.delenv("MDK_EPS", raising=False)
    node = parse_spec("su2:3")
    assert evaluate(node).eps == 1e-9
    assert evaluate(node, eps=1e-12).eps == 1e-12
    monkeypatch.setenv("MDK_EPS", "1e-18")
    # a cached 1e-9 build must not serve a stricter tolerance
    assert evaluate(node).eps == 1e-18
    assert not evaluate(node).validation().ok
    assert evaluate(node, eps=1e-9).validation().ok


def test_reused_leaves_share_no_state(monkeypatch):
    monkeypatch.delenv("MDK_EPS", raising=False)
    node = parse_spec("tdouble:3:1")
    first = evaluate(node)
    first.eps = 0.5
    report = first.validation()
    second = evaluate(node)
    assert second.eps == 1e-9
    assert second.validation() is not report


def test_construction_errors_are_not_cached(monkeypatch):
    monkeypatch.delenv("MDK_EPS", raising=False)
    node = parse_spec("tdouble:5:2")
    evaluate(node)
    with pytest.raises(MdkError, match="unit circle"):
        evaluate(node, eps=1e-20)
    monkeypatch.setenv("MDK_EPS", "1e-20")
    with pytest.raises(MdkError, match="unit circle"):
        evaluate(node)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, 0.0, "abc",
                                 pytest.param(10 ** 400, id="int-past-double")])
def test_bad_eps_is_refused_before_the_cache(eps, monkeypatch):
    monkeypatch.setattr(buildspec, "_BUILT", {})
    for text in ("su2:3", "prod(su2:3,preset:ising)"):
        with pytest.raises(ToleranceError, match="eps must be a finite number > 0"):
            evaluate(parse_spec(text), eps=eps)
    assert buildspec._BUILT == {}
    # the constructors check it too, so no data carries a bad tolerance
    for build in (lambda: preset("ising", eps=eps),
                  lambda: su2_level(4, eps=eps),
                  lambda: drinfeld_double(cyclic(2), eps=eps)):
        with pytest.raises(MdkError, match="eps must be a finite number > 0"):
            build()


def test_files_are_read_on_every_evaluate(tmp_path):
    group = tmp_path / "group.json"
    node = parse_spec(f"double:{group}")
    group.write_text(dump_group(cyclic(2)))
    assert evaluate(node).rank == 4
    group.write_text(dump_group(cyclic(3)))
    assert evaluate(node).rank == 9

    data = tmp_path / "data.json"
    node = parse_spec(str(data))
    data.write_text(dump_modular_data(preset("semion")))
    assert evaluate(node).labels == ("1", "s")
    data.write_text(dump_modular_data(preset("fibonacci")))
    assert evaluate(node).labels == ("1", "tau")
