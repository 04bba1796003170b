"""The JSON loaders end in a value or an MdkError on any document."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mdkit import (MdkError, cyclic, dump_group, dump_modular_data,
                   load_group, load_modular_data, preset)
from mdkit.serialize import load_pointed_doc

LOADERS = (load_modular_data, load_group, load_pointed_doc)
VALID = (
    (load_modular_data, json.loads(dump_modular_data(preset("semion")))),
    (load_group, json.loads(dump_group(cyclic(3)))),
    (load_pointed_doc, {"group": "Z_2", "labels": ["1", "s"],
                        "q": [{"re": 1, "im": 0}, {"re": 0, "im": 1}]}),
    (load_pointed_doc, {"group": json.loads(dump_group(cyclic(2))),
                        "q": [{"re": 1, "im": 0}, {"re": -1, "im": 0}]}),
)
FIELDS = sorted({key for _, doc in VALID for key in doc} | {"re", "im"})

_numbers = st.one_of(
    # past int64, and past the double range
    st.sampled_from([2 ** 63, 2 ** 64, -2 ** 63 - 1, 10 ** 400, -10 ** 400]),
    st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=4)),
                        inner, max_size=4)),
    max_leaves=16)


def load_cleanly(loader, text):
    try:
        loader(text)
    except MdkError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LOADERS), _json)
def test_fuzzed_json_values_load_or_raise_mdk_error(loader, value):
    load_cleanly(loader, json.dumps(value))


@pytest.mark.parametrize("loader, doc, key", [
    pytest.param(loader, doc, key, id=f"{loader.__name__}-{n}-{key}")
    for n, (loader, doc) in enumerate(VALID) for key in sorted(doc)])
@settings(max_examples=100, deadline=None)
@given(value=st.one_of(_numbers, _json))
def test_valid_documents_with_one_field_replaced(loader, doc, key, value):
    load_cleanly(loader, json.dumps({**doc, key: value}))


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,        # nested past the recursion limit
    '{"rank": ' + "7" * 5000 + "}",      # past the int digit limit
])
def test_pathological_json_text_is_an_mdk_error(text):
    for loader in LOADERS:
        with pytest.raises(MdkError):
            loader(text)
