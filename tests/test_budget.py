"""Every bounded search stops through one budget: with its cap set to 1,
each gives its documented caller-visible outcome."""

import numpy as np
import pytest

from mdkit import (IncompleteEnumerationError, SearchBudgetError,
                   anisotropy_screen, enumerate_invariants,
                   equivalent_up_to_relabeling, evaluate, parse_spec, preset,
                   witt_invariants)
from mdkit.invariants import _classify


def build(spec):
    return evaluate(parse_spec(spec))


# (module constant holding the cap; the search; its outcome with the cap
#  at 1)
CAPPED = {
    "invariants": ("mdkit.invariants._NODE_CAP",
                   lambda: enumerate_invariants(preset("toric_code")),
                   IncompleteEnumerationError),
    "matcher": ("mdkit.constructors._RELABEL_NODE_CAP",
                lambda: equivalent_up_to_relabeling(
                    build("prod(double:Z_3,double:Z_4)"),
                    build("tdouble:12:0")), IncompleteEnumerationError),
    "gram": ("mdkit.invariants._GRAM_NODE_CAP",
             lambda: _classify(np.array([[1, 0], [0, 2]])), "other"),
    "witt": ("mdkit.algebras._CANDIDATE_NODE_CAP",
             lambda: witt_invariants(build("double:Z_3")).reasons,
             ("no trivial-twist candidate of dimension sqrt(dim) found "
              "within the search budget (inconclusive)",)),
    "anisotropy": ("mdkit.algebras._CANDIDATE_NODE_CAP",
                   lambda: anisotropy_screen(preset("toric_code")),
                   IncompleteEnumerationError),
}


@pytest.mark.parametrize("name", CAPPED)
def test_a_cap_of_one_stops_every_search(monkeypatch, name):
    cap, search, outcome = CAPPED[name]
    monkeypatch.setattr(cap, 1)
    if outcome is not IncompleteEnumerationError:
        assert search() == outcome
        return
    with pytest.raises(SearchBudgetError) as exc:
        search()
    assert type(exc.value) is outcome and exc.value.cap == 1
    assert exc.value.nodes > exc.value.cap  # stopped mid-search
