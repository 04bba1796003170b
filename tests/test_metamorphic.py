"""Metamorphic tests: relations between answers on related inputs."""

import numpy as np
import pytest

from mdkit import (direct_product, drinfeld_double, enumerate_invariants,
                   evaluate, gauss_sum, group_preset, parse_spec)


def build(spec):
    return evaluate(parse_spec(spec))


def test_products_of_invariants_are_invariants_of_the_product():
    a, b = build("su2:4"), build("preset:toric_code")
    inv_a, inv_b = enumerate_invariants(a), enumerate_invariants(b)
    assert (len(inv_a), len(inv_b)) == (2, 6)
    product = {z.Z.tobytes() for z in
               enumerate_invariants(build("prod(su2:4,preset:toric_code)"))}
    assert len(product) == 30
    for za in inv_a:
        for zb in inv_b:
            assert np.kron(za.Z, zb.Z).tobytes() in product


@pytest.mark.parametrize("g, h, order", [
    ("Z_2", "S3", 12),
    ("Z_3", "Z_2", 6),
    ("Z_2", "Q8", 16),
])
def test_gauss_sum_of_a_product_double_is_the_group_order(g, h, order):
    group = direct_product(group_preset(g), group_preset(h))
    assert group.order == order
    assert abs(gauss_sum(drinfeld_double(group)) - order) < 1e-9
