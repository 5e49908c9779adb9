import random
import tracemalloc

import numpy as np
import pytest

from apx import ApxError, enumerate_abelian_groups, make_group
from apx.group import (
    _MAX_TABLE_BYTES,
    add_table,
    dilation_perm,
    double_table,
    neg_table,
    parse_group,
    units,
)

from conftest import add, halve, index, neg


def test_make_group_examples():
    assert make_group([5]).order == 5
    assert make_group([3, 3]).order == 9
    with pytest.raises(ValueError):
        make_group([2, 0])
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([1 << 40, 1 << 40])


def test_label_and_parse():
    g = make_group([3, 5])
    assert g.label == "3,5"
    assert parse_group("3,5") == g
    assert parse_group("15").order == 15
    with pytest.raises(ValueError):
        parse_group("3,x")


def test_add_neg_examples():
    z6 = make_group([6])
    assert add(z6, 4, 5) == 3
    z33 = make_group([3, 3])
    a = index(z33, (1, 2))
    b = index(z33, (2, 2))
    assert z33.coords(add(z33, a, b)) == (0, 1)
    assert neg(make_group([5]), 2) == 3


def test_element_validation():
    z6 = make_group([6])
    with pytest.raises(ValueError):
        z6.coords(6)
    with pytest.raises(ValueError):
        z6.coords(-1)
    with pytest.raises(ValueError):
        index(make_group([3, 3]), (1, 3))
    with pytest.raises(ValueError):
        index(make_group([3, 3]), (1,))


def test_halve_examples():
    assert halve(make_group([5]), 1) == 3
    assert halve(make_group([7]), 4) == 2
    with pytest.raises(ValueError):
        halve(make_group([6]), 2)


def test_encode_decode_roundtrip():
    for moduli in [(1,), (7,), (2, 3), (3, 4, 5), (2, 2, 2)]:
        g = make_group(moduli)
        for a in range(g.order):
            coords = g.coords(a)
            assert all(0 <= x < m for x, m in zip(coords, moduli))
            assert index(g, coords) == a


def test_mixed_radix_first_coordinate_fastest():
    g = make_group([3, 4])
    assert g.coords(1) == (1, 0)
    assert g.coords(3) == (0, 1)
    assert g.coords(2 + 3 * 3) == (2, 3)


def test_group_axioms_sampled():
    rng = random.Random(11)
    for moduli in [(9,), (2, 6), (3, 5), (2, 2, 3)]:
        g = make_group(moduli)
        for _ in range(50):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert add(g, a, b) == add(g, b, a)
            assert add(g, add(g, a, b), c) == add(g, a, add(g, b, c))
            assert neg(g, neg(g, a)) == a
            assert add(g, a, neg(g, a)) == 0


def test_halving_roundtrip_odd_orders():
    for moduli in [(1,), (3,), (15,), (3, 5), (9,), (3, 3), (7, 3)]:
        g = make_group(moduli)
        for a in range(g.order):
            h = halve(g, a)
            assert add(g, h, h) == a


def test_enumerate_small_orders():
    labels = [g.label for g in enumerate_abelian_groups(4)]
    assert labels == ["1", "2", "3", "4", "2,2"]
    assert [g.label for g in enumerate_abelian_groups(1)] == ["1"]


def test_enumerate_order_eight_classes():
    eights = {g.moduli for g in enumerate_abelian_groups(8) if g.order == 8}
    assert eights == {(8,), (4, 2), (2, 2, 2)}


def test_enumerate_count_and_dedup():
    groups = enumerate_abelian_groups(15)
    assert len(groups) == 20
    assert len({g.moduli for g in groups}) == 20


def test_tables_match_scalar_ops():
    rng = random.Random(5)
    for moduli in [(8,), (3, 5), (2, 2, 3), (12,)]:
        g = make_group(moduli)
        at = add_table(g)
        nt = neg_table(g)
        dt = double_table(g)
        for _ in range(40):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            assert int(at[a, b]) == add(g, a, b)
            assert int(at[a, nt[b]]) == add(g, a, neg(g, b))
            assert int(nt[a]) == neg(g, a)
            assert int(dt[a]) == add(g, a, a)


def test_units_and_dilations():
    g = make_group([15])
    assert units(g) == (1, 2, 4, 7, 8, 11, 13, 14)
    for u in units(g):
        perm = dilation_perm(g, u)
        assert sorted(int(x) for x in perm) == list(range(15))
        # dilation is an automorphism: u*(a+b) = u*a + u*b
        at = add_table(g)
        for a in range(15):
            for b in range(15):
                assert int(perm[at[a, b]]) == int(at[perm[a], perm[b]])
    with pytest.raises(ValueError):
        dilation_perm(g, 3)
    assert units(make_group([1])) == (1,)


def test_tables_are_readonly():
    g = make_group([6])
    with pytest.raises(ValueError):
        add_table(g)[0, 0] = 1
    assert np.all(add_table(g) >= 0)


def test_add_table_refuses_oversized_groups():
    # Every order the suites, README and benchmark use (<= 2048) fits.
    assert 8 * 2048 * 2048 <= _MAX_TABLE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ApxError, match="needs 137438953472 bytes"):
            add_table(make_group([1 << 17]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
