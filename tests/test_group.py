import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apx import ApxError, SubsetMask, dft_indicator, enumerate_abelian_groups, make_group
from apx.fourier import t3_from_coeffs
from apx.group import (
    _MAX_FFT_BYTES,
    _MAX_TABLE_BYTES,
    _sum_kernel,
    negate,
    orbit_counts,
    orbit_split,
    pair_sums,
    parse_group,
    require_pair_sums,
)

from conftest import add, add_table, dilation_perm, halve, index, neg, units


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
    # Order 1, a modulus 1 between others, odd and even orders, rank >= 3.
    for moduli in [
        (1,), (1, 5), (2, 1, 3), (7,), (8,), (12,), (3, 5), (2, 2, 3), (3, 3, 3), (2, 2, 2, 2),
    ]:
        g = make_group(moduli)
        x = np.arange(g.order)
        sums = pair_sums(g, x, x)
        nt = negate(g, x)
        assert np.array_equal(sums, add_table(g))  # the tests' dense reference
        assert np.array_equal(pair_sums(g, x, nt), sums[:, nt])
        for a in range(g.order):
            assert int(nt[a]) == neg(g, a)
            assert int(sums[a, a]) == add(g, a, a)  # x -> 2x is the diagonal
            for b in range(g.order):
                assert int(sums[a, b]) == add(g, a, b)


@pytest.mark.parametrize("moduli", [(7,), (8,), (3, 5), (2, 2, 3), (4, 1, 6)])
def test_factors_of_one_change_no_table_pair_sum_or_spectrum(moduli):
    # Z_1 changes no index, so a 1 inserted at any position must leave the
    # negation, the tables, the pair sums and the spectrum exactly as they were.
    g = make_group(moduli)
    x = np.arange(g.order)
    s = SubsetMask(g, random.Random(g.order).getrandbits(g.order))
    coeffs = dft_indicator(s)
    for k in range(len(moduli) + 1):
        h = make_group(moduli[:k] + (1,) + moduli[k:])
        assert np.array_equal(negate(h, x), negate(g, x)), h
        for got, want in zip(_sum_kernel(h), _sum_kernel(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(pair_sums(h, x, x), pair_sums(g, x, x))
        assert np.array_equal(dft_indicator(SubsetMask(h, s.bits)), coeffs)
        assert t3_from_coeffs(h, coeffs) == t3_from_coeffs(g, coeffs), h


@pytest.mark.parametrize("moduli", [(1,), (1, 1)])
def test_trivial_group_tables_and_spectrum(moduli):
    g = make_group(moduli)
    zero = np.zeros(1, dtype=np.int64)
    assert np.array_equal(negate(g, zero), zero)
    assert [k.tolist() for k in _sum_kernel(g)] == [[0], [0]]
    assert pair_sums(g, zero, zero).tolist() == [[0]]
    assert dft_indicator(SubsetMask(g, 1)).tolist() == [1]
    assert dft_indicator(SubsetMask(g, 0)).tolist() == [0]
    assert t3_from_coeffs(g, dft_indicator(SubsetMask(g, 1))) == 1  # the one triple (0, 0, 0)


def test_units_and_dilations():
    g = make_group([15])
    assert units(g) == (1, 2, 4, 7, 8, 11, 13, 14)
    for u in units(g):
        perm = dilation_perm(g, u)
        assert sorted(int(x) for x in perm) == list(range(15))
        # dilation is an automorphism: u*(a+b) = u*a + u*b
        at = pair_sums(g, np.arange(15), np.arange(15))
        for a in range(15):
            for b in range(15):
                assert int(perm[at[a, b]]) == int(at[perm[a], perm[b]])
    with pytest.raises(ValueError):
        dilation_perm(g, 3)
    assert units(make_group([1])) == (1,)


def test_tables_are_readonly():
    g = make_group([6])
    for table in _sum_kernel(g):
        with pytest.raises(ValueError):
            table[0] = 1
        assert np.all(table >= 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=4)
    .filter(lambda moduli: math.prod(moduli) <= 200)
    .map(make_group),
    st.data(),
)
@example(make_group([1]), None)
@example(make_group([1, 5]), None)
@example(make_group([2, 1, 2]), None)
@example(make_group([2, 2, 2, 2]), None)
@example(make_group([3, 3, 3]), None)
def test_pair_sums_match_scalar_addition(g, data):
    if data is None:  # an edge group: every pair
        a = b = np.arange(g.order)
    else:
        indices = st.lists(st.integers(0, g.order - 1), max_size=12)
        a = np.array(data.draw(indices), dtype=np.int64)
        b = np.array(data.draw(indices), dtype=np.int64)
    sums = pair_sums(g, a, b)
    assert sums.shape == (len(a), len(b))
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            assert int(sums[i, j]) == add(g, x, y)


def test_pair_sums_refuse_oversized_inputs():
    big = make_group([10000])
    a = np.arange(5000)
    require_pair_sums(big, 4096, 4096)  # 64 MiB of int32 fits
    tracemalloc.start()
    try:
        # 4 * 5000 * 5000 result bytes; then a reduce table of 3^16 cells
        with pytest.raises(ApxError, match="5000 x 5000 pair sums .* needs 100000000 bytes"):
            pair_sums(big, a, a)
        with pytest.raises(ApxError, match="pair-sum table .* needs 172186884 bytes"):
            pair_sums(make_group([2] * 16), a[:1], a[:1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_index_map_and_spectrum_each_refuses_before_allocating():
    # Z_10^8: an 800 MB negation of every element and a 3.2 GB spectrum.
    big = make_group([10**8])
    tracemalloc.start()
    try:
        with pytest.raises(ApxError, match="orbit split .* needs 800000000 bytes"):
            orbit_split(big)
        with pytest.raises(ApxError, match="spectrum .* needs 3200000000 bytes"):
            dft_indicator(SubsetMask(big, 0b10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # Every order whose orbit split fits (cyclic orders up to 2^23) and whose
    # axes take no Bluestein buffers transforms.
    assert 32 * (_MAX_TABLE_BYTES // 8) <= _MAX_FFT_BYTES


def test_spectrum_of_a_bluestein_axis_refuses_before_allocating():
    # 2^23 - 1 = 47 x 178,481 passes 32 n, but pocketfft takes its one axis
    # by Bluestein's algorithm, whose buffers reached 1.4 GB of RSS: the
    # estimate is 32 + 144 bytes per element.
    tracemalloc.start()
    try:
        with pytest.raises(ApxError, match=r"spectrum .* needs 1476394832 bytes \(ceiling"):
            dft_indicator(SubsetMask(make_group([2**23 - 1]), 0b110))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_orbit_split_memory_stays_within_its_negation():
    # Bounds: each split's peak in MiB when it read an index map, plus 1 MiB.
    # The arange, the negation and negate's temporaries take about 25 bytes
    # an element; Z_2^20's 2^20 fixed points are one int64 array.
    for moduli, index_map_peak in [
        ([1000000], 22.9), ([1000, 1000], 22.9), ([2] * 20, 56.0)
    ]:
        g = make_group(moduli)
        tracemalloc.start()
        try:
            orbit_split(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (index_map_peak + 1) * (1 << 20), (moduli, peak)


def test_orbit_split_matches_scalar_negation():
    for g in enumerate_abelian_groups(40):
        fixed, pairs = orbit_split(g)
        assert fixed.tolist() == [x for x in range(g.order) if neg(g, x) == x]
        assert pairs.shape == ((g.order - len(fixed)) // 2, 2)
        assert pairs.tolist() == [[x, neg(g, x)] for x in range(g.order) if x < neg(g, x)]
        assert len(fixed) == 1 << sum(m % 2 == 0 for m in g.moduli)


def test_orbit_counts_match_the_orbit_split_to_order_48():
    # extremal_search counts its candidates from the closed form, without the split.
    for g in enumerate_abelian_groups(48):
        fixed, pairs = orbit_split(g)
        assert orbit_counts(g) == (len(fixed), len(pairs))


@pytest.mark.parametrize(
    "moduli", [(1,), (1, 1), (7,), (2, 2, 2), (3, 1, 4), (1, 6, 1, 2), (2, 3, 4, 5), (4, 4, 2, 3)]
)
def test_negate_matches_scalar_negation(moduli):
    g = make_group(moduli)
    elems = np.arange(g.order)
    assert negate(g, elems).tolist() == [neg(g, x) for x in range(g.order)]
    assert negate(g, elems[::-3]).tolist() == [neg(g, x) for x in range(g.order)[::-3]]
    assert negate(g, elems[:0]).tolist() == []


def test_symmetry_test_builds_no_table_of_the_group():
    g = make_group([1 << 20])
    s = SubsetMask(g, 0b10 | 1 << (g.order - 1))
    t = SubsetMask(g, 0b110)
    s.memb, t.memb  # decode first: only the symmetry test is measured
    tracemalloc.start()
    try:
        assert s.is_symmetric and not t.is_symmetric
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert negate(make_group([10**8]), np.array([0, 1, 5])).tolist() == [0, 10**8 - 1, 10**8 - 5]
