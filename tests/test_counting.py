import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apx import (
    ApxError,
    EmptySetError,
    InvalidConnectionSetError,
    SubsetMask,
    cayley_triangles_direct,
    cayley_triangles_formula,
    direct_prob,
    direct_t3,
    make_group,
    prob_from_s0,
    sum_closure_count,
)
from apx import counting, group
from apx.counting import closure_cube, t3_cube
from apx.group import _MAX_CUBE_BYTES, _sum_kernel, orbit_split
from apx.search import _singleton_orbits, _symmetric_bits, _symmetric_orbits

from conftest import (
    add,
    add_table,
    dense_cayley_triangles,
    dilation_perm,
    empty,
    full,
    halve,
    mask,
    neg,
    table_sum_closure_count,
    table_t3,
    units,
)


# Definition-level oracles, written against the scalar group API only.


def brute_prob(s):
    g = s.group
    elems = s.indices()
    hits = sum(1 for x in elems for y in elems if add(g, x, y) in s)
    return Fraction(hits, s.size**2)


def brute_t3(s):
    g = s.group
    count = 0
    for x in s.indices():
        for step in range(g.order):
            if add(g, x, step) in s and add(g, x, add(g, step, step)) in s:
                count += 1
    return count


def brute_triangles(s):
    g = s.group
    count = 0
    for a, b, c in combinations(range(g.order), 3):
        if (
            add(g, a, neg(g, b)) in s
            and add(g, b, neg(g, c)) in s
            and add(g, a, neg(g, c)) in s
        ):
            count += 1
    return count


def t3_halved(s):
    """Progression count by the midpoint route: sum of 1_S((x+y)/2) over S^2.

    Equals direct_t3 whenever halving exists (odd-order groups).
    """
    g = s.group
    elems = s.indices()
    return sum(1 for x in elems for y in elems if halve(g, add(g, x, y)) in s)


def random_subset(rng, g, allow_empty=False):
    while True:
        bits = rng.randrange(1 << g.order)
        if bits or allow_empty:
            return SubsetMask(g, bits)


def random_symmetric_subset(rng, g):
    while True:
        bits = 0
        for x in range(g.order):
            if x <= neg(g, x) and rng.random() < 0.5:
                bits |= (1 << x) | (1 << neg(g, x))
        if bits:
            return SubsetMask(g, bits)


def test_subset_mask_basics():
    g = make_group([6])
    s = SubsetMask.from_indices(g, [4, 0, 2])
    assert s.size == 3
    assert s.indices() == (0, 2, 4)
    assert s.label == "{0,2,4}"
    assert 2 in s and 3 not in s and -1 not in s
    assert s.contains_zero
    assert s.is_symmetric
    assert not SubsetMask.from_indices(g, [1, 2]).is_symmetric
    assert SubsetMask.from_indices(g, [1, 5]).with_zero().indices() == (0, 1, 5)
    assert empty(g).size == 0
    assert full(g).size == 6
    with pytest.raises(ValueError):
        SubsetMask.from_indices(g, [6])
    with pytest.raises(ValueError):
        SubsetMask(g, 1 << 6)
    with pytest.raises(ValueError):
        SubsetMask(g, -1)


def test_direct_prob_examples():
    assert direct_prob(mask([6], [0, 2, 4])) == 1
    assert direct_prob(mask([6], [1, 5])) == 0
    assert direct_prob(mask([3], [1, 2])) == Fraction(1, 2)
    with pytest.raises(EmptySetError):
        direct_prob(empty(make_group([5])))


def test_direct_prob_against_brute():
    rng = random.Random(23)
    for moduli in [(7,), (2, 4), (3, 3), (12,), (1,), (1, 5), (2, 1, 2), (2, 2, 3)]:
        g = make_group(moduli)
        for _ in range(30):
            s = random_subset(rng, g)
            assert direct_prob(s) == brute_prob(s)
            assert sum_closure_count(s) == brute_prob(s) * s.size**2


def test_direct_t3_examples():
    assert direct_t3(full(make_group([5]))) == 25
    assert direct_t3(mask([5], [0])) == 1
    assert direct_t3(mask([7], [0, 1, 2])) == 5
    assert direct_t3(empty(make_group([5]))) == 0


def test_direct_t3_against_brute():
    rng = random.Random(31)
    for moduli in [(9,), (2, 5), (8,), (3, 4), (1,), (1, 5), (2, 1, 2), (2, 2, 3)]:
        g = make_group(moduli)
        for _ in range(25):
            s = random_subset(rng, g)
            assert direct_t3(s) == brute_t3(s)


def test_t3_halved_agrees_on_odd_orders():
    rng = random.Random(37)
    for moduli in [(9,), (3, 5), (7,), (3, 3)]:
        g = make_group(moduli)
        for _ in range(25):
            s = random_subset(rng, g)
            assert t3_halved(s) == direct_t3(s)
    with pytest.raises(ValueError):
        t3_halved(mask([6], [1, 5]))


def test_cayley_examples():
    assert cayley_triangles_direct(mask([3], [1, 2])) == 1
    assert cayley_triangles_direct(mask([7], [1, 6])) == 0
    assert cayley_triangles_direct(mask([5], [1, 2, 3, 4])) == 10
    assert cayley_triangles_formula(mask([5], [1, 2, 3, 4])) == 10
    assert cayley_triangles_formula(mask([3], [1, 2])) == 1
    assert cayley_triangles_formula(mask([7], [1, 6])) == 0


def test_cayley_rejects_bad_connection_sets():
    with pytest.raises(InvalidConnectionSetError):
        cayley_triangles_direct(mask([6], [0, 2, 4]))
    with pytest.raises(InvalidConnectionSetError):
        cayley_triangles_direct(mask([6], [1, 2]))
    with pytest.raises(InvalidConnectionSetError):
        cayley_triangles_formula(mask([6], [1, 2]))
    with pytest.raises(InvalidConnectionSetError):
        prob_from_s0(mask([6], [1, 2]))


def test_cayley_against_brute_triples():
    rng = random.Random(41)
    for moduli in [(7,), (8,), (2, 4), (3, 3), (1,), (1, 5), (2, 1, 2), (2, 2, 3)]:
        g = make_group(moduli)
        for _ in range(12):
            s = random_symmetric_subset(rng, g)
            if s.contains_zero:
                s = SubsetMask(g, s.bits & ~1)
            if s.size == 0:
                continue
            expected = brute_triangles(s)
            assert cayley_triangles_direct(s) == expected
            assert cayley_triangles_formula(s) == expected


def test_prob_from_s0_examples():
    assert prob_from_s0(mask([5], [1, 2, 3, 4])) == Fraction(3, 4)
    assert prob_from_s0(mask([3], [1, 2])) == Fraction(1, 2)
    s = mask([7], [1, 6])
    assert prob_from_s0(s) == direct_prob(s) == 0


def test_crossvalidation_exhaustive_small_orders():
    # Full sweep at order <= 8; the acceptance suite pushes this to 12.
    from apx import enumerate_abelian_groups

    for g in enumerate_abelian_groups(8):
        for d in range(0, g.order):
            for bits in _symmetric_bits(*orbit_split(g), d):
                s = SubsetMask(g, bits)
                if s.contains_zero:
                    continue
                triangles = cayley_triangles_direct(s)
                assert triangles == cayley_triangles_formula(s)
                if s.size:
                    assert prob_from_s0(s) == direct_prob(s) == direct_prob(SubsetMask(g, bits))
                # Asked again, s answers from the caches it now keeps.
                assert cayley_triangles_direct(s) == triangles


def test_prob_bounds_and_subgroups():
    rng = random.Random(43)
    for moduli in [(8,), (3, 4), (10,)]:
        g = make_group(moduli)
        for _ in range(20):
            s = random_subset(rng, g)
            assert 0 <= direct_prob(s) <= 1
    # subgroups are sum-closed
    assert direct_prob(mask([12], [0, 3, 6, 9])) == 1
    assert direct_prob(mask([2, 6], [0, 2, 4, 6, 8, 10])) == 1


def test_t3_at_most_d_squared_with_coset_equality():
    rng = random.Random(47)
    g = make_group([15])
    for _ in range(30):
        s = random_subset(rng, g)
        assert direct_t3(s) <= s.size**2
    # coset of the subgroup {0, 5, 10}
    coset = mask([15], [2, 7, 12])
    assert direct_t3(coset) == 9


def test_prob_not_translation_invariant():
    # the subgroup {0,2,4} is sum-closed; its nontrivial coset is sum-free
    assert direct_prob(mask([6], [0, 2, 4])) == 1
    assert direct_prob(mask([6], [1, 3, 5])) == 0


def test_t3_translation_and_dilation_invariance():
    rng = random.Random(53)
    g = make_group([3, 5])
    for _ in range(15):
        s = random_subset(rng, g)
        t = rng.randrange(g.order)
        translated = SubsetMask.from_indices(g, [add(g, t, x) for x in s.indices()])
        assert direct_t3(translated) == direct_t3(s)
        u = rng.choice(units(g))
        perm = dilation_perm(g, u)
        dilated = SubsetMask.from_indices(g, [int(perm[x]) for x in s.indices()])
        assert direct_t3(dilated) == direct_t3(s)
        assert direct_prob(dilated) == direct_prob(s)


# The cube kernels against the per-set oracles, on random groups and masks.

EDGE_GROUPS = [(1,), (1, 5), (2, 1, 2), (3, 3, 3), (2, 2, 2, 2)]

groups = st.one_of(
    st.sampled_from(EDGE_GROUPS),
    st.lists(st.integers(1, 7), min_size=1, max_size=3).filter(
        lambda moduli: math.prod(moduli) <= 20
    ),
).map(make_group)


def union(g, orbits, m):
    return SubsetMask.from_indices(
        g, [e for i, orbit in enumerate(orbits) if m >> i & 1 for e in orbit]
    )


@settings(max_examples=150, deadline=None)
@given(groups, st.data())
def test_t3_cube_matches_direct_t3(g, data):
    if 2 << g.order > _MAX_CUBE_BYTES:
        with pytest.raises(ApxError, match="subset cube"):
            t3_cube(g, _singleton_orbits(g))
        return
    cube = t3_cube(g, _singleton_orbits(g))
    assert cube.size == 1 << g.order
    bits = data.draw(st.integers(0, cube.size - 1))
    assert cube[bits] == direct_t3(SubsetMask(g, bits))


@settings(max_examples=150, deadline=None)
@given(groups, st.data())
def test_closure_cube_matches_sum_closure_count(g, data):
    orbits = _symmetric_orbits(g)
    cube = closure_cube(g, orbits)
    m = data.draw(st.integers(0, cube.size - 1))
    assert cube[m] == sum_closure_count(union(g, orbits, m))


@settings(max_examples=150, deadline=None)
@given(groups, st.data())
def test_zero_free_closure_cube_counts_cayley_triangles(g, data):
    orbits = _symmetric_orbits(g, zero=False)
    cube = closure_cube(g, orbits)
    m = data.draw(st.integers(0, cube.size - 1))
    assert cayley_triangles_direct(union(g, orbits, m)) * 6 == g.order * int(cube[m])


def test_cubes_on_edge_groups():
    for moduli in EDGE_GROUPS:
        g = make_group(moduli)
        for zero in (True, False):
            orbits = _symmetric_orbits(g, zero)
            cube = closure_cube(g, orbits)
            assert cube.dtype == np.uint16 and cube.size == 1 << len(orbits)
            for m in range(0, cube.size, max(1, cube.size >> 9)):
                assert cube[m] == sum_closure_count(union(g, orbits, m))
        if 2 << g.order <= _MAX_CUBE_BYTES:
            cube = t3_cube(g, _singleton_orbits(g))
            for bits in range(0, cube.size, max(1, cube.size >> 9)):
                assert cube[bits] == direct_t3(SubsetMask(g, bits))


def test_closure_cube_refuses_cells_past_uint16():
    g = make_group([300])
    cube = closure_cube(g, [tuple(range(255))])
    assert cube[1] == sum_closure_count(SubsetMask.from_indices(g, range(255)))
    with pytest.raises(ValueError, match="256 elements"):
        closure_cube(g, [tuple(range(256))])


# The pair-sum oracles and both routes of their pass against the
# addition-table forms in conftest.

ROUTES = (counting._gather_pair_sums, counting._square_pair_counts)

oracle_groups = st.one_of(
    st.sampled_from(EDGE_GROUPS + [(2, 1, 3), (4, 3, 5)]),
    st.lists(st.integers(1, 16), min_size=1, max_size=4).filter(
        lambda moduli: math.prod(moduli) <= 256
    ),
).map(make_group)


def route_counts(route, s):
    """(sum_closure_count, direct_t3) of s, both read off one forced pass.

    The pass itself must hold r(x) = #{(a, b) in S^2 : a + b = x} of every
    x (the square route) or the sorted pair sums (the gather route), as the
    addition table gives them.
    """
    g = s.group
    elems = s.elems
    pairs = route(g, elems)
    sums = add_table(g)[np.ix_(elems, elems)].reshape(-1)
    expected = np.bincount(sums, minlength=g.order) if pairs.dense else np.sort(sums)
    assert np.array_equal(pairs.values, expected)
    return pairs.total(elems), pairs.total(add_table(g)[elems, elems])


@settings(max_examples=200, deadline=None)
@given(oracle_groups, st.integers(0, (1 << 256) - 1))
@example(make_group([1]), 1)
@example(make_group([1, 5]), 0b10110)
@example(make_group([2, 1, 2]), 0b1011)
@example(make_group([2, 1, 3]), 0b110101)
@example(make_group([2, 2, 2, 2]), 0xBEEF)
@example(make_group([3, 3, 3]), (1 << 27) - 1)
@example(make_group([16]), 0xF0F1)
@example(make_group([15]), (1 << 15) - 1)
def test_pair_sum_oracles_match_table_references(g, bits):
    s = SubsetMask(g, bits % (1 << g.order))
    if s.size == 0:
        assert sum_closure_count(s) == direct_t3(s) == 0
        return
    expected = (table_sum_closure_count(s), table_t3(s))
    assert (sum_closure_count(s), direct_t3(s)) == expected
    for route in ROUTES:
        assert route_counts(route, s) == expected
    # The mask answers both oracles again from the one pass it keeps.
    assert s.pairs is s.pairs
    assert (sum_closure_count(s), direct_t3(s)) == expected


def bit_indices(bits):
    """The set bits of bits in ascending order, peeled off one at a time."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(oracle_groups, st.integers(0, (1 << 256) - 1))
@example(make_group([1]), 0)
@example(make_group([1]), 1)
@example(make_group([1, 1]), 1)
@example(make_group([2, 1, 3]), 0b110101)
def test_indices_and_label_match_the_set_bits(g, bits):
    s = SubsetMask(g, bits % (1 << g.order))
    expected = bit_indices(s.bits)
    assert s.indices() == expected
    assert s.label == "{" + ",".join(map(str, expected)) + "}"
    assert tuple(s.elems.tolist()) == expected and s.elems.size == s.size
    assert s.memb.nonzero()[0].tolist() == list(expected) and s.memb.size == g.order
    assert s.contains_zero == (0 in expected)
    assert s.is_symmetric == all(neg(g, x) in s for x in expected)


def test_a_mask_with_filled_caches_equals_a_fresh_one():
    g = make_group([3, 5])
    for build in (
        lambda: SubsetMask.from_indices(g, [1, 2, 13, 14]),  # fills the membership
        lambda: SubsetMask(g, 0b110000000000110).with_zero(),  # built from S's
        lambda: SubsetMask(g, 0b110000000000111),
    ):
        s = build()
        direct_prob(s), direct_t3(s), s.is_symmetric, s.label  # fill every cache
        fresh = SubsetMask(g, s.bits)
        assert "pairs" in vars(s) and "is_symmetric" in vars(s) and "memb" not in vars(fresh)
        assert s == fresh and hash(s) == hash(fresh)
        assert (s.size, s.label, s.indices()) == (fresh.size, fresh.label, fresh.indices())
    with pytest.raises(ValueError, match="read-only"):
        s.memb[0] = 0  # a kept membership cannot drift from the bits


def test_pair_routes_at_the_digit_width_boundary():
    # An interval puts |S| pairs on its middle padded sum, the largest digit
    # a square can hold; 255 fits a byte, 256 needs two.
    for moduli in [(600,), (601,), (5, 7, 9)]:
        g = make_group(moduli)
        rng = random.Random(g.order)
        for size in (255, 256):
            assert counting._digit_dtype(size).itemsize == 1 + (size == 256)
            for indices in (range(size), rng.sample(range(g.order), size)):
                s = SubsetMask.from_indices(g, indices)
                expected = (table_sum_closure_count(s), table_t3(s))
                assert (sum_closure_count(s), direct_t3(s)) == expected
                for route in ROUTES:
                    assert route_counts(route, s) == expected
    assert counting._digit_dtype(65535).itemsize == 2
    assert counting._digit_dtype(65536).itemsize == 4


def test_pair_route_takes_the_square_for_dense_sets():
    cyclic, rank3 = make_group([65536]), make_group([16, 16, 32])
    for g, size, route in [
        (make_group([64]), 2, counting._square_pair_counts),  # both about 8 us
        (make_group([1024]), 16, counting._gather_pair_sums),
        (make_group([512]), 256, counting._square_pair_counts),
        (cyclic, 32, counting._gather_pair_sums),
        (cyclic, 2048, counting._gather_pair_sums),
        (cyclic, 4096, counting._square_pair_counts),
        (cyclic, 32768, counting._square_pair_counts),  # past the gather ceiling
        (rank3, 1024, counting._gather_pair_sums),
        (rank3, 4096, counting._square_pair_counts),
        # The slower route when the gather's 100 MB of pair sums do not fit.
        (make_group([400000]), 5000, counting._square_pair_counts),
    ]:
        assert counting.pair_route(g, size) is route


def test_pair_route_refuses_before_allocating():
    # Half of Z_4000000: 1.6e13 bytes of pair sums, a 1.28e8-bit square.
    g = make_group([4000000])
    s = SubsetMask(g, (1 << 2000000) - 1)
    square = mock.Mock(side_effect=AssertionError("the square started"))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with mock.patch.object(counting, "_square_pair_counts", square):
            for oracle in (sum_closure_count, direct_t3):
                with pytest.raises(
                    ApxError, match=r"needs 16000000000000 bytes by gather .* and "
                    r"\d+ bytes by square .* and 128000000 bits to square"
                ):
                    oracle(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 16 << 20  # far below either route; nothing is decoded
    with pytest.raises(ApxError, match="bytes by gather"):
        counting.pair_route(make_group([2] * 16), 1)  # a 3^16-cell reduce table
    # Within the byte ceiling, but the square would take minutes.
    with pytest.raises(ApxError, match="and 16000000 bits to square"):
        counting.pair_route(make_group([500000]), 100000)


def test_closed_forms_on_sets_past_the_gather_ceiling():
    g = make_group([65536])
    k = 32768  # x + y < k for k(k+1)/2 of the pairs, and never wraps
    s = SubsetMask(g, (1 << k) - 1)
    assert 4 * k * k > group._MAX_TABLE_BYTES
    assert sum_closure_count(s) == k * (k + 1) // 2
    # With 3k <= n, a + c = 2b holds in Z rather than mod n, so T3 counts
    # the pairs (a, c) of [0, k)^2 with a + c even.
    k = 21845
    evens, odds = (k + 1) // 2, k // 2
    assert direct_t3(SubsetMask(g, (1 << k) - 1)) == evens * evens + odds * odds


@settings(max_examples=200, deadline=None)
@given(oracle_groups, st.data())
@example(make_group([1]), None)
def test_from_indices_and_is_symmetric_match_scalar_definitions(g, data):
    if data is None:
        indices = [0, 0]
    else:
        indices = data.draw(st.lists(st.integers(0, g.order - 1), max_size=20))
    s = SubsetMask.from_indices(g, indices)
    assert s.bits == sum(1 << i for i in set(indices))
    assert s.is_symmetric == all(neg(g, x) in s for x in indices)
    assert SubsetMask.from_indices(g, indices + [neg(g, x) for x in indices]).is_symmetric


def test_from_indices_rejects_bad_indices_in_order():
    g = make_group([6])
    for indices, bad, why in [
        ([1, True], "True", "is not an integer"), ([1, 2.0], "2.0", "is not an integer"),
        ([-1], "-1", r"out of range \[0, 6\)"), ([0, 6], "6", r"out of range \[0, 6\)"),
        ([7, False], "7", r"out of range \[0, 6\)"), (["3"], "'3'", "is not an integer"),
        ([np.int64(6)], r"np.int64\(6\)", r"out of range \[0, 6\)"),
        ([np.bool_(True)], r"np.True_", "is not an integer"),
    ]:
        with pytest.raises(ValueError, match=rf"^element index {bad} {why}$"):
            SubsetMask.from_indices(g, indices)
    assert SubsetMask.from_indices(g, iter([5, 1, 5])).bits == 0b100010
    assert SubsetMask.from_indices(g, []).bits == 0


def test_from_indices_takes_numpy_indices():
    g = make_group([5])
    assert SubsetMask.from_indices(g, np.array([1, 4])) == SubsetMask.from_indices(g, [1, 4])
    assert SubsetMask.from_indices(g, [np.uint8(3), 0]).bits == 0b1001
    # Another mask's elems and orbit_split's arrays build masks as they are.
    s = SubsetMask.from_indices(make_group([2, 6]), [1, 3, 11])
    fixed, pairs = orbit_split(s.group)
    for indices in (s.elems, fixed, pairs):
        rebuilt = SubsetMask.from_indices(s.group, indices.reshape(-1))
        assert rebuilt.indices() == tuple(sorted(indices.reshape(-1).tolist()))


# cayley_triangles_direct against the dense int64 reference in conftest.

cayley_groups = st.one_of(
    st.sampled_from(EDGE_GROUPS),
    st.lists(st.integers(1, 9), min_size=1, max_size=3).filter(
        lambda moduli: math.prod(moduli) <= 64
    ),
).map(make_group)


@settings(max_examples=200, deadline=None)
@given(cayley_groups, st.integers(0, (1 << 64) - 1), st.integers(1, 1 << 12))
@example(make_group([1]), 0, 1)
@example(make_group([1, 5]), 3, 1)
@example(make_group([2, 1, 2]), 7, 1)
@example(make_group([2, 2, 2, 2]), (1 << 15) - 1, 3)
@example(make_group([2, 2, 2, 2]), 0b101010101, 1 << 20)
@example(make_group([5, 26]), (1 << 64) - 1 - (1 << 40), 1 << 13)  # 3-word rows
@example(make_group([2, 3, 11]), 0x5A5A5A5A, 1 << 20)  # 2 words, one block
def test_cayley_direct_matches_dense_reference(g, bits, block_bytes):
    # A random block budget makes small groups run many blocks, with a
    # partial last one.
    orbits = _symmetric_orbits(g, zero=False)
    s = union(g, orbits, bits % (1 << len(orbits)))
    with mock.patch.object(counting, "_BLOCK_BYTES", block_bytes):
        assert cayley_triangles_direct(s) == dense_cayley_triangles(s)


def test_cayley_direct_dense_set_runs_several_blocks():
    # An interval of 300 elements on Z_512: rows of 8 words, 54-row blocks,
    # and a last block of 26 rows.
    g = make_group([512])
    s = SubsetMask.from_indices(g, [x for x in range(1, 512) if min(x, 512 - x) <= 150])
    assert s.size == 300
    step = counting._BLOCK_BYTES // (8 * 8 * s.size)
    assert 1 < step < 512 and 512 % step
    expected = dense_cayley_triangles(s)
    assert expected > 0
    assert cayley_triangles_direct(s) == expected == cayley_triangles_formula(s)


def test_cayley_direct_reaches_past_the_old_table_ceiling():
    # Order 4096 was refused while the kernel read an n x n addition table.
    for n, elements in [(4096, [1, 4095]), (4096, [1, 2, 4094, 4095]), (4099, [3, 5, 4094, 4096])]:
        s = mask([n], elements)
        assert cayley_triangles_direct(s) == cayley_triangles_formula(s)
    assert cayley_triangles_direct(mask([4096], [1, 2, 4094, 4095])) == 4096


def test_cayley_budget_accepts_every_set_the_table_took():
    # The kernel took every symmetric 0-free set up to order 2896; the
    # budget is checked alone, without running the count.
    for n in range(1, 2897):
        counting.require_cayley(make_group([n]), n - 1)
    for d in range(2896):
        counting.require_cayley(make_group([2, 1448]), d)
    assert 2896 * 2895 * 46 <= group._MAX_CAYLEY_WORDS


def test_cayley_direct_refuses_over_budget_sets_fast():
    # Z_131072: 2 GiB of neighbour rows. Z_4096 without 0: 4096 * 4095 * 64
    # word ANDs, over the budget though its rows take 2 MiB.
    big = SubsetMask.from_indices(make_group([1 << 17]), [1, (1 << 17) - 1])
    dense = SubsetMask(make_group([4096]), (1 << 4096) - 2)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with mock.patch.object(counting, "pair_sums", side_effect=AssertionError):
            with pytest.raises(
                ApxError,
                match=r"needs 2147483648 bytes of neighbour rows .* and 536870912 word ANDs",
            ):
                cayley_triangles_direct(big)
            with pytest.raises(
                ApxError,
                match=r"needs 2097152 bytes of neighbour rows .* and 1073479680 word ANDs",
            ):
                cayley_triangles_direct(dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20  # no table of either group


def test_cayley_direct_memory_stays_far_below_a_dense_matrix():
    g = make_group([2048])
    s = SubsetMask.from_indices(g, [x for x in range(1, 2048) if min(x, 2048 - x) <= 512])
    s.is_symmetric, _sum_kernel(g)  # made first: they are not the Cayley kernel's memory
    tracemalloc.start()
    try:
        triangles = cayley_triangles_direct(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2048 * 2048 // 4  # a quarter of one n x n int64 array
    assert triangles == cayley_triangles_formula(s)
