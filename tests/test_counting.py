import random
from fractions import Fraction
from itertools import combinations

import pytest

from apx import (
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
from apx.group import dilation_perm, units

from conftest import add, empty, full, halve, mask, neg


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
    from apx.search import enumerate_symmetric_subsets

    for g in enumerate_abelian_groups(8):
        for d in range(0, g.order):
            for s in enumerate_symmetric_subsets(g, d):
                if s.contains_zero:
                    continue
                assert cayley_triangles_direct(s) == cayley_triangles_formula(s)
                if s.size:
                    assert prob_from_s0(s) == direct_prob(s)


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
