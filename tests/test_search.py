from fractions import Fraction
from itertools import combinations

import pytest

from apx import (
    GAMMA0,
    OddOrderRequiredError,
    SubsetMask,
    closure_bound,
    direct_prob,
    enumerate_abelian_groups,
    enumerate_symmetric_subsets,
    extremal_search,
    make_group,
    verify_gls,
    verify_theorem1,
    verify_theorem2,
)
from apx.report import report_json


def symmetric_brute(g, d):
    out = set()
    for combo in combinations(range(g.order), d):
        s = SubsetMask.from_indices(g, combo)
        if s.is_symmetric:
            out.add(s.bits)
    return out


def test_enumerate_symmetric_examples():
    z5 = make_group([5])
    sets = [s.label for s in enumerate_symmetric_subsets(z5, 2)]
    assert sorted(sets) == ["{1,4}", "{2,3}"]
    z4 = make_group([4])
    sets = [s.label for s in enumerate_symmetric_subsets(z4, 2)]
    assert sorted(sets) == ["{0,2}", "{1,3}"]
    empty = list(enumerate_symmetric_subsets(z4, 0))
    assert len(empty) == 1 and empty[0].size == 0
    with pytest.raises(ValueError):
        list(enumerate_symmetric_subsets(z4, 5))


def test_enumerate_symmetric_complete_and_unique():
    for g in enumerate_abelian_groups(12):
        for d in range(0, g.order + 1):
            produced = [s.bits for s in enumerate_symmetric_subsets(g, d)]
            assert len(produced) == len(set(produced))
            assert set(produced) == symmetric_brute(g, d)
            assert all(SubsetMask(g, b).size == d for b in produced)


def test_extremal_search_examples():
    rep = extremal_search(make_group([6]), 3, "prob")
    assert rep.max_value == 1
    assert [w.label for w in rep.witnesses] == ["{0,2,4}"]

    rep = extremal_search(make_group([5]), 4, "prob")
    assert rep.max_value == Fraction(3, 4)
    assert [w.label for w in rep.witnesses] == ["{1,2,3,4}"]

    rep = extremal_search(make_group([5]), 1, "t3density")
    assert rep.max_value == 1
    assert any(w.label == "{0}" for w in rep.witnesses)


def test_extremal_search_validation():
    with pytest.raises(OddOrderRequiredError):
        extremal_search(make_group([6]), 2, "t3density")
    with pytest.raises(ValueError):
        extremal_search(make_group([6]), 0, "prob")
    with pytest.raises(ValueError):
        extremal_search(make_group([6]), 2, "nope")
    for cap in (0, -1):
        with pytest.raises(ValueError, match="witness_cap"):
            extremal_search(make_group([15]), 3, "prob", witness_cap=cap)


def test_extremal_search_monotone_sanity():
    for moduli in [(6,), (9,), (2, 4)]:
        g = make_group(moduli)
        assert extremal_search(g, g.order, "prob").max_value == 1
        rep = extremal_search(g, 1, "prob")
        assert rep.max_value == 1
        assert any(w.label == "{0}" for w in rep.witnesses)


def test_canonicalization_never_changes_the_maximum():
    for g in enumerate_abelian_groups(10):
        for d in range(1, g.order + 1):
            plain = extremal_search(g, d, "prob", canonicalize=False)
            canon = extremal_search(g, d, "prob", canonicalize=True)
            assert plain.max_value == canon.max_value
            assert canon.enumerated == plain.enumerated
            if g.order % 2 == 1:
                plain_t = extremal_search(g, d, "t3density")
                canon_t = extremal_search(g, d, "t3density", canonicalize=True)
                assert plain_t.max_value == canon_t.max_value


def test_canonicalization_prunes_orbits():
    rep = extremal_search(make_group([7]), 2, "prob", canonicalize=True)
    # the three symmetric pairs {1,6}, {2,5}, {3,4} form one dilation orbit
    assert rep.pruned_by_canon == 2
    assert rep.enumerated == 3


def test_witness_cap():
    rep = extremal_search(make_group([13]), 2, "prob", witness_cap=2)
    assert len(rep.witnesses) <= 2
    assert all(direct_prob(w) == rep.max_value for w in rep.witnesses)


def test_verify_theorem2_small():
    rep = verify_theorem2(12)
    assert rep.failures == []
    assert rep.worst_gap == 0
    subgroup_cases = [c for c in rep.cases if c.alpha == 0]
    assert subgroup_cases and all(c.gap == 0 for c in subgroup_cases)
    z6d4 = next(c for c in rep.cases if c.order == 6 and c.d == 4)
    assert z6d4.bound == closure_bound(1, Fraction(1, 2)).value == GAMMA0
    assert z6d4.max_value <= Fraction(3, 4)


def test_verify_theorem1_small():
    rep = verify_theorem1(9)
    assert rep.failures == []
    assert all(c.max_density <= 1 for c in rep.cases)
    z9d3 = next(c for c in rep.cases if c.group == "9" and c.d == 3)
    assert z9d3.max_density == 1  # the subgroup {0,3,6} attains it
    z5d3 = next(c for c in rep.cases if c.group == "5" and c.d == 3)
    assert z5d3.max_density == Fraction(5, 9)
    assert z5d3.term_bound == Fraction(7, 9)
    assert z5d3.regime == "algebraic"
    assert rep.empirical_gamma1 is None or rep.empirical_gamma1 < 1


def test_verify_gls_small():
    rep = verify_gls(10)
    assert rep.failures == []
    assert rep.sets_total > 0
    assert all(c.regime in ("asserted", "logged") for c in rep.cases)
    # q >= 7 at these orders means |S0| <= n/7, i.e. tiny degrees only
    for c in rep.cases:
        assert (c.regime == "asserted") == (c.q >= 7)
        assert c.holds == (c.max_triangles <= c.bound)
    z7d2 = next(c for c in rep.cases if c.group == "7" and c.d == 2)
    assert z7d2.max_triangles == 0


def test_verify_suites_threads_deterministic():
    serial = verify_theorem2(8, threads=1)
    parallel = verify_theorem2(8, threads=2)
    assert report_json(serial) == report_json(parallel)
    serial1 = verify_theorem1(7, threads=1)
    parallel1 = verify_theorem1(7, threads=2)
    assert report_json(serial1) == report_json(parallel1)
    serial_g = verify_gls(8, threads=1)
    parallel_g = verify_gls(8, threads=2)
    assert report_json(serial_g) == report_json(parallel_g)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_theorem2(1)
    with pytest.raises(ValueError):
        verify_theorem1(2)
    with pytest.raises(ValueError):
        verify_gls(1)
