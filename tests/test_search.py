import concurrent.futures
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apx import (
    GAMMA0,
    ApxError,
    OddOrderRequiredError,
    SubsetMask,
    cayley_triangles_direct,
    closure_bound,
    direct_prob,
    direct_t3,
    enumerate_abelian_groups,
    gls_bound,
    extremal_search,
    make_group,
    verify_gls,
    verify_theorem1,
    verify_theorem2,
)
from apx import group, search
from apx.counting import closure_cube, require_cube, t3_cube
from apx.group import orbit_split
from apx.report import report_json
from apx.search import (
    _cube_rows,
    _group_cases,
    _plan_rows,
    _reversed_bits,
    _singleton_orbits,
    _symmetric_bits,
    _symmetric_orbits,
    _theorem1_plan,
)

from conftest import orbit_sizes, reference_cube_rows, reversed_bits


def suite_of(verify):
    """The suite a verify function hands to the one sweep driver."""
    with mock.patch.object(search, "_sweep", wraps=search._sweep) as sweep:
        verify(3)
    return sweep.call_args.args[0]


def symmetric_brute(g, d):
    out = set()
    for combo in combinations(range(g.order), d):
        s = SubsetMask.from_indices(g, combo)
        if s.is_symmetric:
            out.add(s.bits)
    return out


def symmetric_labels(g, d):
    return [SubsetMask(g, bits).label for bits in _symmetric_bits(*orbit_split(g), d)]


def test_enumerate_symmetric_examples():
    assert sorted(symmetric_labels(make_group([5]), 2)) == ["{1,4}", "{2,3}"]
    z4 = make_group([4])
    assert sorted(symmetric_labels(z4, 2)) == ["{0,2}", "{1,3}"]
    assert symmetric_labels(z4, 0) == ["{}"]
    assert symmetric_labels(z4, 5) == []


def test_enumerate_symmetric_complete_and_unique():
    for g in enumerate_abelian_groups(12):
        for d in range(0, g.order + 1):
            produced = list(_symmetric_bits(*orbit_split(g), d))
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


def test_search_candidate_count_is_exact():
    # The ceiling check counts exactly what the search enumerates: a
    # ceiling at its bits passes, one below them refuses with the count.
    for g in enumerate_abelian_groups(9):
        objectives = ("prob", "t3density") if g.order % 2 else ("prob",)
        for objective in objectives:
            for d in range(1, g.order + 1):
                count = extremal_search(g, d, objective).enumerated
                bits = count * group._SEARCH_CALL_BITS
                with mock.patch.object(group, "_MAX_SEARCH_BITS", bits):
                    extremal_search(g, d, objective)
                with mock.patch.object(group, "_MAX_SEARCH_BITS", bits - 1):
                    message = f"over {count} candidates .* {bits} bits"
                    with pytest.raises(ApxError, match=message):
                        extremal_search(g, d, objective)


def test_refusals_state_estimates_past_the_int_print_limit_by_bit_length():
    # C(19683, 9000) and 2 << 15000 have thousands of digits, more than
    # Python turns into a string; the refusal states a power of 2 below each.
    with pytest.raises(ApxError, match=r"over at least 2\^19571 candidates .* at least 2\^19585 bits"):
        extremal_search(make_group([3] * 9), 9000, "t3density")
    z15000 = make_group([15000])
    with pytest.raises(ApxError, match=r"15000 orbits .* needs at least 2\^15001 bytes"):
        t3_cube(z15000, _singleton_orbits(z15000))
    assert group._spell_count(10**18 - 1) == "999999999999999999"
    assert group._spell_count(10**18) == "at least 2^59"


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


def test_theorem1_density_reaches_one_at_even_order():
    # Why the suite runs on odd orders only: in Z2^2 every y has 2y = 0, so
    # each x, x + y in S gives the progression (x, x + y, x): T3 = |S|^2.
    s = SubsetMask.from_indices(make_group([2, 2]), [0, 1, 2])
    assert direct_t3(s) == 9 == s.size**2
    assert Fraction(direct_t3(s), s.size**2) > GAMMA0


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
    # These sweeps are too small to start a pool unless the floor is lowered.
    with mock.patch.object(search, "_POOL_MIN_CELLS", 0):
        for verify, max_order in [
            (verify_theorem2, 8), (verify_theorem1, 7), (verify_gls, 8)
        ]:
            serial = verify(max_order, threads=1)
            parallel = verify(max_order, threads=2)
            assert report_json(serial) == report_json(parallel)


def test_small_sweeps_start_no_pool():
    # pmap imports ProcessPoolExecutor from concurrent.futures when it starts one.
    pool = mock.patch.object(
        concurrent.futures, "ProcessPoolExecutor", side_effect=AssertionError("pool")
    )
    with pool:
        verify_theorem2(8, threads=2)
        verify_theorem1(9, threads=2)
        verify_gls(8, threads=2)
    # The same sweeps do reach the pool once the floor is below their cells.
    with mock.patch.object(search, "_POOL_MIN_CELLS", 0), pool:
        with pytest.raises(AssertionError, match="pool"):
            verify_theorem1(9, threads=2)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_theorem2(1)
    with pytest.raises(ValueError):
        verify_theorem1(2)
    with pytest.raises(ValueError):
        verify_gls(1)


def test_search_matches_the_suite_cubes():
    # extremal_search scores each candidate with a per-set oracle and the
    # suites read the whole-subset cube; both keep the first maximizer in
    # candidate order, and a size class holds what the search enumerates.
    theorem2, theorem1 = suite_of(verify_theorem2), suite_of(verify_theorem1)
    for g in enumerate_abelian_groups(11):
        n = g.order
        objectives = [("prob", theorem2)] + ([("t3density", theorem1)] if n % 2 else [])
        for objective, suite in objectives:
            orbits = suite.orbits(g)
            cases = _group_cases(suite, (g, orbits))
            assert [c.d for c in cases] == list(range(1, n + 1))
            sizes = orbit_sizes(orbits)
            for case in cases:
                rep = extremal_search(g, case.d, objective, witness_cap=1)
                if objective == "prob":
                    high, bound = case.max_value, case.bound
                else:
                    high, bound = case.max_density, case.term_bound
                assert (rep.max_value, rep.witnesses[0].label) == (high, case.witness)
                assert (rep.bound.value, rep.enumerated) == (
                    bound, int((sizes == case.d).sum())
                )


def test_cube_rows_match_the_per_size_reference_on_real_cubes():
    for g in enumerate_abelian_groups(13):
        for zero in (True, False):
            orbits = _symmetric_orbits(g, zero)
            cube = closure_cube(g, orbits)
            assert _cube_rows(cube, orbits) == reference_cube_rows(g, cube, orbits)
    for n in range(1, 16, 2):
        for g in enumerate_abelian_groups(n):
            if g.order == n:
                orbits = _singleton_orbits(g)
                cube = t3_cube(g, orbits)
                assert _cube_rows(cube, orbits) == reference_cube_rows(g, cube, orbits)


def test_reversed_bits_match_the_bit_loop():
    rng = np.random.default_rng(5)
    for width in range(25):
        values = rng.integers(0, 1 << 30, size=200)
        assert np.array_equal(_reversed_bits(values, width), reversed_bits(values, width)[0])


def test_theorem1_plan_keeps_the_dense_rows():
    # The pins ({0}, or {0, 1} on Z_p^r) keep every size's maximum and its
    # first maximizer in combinations order, the dense cube's witness. So
    # does a plan that scores the sets without 0 in a second piece: a size
    # both pieces reach keeps the first piece's row.
    for n in range(1, 18, 2):
        for g in enumerate_abelian_groups(n):
            if g.order == n:
                orbits = _singleton_orbits(g)
                dense = [row[:3] for row in _cube_rows(t3_cube(g, orbits), orbits)[1:]]
                pinned = _plan_rows(t3_cube, g, _theorem1_plan(g, orbits))
                assert [row[:3] for row in pinned] == dense
                split = _plan_rows(t3_cube, g, [((0,), orbits[1:]), ((), orbits[1:])])
                assert [row[:3] for row in split[1:]] == dense


def test_pinning_0_and_1_on_z9_loses_its_subgroup():
    # Z9 has no automorphism taking 3 to 1, so the {0, 1} pin of Z_p^r would
    # miss the subgroup {0, 3, 6}: at size 3, T3 = 9 only on its cosets.
    z9 = make_group([9])
    orbits = _singleton_orbits(z9)
    rows = {row[0]: row for row in _plan_rows(t3_cube, z9, _theorem1_plan(z9, orbits))}
    assert rows[3][1:3] == (9, "{0,3,6}")
    forced = [((0,), []), ((0, 1), orbits[2:])]
    rows = {row[0]: row for row in _plan_rows(t3_cube, z9, forced)}
    assert rows[3][1] < 9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 5), st.data())
def test_cube_rows_match_the_per_size_reference_on_tied_cubes(fixed, pairs, data):
    # Values in 0..2 make most sizes tie many cells, so the witness key decides.
    n = max(1, fixed + 2 * pairs)
    g = make_group([n])
    orbits = [(x,) for x in range(fixed)] + [
        (fixed + 2 * i, fixed + 2 * i + 1) for i in range(pairs)
    ]
    cells = 1 << (fixed + pairs)
    # One draw of raw bytes, each reduced to 0..2: far cheaper than a list of cells.
    values = data.draw(st.binary(min_size=cells, max_size=cells))
    cube = (np.frombuffer(values, dtype=np.uint8) % 3).astype(np.uint16)
    assert _cube_rows(cube, orbits) == reference_cube_rows(g, cube, orbits)


# Reference sweep for the gls rows: every connection set scored by the
# per-set oracle, the first maximizer in candidate order kept as the witness.


def first_maximum(g, candidates, evaluate):
    best, witness, sets = None, None, 0
    for bits in candidates:
        sets += 1
        value = evaluate(SubsetMask(g, bits))
        if best is None or value > best:
            best, witness = value, SubsetMask(g, bits).label
    return best, witness, sets


def test_suite_cases_match_the_reference_sweep():
    suite = suite_of(verify_gls)
    for g in enumerate_abelian_groups(11):
        n = g.order
        fixed, pairs = orbit_split(g)
        gls = {case.d: case for case in _group_cases(suite, (g, suite.orbits(g)))}
        nonzero = fixed[fixed != 0]
        for d in range(n):
            best, witness, sets = first_maximum(
                g, _symmetric_bits(nonzero, pairs, d), cayley_triangles_direct
            )
            if sets == 0:
                assert d not in gls
                continue
            case = gls[d]
            assert (case.max_triangles, case.witness, case.sets) == (best, witness, sets)
            assert case.bound == gls_bound(n, d)


def test_each_sweep_budgets_the_one_orbit_list_its_cube_scores():
    # Per group and sweep: one orbit list is built, and the budget is asked
    # for the widest piece of its plan, the most bits of any cube the group
    # then scores. theorem2 and gls score the whole orbit list in one piece.
    def recorder(log, fn, value):
        def record(group, *args, **kwargs):
            result = fn(group, *args, **kwargs)
            log.append((group.label, value(args, result)))
            return result
        return record

    for verify in (verify_theorem2, verify_theorem1, verify_gls):
        built, budgets, widths = [], [], []
        with (
            mock.patch.object(search, "_symmetric_orbits", recorder(
                built, _symmetric_orbits, lambda args, result: len(result))),
            mock.patch.object(search, "_singleton_orbits", recorder(
                built, _singleton_orbits, lambda args, result: len(result))),
            mock.patch.object(search, "require_cube", recorder(
                budgets, require_cube, lambda args, result: args[0])),
            mock.patch.object(search, "closure_cube", recorder(
                widths, closure_cube, lambda args, result: result.size.bit_length() - 1)),
            mock.patch.object(search, "t3_cube", recorder(
                widths, t3_cube, lambda args, result: result.size.bit_length() - 1)),
        ):
            report = verify(16)
        assert len(built) == len({label for label, _ in built}) == report.groups
        widest = {}
        for label, width in widths:
            widest[label] = max(width, widest.get(label, 0))
        assert sorted(budgets) == sorted(widest.items())
        if verify is not verify_theorem1:
            assert sorted(widths) == sorted(built)


def test_search_at_size_1_builds_no_orbit_table():
    # Z_1000000 has 500,000 pairs {x, -x}; a size-1 set is one of x = -x.
    g = make_group([1000000])
    tracemalloc.start()
    try:
        report = extremal_search(g, 1, "prob")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.enumerated == 2 and [w.label for w in report.witnesses] == ["{0}"]
    assert peak < 16 << 20  # the 12 MB pair-sum tables, but no 8 MB orbit table


def test_search_refuses_pair_sums_before_enumerating():
    # Z_2^16 has 65,536 one-element candidates, but no route holds the
    # 3^16-cell reduce table; the search shares the oracles' check.
    g = make_group([2] * 16)
    with mock.patch.object(search, "direct_prob", side_effect=AssertionError):
        with pytest.raises(ApxError, match="pair sums of a 1-element set .* by gather"):
            extremal_search(g, 1, "prob")


def test_suites_refuse_oversized_cubes_before_any_work():
    tracemalloc.start()
    try:
        # Z25 holds 0 pinned: 24 free orbits. Z27 is not Z_p^r, so it keeps 26.
        with pytest.raises(ApxError, match=r"group 27 .*needs 134217728 bytes"):
            verify_theorem1(40)
        with pytest.raises(ApxError, match=r"group 2,2,2,2,2 .*needs 8589934592 bytes"):
            verify_theorem2(130)
        with pytest.raises(ApxError, match=r"group 2,2,2,2,2 .*needs 4294967296 bytes"):
            verify_gls(130)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    require_cube(make_group([17]), 17)  # theorem1 at order 17
    require_cube(make_group([2, 2, 2, 2]), 16)  # theorem2 on Z_2^4
    require_cube(make_group([23]), 23)
    with pytest.raises(ApxError):
        require_cube(make_group([25]), 25)
