import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apx import (
    IntWeightSeq,
    SymmetryRequiredError,
    bruteforce_scan,
    implication_check,
    lemma1,
    min_product_sum,
)
from apx.errors import ApxError
from apx.lemma1 import _scan_center, _sequence_count, _window_triples


def test_weight_seq_construction():
    seq = IntWeightSeq.symmetric(3, (3,))
    assert seq.radius == 1
    assert seq.weights == (3, 3, 3)
    assert seq.total == 9
    assert seq.center == 3
    assert seq.is_symmetric
    asym = IntWeightSeq(1, (1, 0, 2))
    assert not asym.is_symmetric
    with pytest.raises(ValueError):
        IntWeightSeq(1, (1, 2))
    with pytest.raises(ValueError):
        IntWeightSeq(0, (0,))
    with pytest.raises(ValueError):
        IntWeightSeq(0, (-1,))


def test_min_product_sum_examples():
    assert min_product_sum(IntWeightSeq(0, (5,))) == 25
    assert min_product_sum(IntWeightSeq.symmetric(3, (3,))) == 63
    assert min_product_sum(IntWeightSeq(1, (1, 0, 1))) == 0


def test_min_product_sum_matches_remark_value():
    # 63 = (1 - 2/9) * 81 exactly
    assert Fraction(63) == (1 - Fraction(2, 9)) * 81


def test_min_product_sum_at_most_d_squared():
    # equality holds exactly when the support is {0}, checked exhaustively
    for a0 in range(0, 9):
        for a1 in range(0, 5):
            for a2 in range(0, 5):
                if a0 + 2 * (a1 + a2) == 0:
                    continue
                seq = IntWeightSeq.symmetric(a0, (a1, a2))
                value = min_product_sum(seq)
                assert value <= seq.total**2
                if a1 == a2 == 0:
                    assert value == seq.total**2
                elif seq.total <= 8:
                    assert value < seq.total**2


def test_min_product_sum_negation_invariance():
    for weights in [(1, 2, 3), (0, 4, 1), (2, 0, 5)]:
        seq = IntWeightSeq(1, weights)
        mirrored = IntWeightSeq(1, tuple(reversed(weights)))
        assert min_product_sum(seq) == min_product_sum(mirrored)


def test_min_product_sum_quadratic_scaling():
    seq = IntWeightSeq.symmetric(2, (1, 3))
    base = min_product_sum(seq)
    for c in (2, 3, 5):
        scaled = IntWeightSeq.symmetric(2 * c, (c, 3 * c))
        assert min_product_sum(scaled) == c * c * base


def test_implication_check_examples():
    trivial = IntWeightSeq(0, (5,))
    rep = implication_check(trivial, Fraction(1, 20))
    assert rep.hypothesis and rep.conclusion and rep.ok

    tight = IntWeightSeq.symmetric(3, (3,))
    rep = implication_check(tight, Fraction(2, 9))
    assert rep.hypothesis and not rep.conclusion and not rep.ok

    rep = implication_check(tight, Fraction(1, 20))
    assert not rep.hypothesis and rep.ok


def test_implication_check_requires_symmetry():
    with pytest.raises(SymmetryRequiredError):
        implication_check(IntWeightSeq(1, (1, 0, 2)), Fraction(1, 20))
    with pytest.raises(ValueError):
        implication_check(IntWeightSeq(0, (5,)), Fraction(3, 2))


def test_bruteforce_scan_clean_below_tenth():
    rep = bruteforce_scan(10, 3, Fraction(99, 1000))
    assert rep.violations == []
    assert rep.checked > 0


def test_bruteforce_scan_flags_tight_example():
    rep = bruteforce_scan(9, 1, Fraction(2, 9))
    flagged = {v.weights for v in rep.violations}
    assert (3, 3, 3) in flagged


def test_bruteforce_scan_minimal():
    rep = bruteforce_scan(1, 0, Fraction(1, 20))
    assert rep.checked == 1
    assert rep.violations == []


def test_bruteforce_scan_lemma_range_exhaustive():
    # eps just below the guaranteed 1/10 threshold
    rep = bruteforce_scan(12, 3, Fraction(99, 1000))
    assert rep.violations == []


def test_bruteforce_scan_threads_deterministic():
    # Three tasks split the ten centers 4, 3, 3: an uneven interleaving.
    serial = bruteforce_scan(9, 2, Fraction(2, 9), threads=1)
    for threads in (2, 3):
        parallel = bruteforce_scan(9, 2, Fraction(2, 9), threads=threads)
        assert serial.checked == parallel.checked
        assert serial.violations == parallel.violations


def test_bruteforce_scan_builds_one_plan_per_task():
    # 31 centers, one serial task: one window and one set of thresholds.
    with patch.object(lemma1, "_window_triples", wraps=_window_triples) as window:
        report = bruteforce_scan(30, 2, Fraction(99, 1000))
    assert window.call_count == 1 and report.checked + 1 == _sequence_count(30, 2)


def test_scan_counts_every_sequence_once():
    rep = bruteforce_scan(4, 1, Fraction(1, 20))
    # a0 + 2*a1 <= 4, total >= 1: count pairs explicitly
    expected = sum(
        1 for a0 in range(5) for a1 in range((4 - a0) // 2 + 1) if a0 + 2 * a1 >= 1
    )
    assert rep.checked == expected


KERNEL_EPS = [Fraction(0), Fraction(1, 10), Fraction(2, 9), Fraction(1, 10**20)]


def reference_tails(radius, budget):
    """(a_1, ..., a_radius) with sum <= budget, in lexicographic order."""
    return [t for t in product(range(budget + 1), repeat=radius) if sum(t) <= budget]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 10), st.integers(0, 10), st.integers(1, 4), st.integers(0, 3),
    st.sampled_from(KERNEL_EPS), st.integers(1, 64),
)
@example(1, 0, 1, 0, Fraction(0), 1)
@example(1, 0, 1, 2, Fraction(1, 10**20), 2)
@example(9, 3, 1, 0, Fraction(2, 9), 1)
@example(9, 3, 1, 1, Fraction(2, 9), 2)
@example(9, 0, 3, 2, Fraction(2, 9), 5)
@example(8, 0, 1, 5, Fraction(1, 10), 7)
def test_scan_center_matches_implication_check(d_max, a0, step, radius, eps, chunk):
    # Every sequence of each center goes through the oracle, including the
    # skipped all-zero one at a0 = 0; small chunks cross the tail batches,
    # and a step > 1 gives the interleaved centers of one pool task.
    centers = range(a0 % (d_max + 1), d_max + 1, step)
    expected = []
    checked = 0
    for center in centers:
        for tail in reference_tails(radius, (d_max - center) // 2):
            if center == 0 and not any(tail):
                continue
            checked += 1
            result = implication_check(IntWeightSeq.symmetric(center, tail), eps)
            if not result.ok:
                expected.append(result)
    triples = len(_window_triples(radius)[3])
    with patch.object(lemma1, "_BLOCK_BYTES", 8 * triples * chunk):
        assert _scan_center(centers, d_max, radius, eps) == (checked, expected)


def test_scan_center_rebuilds_violations_with_the_oracle():
    # A kernel verdict of "violated" is handed to implication_check; when
    # the oracle says the implication holds, the scan refuses.
    ok = implication_check(IntWeightSeq.symmetric(1, ()), Fraction(1, 10))
    with patch.object(lemma1, "implication_check", lambda seq, eps: ok):
        with pytest.raises(ApxError, match="disagree"):
            _scan_center(range(3, 4), 9, 1, Fraction(2, 9))


def test_scan_center_memory_stays_near_its_block_at_a_wide_radius():
    # Radius 20 has 121 triple groups, so a chunk of 4,096 tails would make
    # 3.8 MiB int64 temporaries (a 24.6 MiB traced peak); chunks sized to
    # the block budget keep each near 1 MiB.
    tracemalloc.start()
    try:
        checked, violations = _scan_center(range(1), 8, 20, Fraction(99, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (checked, violations) == (10625, [])
    assert peak < 10 << 20


@pytest.mark.parametrize("eps", [Fraction(3, 2), Fraction(1), Fraction(-1, 10)])
def test_bruteforce_scan_rejects_eps_before_scanning(eps):
    with patch.object(lemma1, "pmap", side_effect=AssertionError("scanned")):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
            bruteforce_scan(5, 1, eps, threads=2)


def test_sequence_count_is_the_scans_checked_count_plus_the_zero_sequence():
    for d_max in range(1, 40):
        for radius in range(10):
            count = sum(comb(radius + (d_max - a0) // 2, radius) for a0 in range(d_max + 1))
            assert _sequence_count(d_max, radius) == count
    for d_max, radius in [(1, 0), (9, 1), (10, 3), (20, 5)]:
        report = bruteforce_scan(d_max, radius, Fraction(99, 1000))
        assert report.checked + 1 == _sequence_count(d_max, radius)


def test_bruteforce_scan_refuses_oversized_scans_before_any_work():
    # d_max 40 at radius 8 is 16,921,905 sequences, about 40 s of scan.
    with patch.object(lemma1, "pmap", side_effect=AssertionError("scanned")):
        for d_max, radius, count in [
            (40, 8, "16921905"),
            (100, 20, "932763668722933476"),
            (10**6, 10**6, "at least 2\\^64"),  # a bound, not the exact count
        ]:
            with pytest.raises(ApxError, match=rf"d_max {d_max} at radius {radius} needs {count} "):
                bruteforce_scan(d_max, radius, Fraction(99, 1000))


def test_window_triples_are_counted_in_closed_form():
    # The ceiling charges (radius + 2)^2 // 4 triples per sequence.
    for radius in range(40):
        x, y, z, mult = _window_triples(radius)
        assert len(mult) == (radius + 2) ** 2 // 4
        assert (x + y == z).all() and int(mult.sum()) == 3 * radius * (radius + 1) + 1


@pytest.mark.parametrize("d_max,radius,count,estimate", [
    (8_000_000, 0, "8000001", "8000001 centers (ceiling 1048576)"),
    (1, 20_000, "2", "1600080001 window pairs (ceiling 8388608)"),
    # 503,505 sequences of 251,001 triples each: about 50 min of kernel.
    (4, 1000, "503505", "126380258505 triple terms (ceiling 1073741824)"),
])
def test_bruteforce_scan_refuses_work_its_sequence_count_misses(d_max, radius, count, estimate):
    start = time.perf_counter()
    with patch.object(lemma1, "pmap", side_effect=AssertionError("scanned")):
        with pytest.raises(ApxError) as refusal:
            bruteforce_scan(d_max, radius, Fraction(99, 1000))
    assert time.perf_counter() - start < 1
    message = str(refusal.value)
    assert f"d_max {d_max} at radius {radius} needs {count} sequences " in message
    assert estimate in message


def test_bruteforce_scan_admits_the_scans_it_is_run_on():
    # Tests, golden files, CI, the benchmark and the deepest radius-8 scan,
    # plus the edges of the center and pair ceilings.
    with patch.object(lemma1, "pmap", return_value=[(0, [])]):
        for d_max, radius in [(9, 1), (12, 3), (20, 5), (36, 8), (2**20 - 1, 0), (1, 1447)]:
            assert bruteforce_scan(d_max, radius, Fraction(99, 1000)).checked == 0
