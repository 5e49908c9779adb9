import dataclasses
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apx import (
    GAMMA0,
    OutOfLemmaRangeError,
    base_case_bound,
    bound_term1,
    bound_term2,
    closure_bound,
    gls_bound,
    gls_sufficiency,
    gls_threshold_holds,
    lemma2_check,
    lemma2_scan,
    size_profile,
)
from apx import bounds
from apx.bounds import (
    Lemma2Equalities,
    _envelope_rows,
    _lemma2_sign,
    _scan_one_q,
    induction_bound,
)
from apx.errors import ApxError
from apx.report import report_json


def _alpha_grid(alpha_steps):
    # The scan's alpha grid: alpha_steps uniform points covering [0, 1].
    return [Fraction(i, alpha_steps - 1) for i in range(alpha_steps)]


def _eta_grid(eta_steps):
    # The scan's eta grid: eta_steps uniform points in (3/4, 1], 1 included.
    return [Fraction(e, 4 * eta_steps) for e in range(3 * eta_steps + 1, 4 * eta_steps + 1)]


def test_size_profile_examples():
    assert size_profile(10, 3) == size_profile(10, 3)
    p = size_profile(10, 3)
    assert (p.q, p.alpha) == (3, Fraction(1, 3))
    p = size_profile(12, 4)
    assert (p.q, p.alpha) == (3, 0)
    p = size_profile(7, 2)
    assert (p.q, p.alpha) == (3, Fraction(1, 2))
    with pytest.raises(ValueError):
        size_profile(10, 0)
    with pytest.raises(ValueError):
        size_profile(10, 11)


def test_size_profile_reconstructs_ratio():
    for n in range(1, 40):
        for d in range(1, n + 1):
            p = size_profile(n, d)
            assert p.q + p.alpha == Fraction(n, d)
            assert 0 <= p.alpha < 1


def test_closure_bound_examples():
    for q in range(1, 12):
        b = closure_bound(q, 0)
        assert b.value == 1 and b.active_branch == "term1"
        b = closure_bound(q, 1)
        assert b.value == 1
        # at q = 1 both branches coincide at 1 and the tie goes to term1
        assert b.active_branch == ("term1" if q == 1 else "term2")
    b = closure_bound(3, Fraction(1, 2))
    assert b.value == GAMMA0 and b.active_branch == "gamma0"
    assert bound_term1(3, Fraction(1, 2)) == Fraction(31, 36)
    assert bound_term2(3, Fraction(1, 2)) == Fraction(13, 16)


def test_closure_bound_without_floor():
    b = closure_bound(3, Fraction(1, 2), gamma0=None)
    assert b.value == Fraction(31, 36) and b.active_branch == "term1"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10**6),
    st.fractions(0, 1, max_denominator=10**6),
    st.none() | st.integers(0, 2) | st.fractions(0, 2) | st.sampled_from(["t1", "t2"]),
)
@example(1, Fraction(0), None)  # q = 1: both branches are 1 - a + a^2
@example(1, Fraction(1), None)
@example(1, Fraction(0), 1)  # all three tie at 1
@example(1, Fraction(1), Fraction(1))
@example(2, Fraction(1), 1)  # term2 = gamma0 = 1 > term1
@example(3, Fraction(1, 2), "t1")  # gamma0 = term1 > term2
@example(3, Fraction(1, 2), "t2")  # gamma0 = term2 < term1
@example(7, Fraction(5, 6), "t2")  # gamma0 = term2 > term1
def test_closure_bound_matches_the_fraction_max(q, alpha, gamma0):
    # The integer kernel against the Fraction reference: max keeps the first
    # of equal items, which is the tie rule term1, then term2, then gamma0.
    branches = [("term1", bound_term1(q, alpha)), ("term2", bound_term2(q, alpha))]
    if gamma0 in ("t1", "t2"):
        gamma0 = branches[gamma0 == "t2"][1]
    if gamma0 is not None:
        branches.append(("gamma0", Fraction(gamma0)))
    branch, value = max(branches, key=lambda item: item[1])
    b = closure_bound(q, alpha, gamma0)
    assert (b.active_branch, b.value) == (branch, value)
    assert isinstance(b.value, Fraction)


def test_closure_bound_validation():
    with pytest.raises(ValueError):
        closure_bound(0, 0)
    with pytest.raises(ValueError):
        closure_bound(2, Fraction(11, 10))
    with pytest.raises(ValueError):
        closure_bound(2, Fraction(-1, 10))


def test_seam_identity():
    for q in range(1, 101):
        assert closure_bound(q, 1).value == closure_bound(q + 1, 0).value == 1


def test_q1_branches_coincide_with_base_case():
    for alpha in [Fraction(i, 37) for i in range(38)]:
        assert bound_term1(1, alpha) == bound_term2(1, alpha) == base_case_bound(alpha)


def test_term1_decreasing_on_lower_half():
    for q in range(3, 10):
        values = [bound_term1(q, Fraction(i, 20)) for i in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_base_case_examples():
    assert base_case_bound(0) == 1
    assert base_case_bound(1) == 1
    assert base_case_bound(Fraction(1, 2)) == Fraction(3, 4)


def test_gls_bound_examples():
    assert gls_bound(10, 3) == 8
    assert gls_bound(12, 3) == 12
    for d in range(2, 8):
        assert gls_bound(d + 1, d) == (d + 1) * d * (d - 1) // 6
    with pytest.raises(ValueError):
        gls_bound(0, 3)


def test_gls_sufficiency_examples():
    for i in range(0, 11):
        assert gls_sufficiency(7, Fraction(i, 10)).holds
    rep = gls_sufficiency(1, 0)
    assert rep.threshold == 1 and rep.bound == 1 and rep.holds
    rep = gls_sufficiency(6, Fraction(56, 100))
    assert not rep.holds
    assert rep.bound == GAMMA0
    assert abs(float(rep.threshold) - 0.9415) < 5e-4


def test_gls_sufficiency_identities_nonnegative():
    for q in range(1, 13):
        for i in range(0, 101, 7):
            rep = gls_sufficiency(q, Fraction(i, 100))
            assert rep.identity1 >= 0 and rep.identity2 >= 0


def test_gls_threshold_holds_exactly_from_q_seven():
    # verify gls asserts the cases with q >= 7 and only logs q < 7: the
    # regime where the closure bound stays below the clique threshold.
    assert [q for q in range(1, 60) if gls_threshold_holds(q)] == list(range(7, 60))


GLS_GAMMA0S = [
    Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(93, 100), GAMMA0,
    Fraction(95, 100), Fraction(99, 100), Fraction(1), Fraction(3, 2),
]


def test_gls_threshold_holds_matches_gls_sufficiency_on_a_grid():
    # Where the threshold fails for these q and gamma0, it fails on an alpha
    # interval wider than 1/8, so sixteenths of [0, 1] meet every failure.
    for q in range(1, 13):
        for gamma0 in GLS_GAMMA0S + [None]:
            pointwise = all(
                gls_sufficiency(q, Fraction(i, 16), gamma0).holds for i in range(17)
            )
            assert gls_threshold_holds(q, gamma0) == pointwise, (q, gamma0)


def test_lemma2_check_equality_case():
    p = lemma2_check(2, 0, 1, 1)
    assert p.q_prime == 2 and p.alpha_prime == 0
    assert p.lhs == p.rhs == 1
    assert p.holds_le and not p.strict


def test_lemma2_check_floor_case():
    p = lemma2_check(2, 1, 2, 1)
    assert p.q_prime == 1 and p.alpha_prime == Fraction(1, 2)
    assert p.lhs == GAMMA0
    assert p.rhs == 1
    assert p.holds_le and p.strict


def test_lemma2_check_fractional_case():
    p = lemma2_check(5, 0, 2, Fraction(9, 10))
    assert p.q_prime == 2 and p.alpha_prime == Fraction(7, 9)
    assert p.lhs == Fraction(79869, 100000)
    assert p.rhs == 1 and p.strict


def test_lemma2_check_validation():
    with pytest.raises(ValueError):
        lemma2_check(1, 0, 1, 1)
    with pytest.raises(ValueError):
        lemma2_check(3, 0, 4, 1)
    with pytest.raises(ValueError):
        lemma2_check(3, 0, 0, 1)
    with pytest.raises(ValueError):
        lemma2_check(3, 0, 1, Fraction(3, 4))
    with pytest.raises(ValueError):
        lemma2_check(3, 0, 1, Fraction(5, 4))
    for ratio in (Fraction(1, 2), Fraction(0)):
        with pytest.raises(OutOfLemmaRangeError, match="ratio"):
            induction_bound(ratio, 1)


def test_grids_hit_exact_endpoints():
    alphas = _alpha_grid(101)
    assert alphas[0] == 0 and alphas[-1] == 1 and len(alphas) == 101
    assert alphas[1] == Fraction(1, 100)
    etas = _eta_grid(51)
    assert len(etas) == 51
    assert etas[-1] == 1
    assert etas[0] == Fraction(3, 4) + Fraction(1, 204)
    assert all(Fraction(3, 4) < e <= 1 for e in etas)


def test_lemma2_scan_small_grid():
    rep = lemma2_scan(4, alpha_steps=9, eta_steps=6)
    assert rep.points == sum(q * 9 * 6 for q in range(2, 5))
    assert rep.violations == ()
    keys = {(p.q, p.alpha, p.k, p.eta) for p in rep.equalities}
    assert (2, Fraction(0), 1, Fraction(1)) in keys


def test_lemma2_scan_matches_pointwise_reference():
    # Independent reference: run lemma2_check at every grid point directly,
    # with no float screening involved.
    rep = lemma2_scan(3, alpha_steps=7, eta_steps=5)
    expected_eq = []
    expected_viol = []
    for q in range(2, 4):
        for alpha in _alpha_grid(7):
            for k in range(1, q + 1):
                for eta in _eta_grid(5):
                    p = lemma2_check(q, alpha, k, eta)
                    if not p.holds_le:
                        expected_viol.append((q, alpha, k, eta))
                    elif p.lhs == p.rhs:
                        expected_eq.append((q, alpha, k, eta))
    assert [(p.q, p.alpha, p.k, p.eta) for p in rep.violations] == expected_viol
    assert sorted((p.q, p.alpha, p.k, p.eta) for p in rep.equalities) == sorted(
        expected_eq
    )


def test_lemma2_scan_threads_deterministic():
    serial = lemma2_scan(4, alpha_steps=5, eta_steps=4, threads=1)
    parallel = lemma2_scan(4, alpha_steps=5, eta_steps=4, threads=2)
    assert serial.points == parallel.points
    assert serial.equalities == parallel.equalities
    assert serial.violations == parallel.violations


def test_lemma2_scan_validation():
    with pytest.raises(ValueError):
        lemma2_scan(1)
    with pytest.raises(ValueError):
        lemma2_scan(3, alpha_steps=1)


def test_lemma2_check_ratio_floor_boundary():
    # Smallest reachable ratio is exactly 1 (alpha = 0, k = q, eta = 1),
    # so the q' >= 1 guard never fires on validated inputs.
    for q in range(2, 8):
        p = lemma2_check(q, 0, q, 1)
        assert p.q_prime == 1 and p.alpha_prime == 0
        assert p.holds_le


def test_lemma2_screen_never_skips_a_boundary_point():
    # The float screen may only drop points that are strictly below the
    # ceiling: every sampled grid point with lhs >= rhs, checked exactly
    # here, must be among the scan's equalities or violations.
    q_max, alpha_steps, eta_steps = 8, 101, 51
    rep = lemma2_scan(q_max, alpha_steps, eta_steps)
    flagged = {(p.q, p.alpha, p.k, p.eta) for p in (*rep.equalities, *rep.violations)}
    alphas, etas = _alpha_grid(alpha_steps), _eta_grid(eta_steps)
    rng = random.Random(2018)
    boundary = 0
    for _ in range(2000):
        q = rng.randint(2, q_max)
        key = (q, rng.choice(alphas), rng.randint(1, q), rng.choice(etas))
        p = lemma2_check(*key)
        if p.lhs >= p.rhs:
            boundary += 1
            assert key in flagged
    assert boundary > 0


SCAN_GAMMA0S = [
    Fraction(0), Fraction(1, 2), GAMMA0, Fraction(99, 100), Fraction(3, 2),
    Fraction(10**12, 10**12 + 1),
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6), st.integers(2, 9), st.integers(2, 6),
    st.sampled_from(SCAN_GAMMA0S), st.integers(1, 400),
)
@example(2, 2, 2, Fraction(0), 1)
@example(2, 5, 3, Fraction(0), 7)
@example(6, 9, 6, Fraction(10**12, 10**12 + 1), 1 << 17)
@example(3, 5, 4, Fraction(3, 2), 1 << 17)  # the envelope reads gamma0, not 1
def test_scan_one_q_matches_lemma2_check(q, alpha_steps, eta_steps, gamma0, block):
    # Every grid point goes through the oracle. The exact kernel must give
    # the oracle's sign of lhs - rhs, q' and alpha' at each of them, and the
    # scan must report the same violations and equalities in the same
    # (alpha, k, eta) order, whatever block of alpha rows its float screen
    # takes at a time.
    a_den, e_den = alpha_steps - 1, 4 * eta_steps
    expected_viol, expected_eq = [], []
    for i, alpha in enumerate(_alpha_grid(alpha_steps)):
        rhs = closure_bound(q, alpha, gamma0).value
        for k in range(1, q + 1):
            for eta in _eta_grid(eta_steps):
                p = lemma2_check(q, alpha, k, eta, gamma0)
                e = int(eta * e_den)
                num, den = (q * a_den + i) * e_den, a_den * k * e
                sign, q_prime, r = _lemma2_sign(num, den, e, e_den, gamma0, rhs)
                assert sign == (p.lhs > p.rhs) - (p.lhs < p.rhs)
                assert (q_prime, Fraction(r, den)) == (p.q_prime, p.alpha_prime)
                if not p.holds_le:
                    expected_viol.append(p)
                elif p.lhs == p.rhs:
                    expected_eq.append(p)
    with patch.object(bounds, "_BLOCK_BYTES", 8 * block):
        points, violations, block = _scan_one_q(q, alpha_steps, eta_steps, gamma0)
    assert points == alpha_steps * q * eta_steps
    assert violations == expected_viol
    assert list(Lemma2Equalities(alpha_steps, eta_steps, (block,))) == expected_eq


@pytest.mark.parametrize("gamma0", SCAN_GAMMA0S, ids=str)
@settings(max_examples=8, deadline=None)
@given(q_max=st.integers(2, 6), alpha_steps=st.integers(2, 9), eta_steps=st.integers(2, 6))
@example(q_max=8, alpha_steps=21, eta_steps=11)
def test_equalities_table_writes_the_json_of_its_points(gamma0, q_max, alpha_steps, eta_steps):
    # report_json spells the equalities table from its int rows; the generic
    # dataclass path writes the Lemma2Points the table yields. Same bytes.
    rep = lemma2_scan(q_max, alpha_steps, eta_steps, gamma0)
    points = tuple(rep.equalities)
    assert len(points) == len(rep.equalities) > 0
    assert report_json(rep) == report_json(dataclasses.replace(rep, equalities=points))


def test_scan_one_q_rebuilds_violations_with_the_oracle():
    # A kernel verdict of "violated" is handed to lemma2_check; when the
    # oracle says the point holds, the scan refuses instead of reporting it.
    def always_violated(num, den, *args):
        return (1,) + divmod(num, den)

    with patch.object(bounds, "_lemma2_sign", always_violated):
        with pytest.raises(ApxError, match="disagree"):
            _scan_one_q(2, 3, 2, GAMMA0)


def test_envelope_leaves_few_rows_to_the_screen():
    # The envelope holds (both algebraic branches are at most 1 at q' >= 1),
    # and at the benchmark grid it clears most (q, eta) rows: 103 of 969.
    for q_prime in range(1, 30):
        for alpha_prime in _alpha_grid(41):
            assert closure_bound(q_prime, alpha_prime, None).value <= 1
    screened = 0
    for q in range(2, 21):
        floor = min(closure_bound(q, alpha).value for alpha in _alpha_grid(101))
        screened += len(_envelope_rows(floor, 51, GAMMA0))
    assert 0 < screened <= 0.15 * 19 * 51


@pytest.mark.parametrize("gamma0", [GAMMA0, Fraction(0), Fraction(3, 2)])
def test_identity_line_is_recorded_without_the_kernel(gamma0):
    # At k = 1 and eta = 1 the ratio is q + alpha itself, so every such
    # point is an equality; the scan records it without _lemma2_sign, and
    # each record must be the oracle's point.
    q, alpha_steps, eta_steps = 4, 11, 3
    a_den, e_den = alpha_steps - 1, 4 * eta_steps
    asked = []

    def recording(num, den, e, *args):
        asked.append((den, e))
        return _lemma2_sign(num, den, e, *args)

    with patch.object(bounds, "_lemma2_sign", recording):
        _, _, block = _scan_one_q(q, alpha_steps, eta_steps, gamma0)
    assert asked and (a_den * e_den, e_den) not in asked
    equalities = Lemma2Equalities(alpha_steps, eta_steps, (block,))
    line = {p.alpha: p for p in equalities if (p.k, p.eta) == (1, 1)}
    assert len(line) == alpha_steps
    for alpha in (Fraction(0), Fraction(3, 10), Fraction(1)):
        assert line[alpha] == lemma2_check(q, alpha, 1, 1, gamma0)
    assert (line[1].q_prime, line[1].alpha_prime) == (q + 1, 0)


@pytest.mark.parametrize("grid,gamma0,estimate", [
    ((2, 100_000_000, 2), GAMMA0, "400000000 grid points (ceiling 268435456) and "
     "200000000 points at eta 1 (ceiling 1048576) and 100000000 rhs values (ceiling 131072) "
     "and 4 screen cells per alpha row (ceiling 131072)"),
    ((20, 101, 1_000_000), GAMMA0, "21109000000 grid points"),  # 96 s unrefused
    ((2000, 101, 51), GAMMA0, "201899 rhs values"),  # 13.8 s at 252 MB unrefused
    # At gamma0 0 the envelope keeps every eta row: a 512 MiB screen row.
    ((2, 3, 1 << 25), 0, "67108864 screen cells per alpha row"),
    # At gamma0 3/2 every eta = 1 point is an equality row: 1.3e8 of them.
    ((2000, 65, 2), Fraction(3, 2), "130064935 points at eta 1 (ceiling 1048576) and "
     "129935 rhs values (ceiling 131072)"),
])
def test_lemma2_scan_refuses_oversized_grids_before_any_work(grid, gamma0, estimate):
    q_max, alpha_steps, eta_steps = grid
    with patch.object(bounds, "pmap", side_effect=AssertionError("scanned")):
        with pytest.raises(ApxError) as refusal:
            lemma2_scan(*grid, gamma0=gamma0)
    message = str(refusal.value)
    assert message.startswith(
        f"the lemma2 scan to q_max {q_max} with {alpha_steps} alpha and {eta_steps} eta "
        "steps needs "
    )
    assert estimate in message


def test_lemma2_scan_admits_the_grids_it_is_run_on():
    # Tests, golden files, CI (the defaults, at gamma0 3/2 too), the
    # benchmark, and the 0.42 s grid of the pool measurement.
    with patch.object(bounds, "pmap", return_value=[]):
        for grid in [(20, 101, 51), (60, 401, 201), (3, 9, 5), (2, 3, 2)]:
            for gamma0 in (GAMMA0, Fraction(3, 2)):
                assert lemma2_scan(*grid, gamma0=gamma0).points == 0
