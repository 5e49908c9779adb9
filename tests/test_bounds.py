import random
from fractions import Fraction

import pytest

from apx import (
    GAMMA0,
    OutOfLemmaRangeError,
    base_case_bound,
    bound_term1,
    bound_term2,
    closure_bound,
    gls_bound,
    gls_sufficiency,
    gls_threshold_min,
    lemma2_check,
    lemma2_scan,
    size_profile,
)
from apx.bounds import _alpha_grid, _eta_grid, induction_bound


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


def test_gls_threshold_min_brackets_gamma0():
    m7, a7 = gls_threshold_min(7, steps=2000)
    m6, a6 = gls_threshold_min(6, steps=2000)
    assert m7 > GAMMA0 > m6
    assert Fraction(1, 2) < a7 < Fraction(3, 5)
    assert Fraction(1, 2) < a6 < Fraction(3, 5)


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
    flagged = {(p.q, p.alpha, p.k, p.eta) for p in rep.equalities + rep.violations}
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
