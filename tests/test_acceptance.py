"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Every tolerance is pinned here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np

from apx import (
    GAMMA0,
    SubsetMask,
    bruteforce_scan,
    cayley_triangles_direct,
    cayley_triangles_formula,
    direct_prob,
    enumerate_abelian_groups,
    gls_sufficiency,
    gls_threshold_holds,
    min_product_sum,
    prob_from_s0,
    verify_gls,
    verify_theorem1,
    verify_theorem2,
)
from apx.bounds import base_case_bound, lemma2_scan, size_profile
from apx.fourier import random_crosscheck
from apx.lemma1 import IntWeightSeq
from apx.group import orbit_split
from apx.search import _symmetric_bits


def _report(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_fourier_direct_equivalence():
    started = time.monotonic()
    rep = random_crosscheck(
        trials=1000,
        max_order=512,
        max_factors=3,
        seed=7,
        tol_prob=1e-9,
        tol_t3=1e-6,
        tol_plancherel=1e-10,
    )
    elapsed = time.monotonic() - started
    _report(
        1,
        rep.passed and elapsed < 120,
        f"1000 random symmetric sets (orders <= 512): max prob err"
        f" {rep.max_prob_error:.2e} <= 1e-9, max t3 err {rep.max_t3_error:.2e}"
        f" <= 1e-6 ({rep.odd_order_trials} odd-order trials), plancherel"
        f" {rep.max_plancherel_residual:.2e} <= 1e-10, in {elapsed:.1f}s < 120s",
    )


def test_criterion_2_triangle_crossvalidation():
    started = time.monotonic()
    sets = 0
    for g in enumerate_abelian_groups(12):
        fixed, pairs = orbit_split(g)
        fixed_nonzero = fixed[fixed != 0]
        for d in range(0, g.order):
            for bits in _symmetric_bits(fixed_nonzero, pairs, d):
                s = SubsetMask(g, bits)
                assert cayley_triangles_direct(s) == cayley_triangles_formula(s)
                if s.size:
                    assert prob_from_s0(s) == direct_prob(s)
                sets += 1
    elapsed = time.monotonic() - started
    _report(
        2,
        elapsed < 300,
        f"both triangle routes and the S0 identity agree exactly on all"
        f" {sets} symmetric 0-free sets in every group of order <= 12,"
        f" in {elapsed:.1f}s < 300s",
    )


def test_criterion_3_closure_bound_exhaustive():
    rep = verify_theorem2(15)
    subgroup_cases = [c for c in rep.cases if c.alpha == 0]
    subgroup_tight = all(c.gap == 0 for c in subgroup_cases)
    _report(
        3,
        not rep.failures and subgroup_tight and rep.worst_gap == 0,
        f"max Prob[S] <= closure bound on all {len(rep.cases)} (group, size)"
        f" cases up to order 15, 0 failures; all {len(subgroup_cases)}"
        f" divisor cases have gap exactly 0",
    )


def test_criterion_4_progression_density_exhaustive():
    rep = verify_theorem1(15)
    coset_cases = [c for c in rep.cases if c.alpha == 0]
    cosets_tight = all(c.max_density == 1 for c in coset_cases)
    ceiling_ok = all(c.max_density <= 1 for c in rep.cases)
    gamma1 = rep.empirical_gamma1
    gamma1_ok = gamma1 is None or gamma1 < 1
    gamma1_text = (
        "no case needs the constant branch (empirical gamma1 vacuous)"
        if gamma1 is None
        else f"empirical gamma1 = {gamma1} < 1"
    )
    _report(
        4,
        not rep.failures and cosets_tight and ceiling_ok and gamma1_ok,
        f"T3/d^2 <= 1 on all {len(rep.cases)} odd-order cases up to 15 with"
        f" 0 hard failures; {len(coset_cases)} coset cases attain exactly 1;"
        f" {gamma1_text}",
    )


def test_criterion_5_weight_concentration_scan():
    clean = bruteforce_scan(12, 3, Fraction(99, 1000))
    tight = bruteforce_scan(12, 3, Fraction(2, 9))
    flagged = {v.weights for v in tight.violations}
    example = IntWeightSeq.symmetric(3, (3, 0, 0))
    tight_example = (
        example.weights in flagged
        and min_product_sum(example) == 63
        and Fraction(63) == (1 - Fraction(2, 9)) * 81
    )
    _report(
        5,
        not clean.violations and tight_example,
        f"eps = 99/1000: {clean.checked} sequences (d <= 12, radius 3), 0"
        f" violations; eps = 2/9 flags the (3,3,3) sequence with min-product"
        f" 63 = (1 - 2/9) * 81 exactly",
    )


def test_criterion_6_induction_inequality_grid():
    rep = lemma2_scan(20, alpha_steps=101, eta_steps=51)
    keys = {(p.q, p.alpha, p.k, p.eta) for p in rep.equalities}
    equality_listed = (2, Fraction(0), 1, Fraction(1)) in keys
    _report(
        6,
        not rep.violations and equality_listed,
        f"{rep.points} exact grid points (q <= 20, 101 alphas, 51 etas):"
        f" 0 violations of <=; {len(rep.equalities)} equalities listed"
        f" including (q=2, alpha=0, k=1, eta=1)",
    )


def _threshold_min(q: int) -> tuple[float, float]:
    """(min, argmin) over [0, 1] of (q + alpha^3)/(q + alpha), in floats.

    The derivative has the sign of 2 alpha^3 + 3 q alpha^2 - q, whose one
    root in [0, 1] is the minimum.
    """
    root = next(
        r.real for r in np.roots([2, 3 * q, 0, -q]) if abs(r.imag) < 1e-12 and 0 <= r.real <= 1
    )
    return (q + root**3) / (q + root), root


def test_criterion_7_degree_seven_threshold():
    min7, arg7 = _threshold_min(7)
    min6, arg6 = _threshold_min(6)
    numeric_ok = (
        abs(min7 - 0.94926) <= 5e-4
        and abs(min6 - 0.9415) <= 5e-4
        and gls_threshold_holds(7)
        and not gls_threshold_holds(6)
    )
    identities_ok = True
    for q in range(1, 51):
        for i in range(0, 101):
            rep = gls_sufficiency(q, Fraction(i, 100))
            if rep.identity1 < 0 or rep.identity2 < 0:
                identities_ok = False
    _report(
        7,
        numeric_ok and identities_ok,
        f"min threshold at q=7 is {min7:.6f} (alpha = {arg7:.5f}) >"
        f" {float(GAMMA0)}, at q=6 is {min6:.6f} < {float(GAMMA0)}, exactly"
        f" by gls_threshold_holds; both difference identities hold exactly on"
        f" q in [1,50], alpha in hundredths",
    )


def test_criterion_8_base_case_exhaustive():
    checked = 0
    for g in enumerate_abelian_groups(18):
        n = g.order
        for d in range(n // 2 + 1, n + 1):
            profile = size_profile(n, d)
            assert profile.q == 1
            bound = base_case_bound(profile.alpha)
            for bits in _symmetric_bits(*orbit_split(g), d):
                assert direct_prob(SubsetMask(g, bits)) <= bound
                checked += 1
    _report(
        8,
        checked > 0,
        f"Prob[S] <= 1 - alpha + alpha^2 exactly for all {checked} symmetric"
        f" sets with |S| > n/2 in every group of order <= 18",
    )


def test_criterion_9_triangle_ceiling_suite():
    rep = verify_gls(16)
    logged_recorded = all(
        isinstance(c.holds, bool) and c.max_triangles >= 0 for c in rep.logged
    )
    _report(
        9,
        not rep.failures and logged_recorded,
        f"{rep.sets_total} connection sets in groups of order <= 16:"
        f" {rep.asserted_sets} sets in the q >= 7 regime with 0 failures;"
        f" {len(rep.logged)} q < 7 cases logged with empirical outcomes"
        f" ({sum(1 for c in rep.logged if c.holds)} hold)",
    )
