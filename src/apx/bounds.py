"""Closed-form bounds in exact rational arithmetic, plus their grid scans.

The central object is the three-branch ceiling

    closure_bound(q, a) = max( (q^2 - a*q + a^2) / q^2,
                               (q^2 + 2*a*q + 4*a^2 - 6*a + 3) / (q+1)^2,
                               gamma0 )

for the size profile n/|S| = q + a. Everything here is a Fraction; the
grid scans hit boundary points exactly and report equalities separately
from violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ApxError, OutOfLemmaRangeError
from .util import as_fraction, pmap

GAMMA0 = Fraction(949, 1000)


@dataclass(frozen=True)
class SizeProfile:
    """The exact decomposition n/d = q + alpha with q integer, alpha in [0,1)."""

    q: int
    alpha: Fraction


def size_profile(n: int, d: int) -> SizeProfile:
    if d < 1 or d > n:
        raise ValueError(f"subset size {d} out of range for group order {n}")
    ratio = Fraction(n, d)
    q = ratio.numerator // ratio.denominator
    return SizeProfile(q=q, alpha=ratio - q)


@dataclass(frozen=True)
class BoundValue:
    value: Fraction
    active_branch: str  # "term1" | "term2" | "gamma0"


def _check_profile_args(q: int, alpha: Fraction) -> Fraction:
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    alpha = as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _branches(q, alpha):
    """The two algebraic branches (term1, term2) of closure_bound.

    Plain arithmetic: exact on an int q and a Fraction alpha, elementwise on
    numpy arrays (the lemma2 screen evaluates it on float grids).
    """
    term1 = (q * q - alpha * q + alpha * alpha) / (q * q)
    term2 = (q * q + 2 * alpha * q + 4 * alpha * alpha - 6 * alpha + 3) / (
        (q + 1) * (q + 1)
    )
    return term1, term2


def bound_term1(q: int, alpha) -> Fraction:
    """(q^2 - alpha*q + alpha^2) / q^2, tight near unions of q cosets."""
    return _branches(q, _check_profile_args(q, alpha))[0]


def bound_term2(q: int, alpha) -> Fraction:
    """(q^2 + 2*alpha*q + 4*alpha^2 - 6*alpha + 3) / (q+1)^2."""
    return _branches(q, _check_profile_args(q, alpha))[1]


def closure_bound(q: int, alpha, gamma0=GAMMA0) -> BoundValue:
    """Max of the two quadratic branches and the constant floor gamma0.

    Pass gamma0=None to take only the two algebraic branches (used where
    the constant floor has no pinned numeric value). Ties resolve to the
    earliest branch in (term1, term2, gamma0).
    """
    alpha = _check_profile_args(q, alpha)
    branches = list(zip(("term1", "term2"), _branches(q, alpha)))
    if gamma0 is not None:
        branches.append(("gamma0", as_fraction(gamma0)))
    # max keeps the first of several maximal items, which is the tie rule.
    name, value = max(branches, key=lambda item: item[1])
    return BoundValue(value=value, active_branch=name)


def base_case_bound(alpha) -> Fraction:
    """Pigeonhole ceiling 1 - alpha + alpha^2 for the q = 1 regime."""
    return bound_term1(1, alpha)


def gls_bound(n: int, d: int) -> int:
    """Gan-Loh-Sudakov triangle ceiling for n vertices and max degree d.

    With n = q*(d+1) + r, 0 <= r <= d, the ceiling is q*C(d+1,3) + C(r,3)
    (disjoint cliques achieve it).
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    q, r = divmod(n, d + 1)
    return q * math.comb(d + 1, 3) + math.comb(r, 3)


@dataclass(frozen=True)
class GlsSufficiency:
    """Comparison of the closure bound against the clique-count threshold."""

    q: int
    alpha: Fraction
    bound: Fraction  # closure_bound value M
    threshold: Fraction  # (q + alpha^3) / (q + alpha)
    holds: bool  # M <= threshold
    identity1: Fraction  # threshold - term1, always >= 0
    identity2: Fraction  # threshold - term2, always >= 0


def _gls_threshold(q: int, alpha: Fraction) -> Fraction:
    return Fraction(q + alpha**3) / (q + alpha)


def gls_sufficiency(q: int, alpha, gamma0=GAMMA0) -> GlsSufficiency:
    """Check M <= (q + alpha^3)/(q + alpha) and the two difference identities.

    The differences threshold - term1 and threshold - term2 are recomputed
    from their closed forms

        alpha^3 (q^2 - 1) / (q^2 (q + alpha))
        (1-alpha)^2 (q-1) ((2+alpha) q + 3 alpha) / ((q+1)^2 (q + alpha))

    and verified exactly equal; both must be non-negative.
    """
    alpha = _check_profile_args(q, alpha)
    threshold = _gls_threshold(q, alpha)
    diff1, diff2 = (threshold - term for term in _branches(q, alpha))
    closed1 = alpha**3 * (q * q - 1) / (q * q * (q + alpha))
    closed2 = (
        (1 - alpha) ** 2
        * (q - 1)
        * ((2 + alpha) * q + 3 * alpha)
        / ((q + 1) ** 2 * (q + alpha))
    )
    if diff1 != closed1 or diff2 != closed2:
        raise ApxError("internal: threshold difference identities broke")
    if diff1 < 0 or diff2 < 0:
        raise ApxError("internal: threshold difference went negative")
    bound = closure_bound(q, alpha, gamma0).value
    return GlsSufficiency(
        q=q,
        alpha=alpha,
        bound=bound,
        threshold=threshold,
        holds=bound <= threshold,
        identity1=diff1,
        identity2=diff2,
    )


def gls_threshold_min(q: int, steps: int = 10_000) -> tuple[Fraction, Fraction]:
    """Exact minimum of (q + alpha^3)/(q + alpha) on the grid alpha = i/steps.

    Returns (minimum, argmin alpha).
    """
    if q < 1 or steps < 1:
        raise ValueError("need q >= 1 and steps >= 1")
    alphas = (Fraction(i, steps) for i in range(steps + 1))
    return min((_gls_threshold(q, alpha), alpha) for alpha in alphas)


def _induction_step(eta, m):
    """eta^2 * m + 3 (1 - eta)^2, the induction-step ceiling when M(q', alpha') = m.

    Plain arithmetic like _branches: exact on Fractions, elementwise on the
    lemma2 screen's float grids.
    """
    return eta * eta * m + 3 * (1 - eta) * (1 - eta)


def induction_bound(ratio: Fraction, eta, gamma0=GAMMA0):
    """Split ratio = q' + alpha' >= 1 like a size profile and bound the step.

    Returns (q', alpha', eta^2 * closure_bound(q', alpha', gamma0) + 3 (1 - eta)^2).
    """
    if ratio < 1:
        raise OutOfLemmaRangeError(f"derived q' = 0: ratio {ratio} < 1")
    p = size_profile(ratio.numerator, ratio.denominator)
    return p.q, p.alpha, _induction_step(eta, closure_bound(p.q, p.alpha, gamma0).value)


@dataclass(frozen=True)
class Lemma2Point:
    """One evaluation of the induction inequality at (q, alpha, k, eta)."""

    q: int
    alpha: Fraction
    k: int
    eta: Fraction
    q_prime: int
    alpha_prime: Fraction
    lhs: Fraction  # eta^2 * closure_bound(q', alpha') + 3*(1 - eta)^2
    rhs: Fraction  # closure_bound(q, alpha)
    holds_le: bool
    strict: bool


def lemma2_check(q: int, alpha, k: int, eta, gamma0=GAMMA0) -> Lemma2Point:
    """Evaluate the induction step inequality exactly.

    q' = floor((q + alpha) / (k * eta)), alpha' the fractional remainder.
    The verified property is lhs <= rhs; strictness is tracked separately
    because equality genuinely occurs (k = 1, eta = 1 reproduces the
    original profile).
    """
    alpha = _check_profile_args(q, alpha)
    if q < 2:
        raise ValueError("the induction inequality is stated for q >= 2")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= q:
        raise ValueError(f"k must be an integer in [1, q], got {k!r}")
    eta = as_fraction(eta)
    if not Fraction(3, 4) < eta <= 1:
        raise ValueError(f"eta must lie in (3/4, 1], got {eta}")
    q_prime, alpha_prime, lhs = induction_bound((q + alpha) / (k * eta), eta, gamma0)
    rhs = closure_bound(q, alpha, gamma0).value
    return Lemma2Point(
        q=q,
        alpha=alpha,
        k=k,
        eta=eta,
        q_prime=q_prime,
        alpha_prime=alpha_prime,
        lhs=lhs,
        rhs=rhs,
        holds_le=lhs <= rhs,
        strict=lhs < rhs,
    )


@dataclass(frozen=True)
class Lemma2ScanReport:
    q_max: int
    alpha_steps: int
    eta_steps: int
    gamma0: Fraction
    points: int
    violations: tuple[Lemma2Point, ...]
    equalities: tuple[Lemma2Point, ...]


def _alpha_grid(alpha_steps: int) -> list[Fraction]:
    # alpha_steps uniform points covering [0, 1], endpoints included.
    return [Fraction(i, alpha_steps - 1) for i in range(alpha_steps)]


def _eta_grid(eta_steps: int) -> list[Fraction]:
    # eta_steps uniform points in (3/4, 1]: 3/4 excluded, 1 included.
    return [
        Fraction(3, 4) + Fraction(j, 4 * eta_steps) for j in range(1, eta_steps + 1)
    ]


# Anything float-scored above this margin below zero gets exact adjudication;
# double rounding error on these O(1) expressions is far below 1e-9.
_SCREEN_MARGIN = -1e-9


def _scan_one_q(q: int, alpha_steps: int, eta_steps: int, gamma0: Fraction):
    """Scan all (alpha, k, eta) for one q.

    Grid values are exact; a float pre-screen skips points that are safely
    below the ceiling, and every point at or near the boundary is re-checked
    in exact rationals, so all reported verdicts are exact. The screen works
    on one alpha row of q * eta_steps (k, eta) points at a time.
    """
    gamma0 = as_fraction(gamma0)
    g0f = float(gamma0)
    etas = _eta_grid(eta_steps)
    # alpha = i / a_den and eta = e_num / e_den, so q' is an exact integer floor.
    a_den = alpha_steps - 1
    e_den = 4 * eta_steps
    e_num = 3 * eta_steps + np.arange(1, eta_steps + 1, dtype=np.int64)
    e_f = e_num / e_den
    den = a_den * np.arange(1, q + 1, dtype=np.int64)[:, None] * e_num
    violations = []
    equalities = []
    for i, alpha in enumerate(_alpha_grid(alpha_steps)):
        rhs_f = float(closure_bound(q, alpha, gamma0).value)
        num = (q * a_den + i) * e_den
        q_prime = num // den
        term1, term2 = _branches(q_prime, num / den - q_prime)
        lhs_f = _induction_step(e_f, np.maximum(np.maximum(term1, term2), g0f))
        for k0, j in zip(*np.nonzero(lhs_f - rhs_f >= _SCREEN_MARGIN)):
            point = lemma2_check(q, alpha, int(k0) + 1, etas[j], gamma0)
            if not point.holds_le:
                violations.append(point)
            elif point.lhs == point.rhs:
                equalities.append(point)
    return alpha_steps * q * eta_steps, violations, equalities


def lemma2_scan(
    q_max: int,
    alpha_steps: int = 101,
    eta_steps: int = 51,
    gamma0=GAMMA0,
    threads: int = 1,
) -> Lemma2ScanReport:
    """Verify the induction inequality over the full exact grid.

    q in [2, q_max], k in [1, q], alpha on alpha_steps points in [0, 1],
    eta on eta_steps points in (3/4, 1]. Violations of <= are returned
    (expected empty); exact equalities are listed separately.
    """
    if q_max < 2 or alpha_steps < 2 or eta_steps < 2:
        raise ValueError("need q_max >= 2 and at least 2 grid points per axis")
    gamma0 = as_fraction(gamma0)
    worker = partial(
        _scan_one_q, alpha_steps=alpha_steps, eta_steps=eta_steps, gamma0=gamma0
    )
    chunks = pmap(worker, range(2, q_max + 1), threads=threads)
    # The chunks come in q order, each already in (alpha, k, eta) order.
    return Lemma2ScanReport(
        q_max=q_max,
        alpha_steps=alpha_steps,
        eta_steps=eta_steps,
        gamma0=gamma0,
        points=sum(c[0] for c in chunks),
        violations=tuple(p for c in chunks for p in c[1]),
        equalities=tuple(p for c in chunks for p in c[2]),
    )
