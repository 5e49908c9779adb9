"""Closed-form bounds in exact rational arithmetic, plus their grid scans.

The central object is the three-branch ceiling

    closure_bound(q, a) = max( (q^2 - a*q + a^2) / q^2,
                               (q^2 + 2*a*q + 4*a^2 - 6*a + 3) / (q+1)^2,
                               gamma0 )

for the size profile n/|S| = q + a. Every value here is a Fraction. The
ceiling itself is taken in integer arithmetic over a common denominator, as
are the grid scan's boundary points; the scan hits boundary points exactly
and reports equalities separately from violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ApxError, OutOfLemmaRangeError
from .group import _BLOCK_BYTES
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


def _closure_max(q: int, a: int, a_den: int, gamma0: Fraction | None):
    """closure_bound(q, a/a_den, gamma0) in Python ints: (num, den, branch).

    Both branches share the denominator a_den^2 and every comparison is a
    cross-multiplication; a tie keeps the earlier of (term1, term2, gamma0).
    """
    qa = q * a_den
    num, den, branch = qa * qa - a * qa + a * a, q * q, "term1"
    t2_num = qa * qa + 2 * a * qa + 4 * a * a - 6 * a * a_den + 3 * a_den * a_den
    t2_den = (q + 1) * (q + 1)
    if t2_num * den > num * t2_den:
        num, den, branch = t2_num, t2_den, "term2"
    den *= a_den * a_den
    if gamma0 is not None and gamma0.numerator * den > num * gamma0.denominator:
        return gamma0.numerator, gamma0.denominator, "gamma0"
    return num, den, branch


def closure_bound(q: int, alpha, gamma0=GAMMA0) -> BoundValue:
    """Max of the two quadratic branches and the constant floor gamma0.

    Pass gamma0=None to take only the two algebraic branches (used where
    the constant floor has no pinned numeric value). Ties resolve to the
    earliest branch in (term1, term2, gamma0).
    """
    alpha = _check_profile_args(q, alpha)
    if gamma0 is not None:
        gamma0 = as_fraction(gamma0)
    num, den, branch = _closure_max(q, alpha.numerator, alpha.denominator, gamma0)
    return BoundValue(value=Fraction(num, den), active_branch=branch)


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


def gls_sufficiency(q: int, alpha, gamma0=GAMMA0) -> GlsSufficiency:
    """Check M <= (q + alpha^3)/(q + alpha) and the two difference identities.

    The differences threshold - term1 and threshold - term2 are recomputed
    from their closed forms

        alpha^3 (q^2 - 1) / (q^2 (q + alpha))
        (1-alpha)^2 (q-1) ((2+alpha) q + 3 alpha) / ((q+1)^2 (q + alpha))

    and verified exactly equal; both must be non-negative.
    """
    alpha = _check_profile_args(q, alpha)
    threshold = Fraction(q + alpha**3) / (q + alpha)
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


def gls_threshold_holds(q: int, gamma0=GAMMA0) -> bool:
    """Whether gls_sufficiency(q, alpha, gamma0).holds for every alpha in [0, 1].

    Exact, with no grid. No algebraic branch exceeds the threshold (the
    closed-form differences are products of non-negative factors), so it
    holds iff f(alpha) = alpha^3 - gamma0 alpha + q (1 - gamma0) >= 0 on
    [0, 1]: always at gamma0 <= 0 (or None), never at gamma0 >= 1 (f(1/2)
    < 0). For 0 < gamma0 < 1, f is convex on [0, 1] with least value
    q (1 - gamma0) - 2 (gamma0/3)^(3/2) at alpha = sqrt(gamma0/3), which is
    >= 0 iff 27 q^2 (1 - gamma0)^2 >= 4 gamma0^3: at the default iff
    70227000 q^2 >= 3418681396, first true at q = 7.
    """
    _check_profile_args(q, 0)
    gamma0 = Fraction(0) if gamma0 is None else as_fraction(gamma0)
    return gamma0 <= 0 or (gamma0 < 1 and 27 * q * q * (1 - gamma0) ** 2 >= 4 * gamma0**3)


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
        q=q, alpha=alpha, k=k, eta=eta, q_prime=q_prime, alpha_prime=alpha_prime,
        lhs=lhs, rhs=rhs, holds_le=lhs <= rhs, strict=lhs < rhs,
    )


@dataclass(frozen=True)
class Lemma2Equalities:
    """The scan's equalities as int rows (i, k, e, q', r), one block per q.

    A block is (q, rhs, rows): alpha = i / a_den, eta = e / e_den and alpha'
    = r / (a_den k e), with a_den = alpha_steps - 1 and e_den = 4 eta_steps,
    and lhs = rhs = rhs[i]. Iterating yields each row's Lemma2Point in scan
    order; report_json spells the rows without building them.
    """

    alpha_steps: int
    eta_steps: int
    blocks: tuple[tuple[int, tuple[Fraction, ...], tuple[tuple[int, ...], ...]], ...]

    def __len__(self) -> int:
        return sum(len(rows) for _, _, rows in self.blocks)

    def __iter__(self):
        a_den, e_den = self.alpha_steps - 1, 4 * self.eta_steps
        for q, rhs, rows in self.blocks:
            for i, k, e, q_prime, r in rows:
                yield Lemma2Point(
                    q=q, alpha=Fraction(i, a_den), k=k, eta=Fraction(e, e_den),
                    q_prime=q_prime, alpha_prime=Fraction(r, a_den * k * e),
                    lhs=rhs[i], rhs=rhs[i], holds_le=True, strict=False,
                )


@dataclass(frozen=True)
class Lemma2ScanReport:
    q_max: int
    alpha_steps: int
    eta_steps: int
    gamma0: Fraction
    points: int
    violations: tuple[Lemma2Point, ...]
    equalities: Lemma2Equalities


# Anything float-scored above this margin below zero gets exact adjudication;
# double rounding error on these O(1) expressions is far below 1e-9.
_SCREEN_MARGIN = -1e-9


def _step_sign(e: int, e_den: int, m_num: int, m_den: int, rhs: Fraction) -> int:
    """Exact sign of eta^2 m + 3 (1 - eta)^2 - rhs at eta = e/e_den, m = m_num/m_den."""
    lhs_num = e * e * m_num + 3 * (e_den - e) * (e_den - e) * m_den
    diff = lhs_num * rhs.denominator - rhs.numerator * e_den * e_den * m_den
    return (diff > 0) - (diff < 0)


def _lemma2_sign(num: int, den: int, e: int, e_den: int, gamma0: Fraction, rhs: Fraction):
    """Exact sign of lhs - rhs for lemma2_check at ratio num/den, eta = e/e_den.

    The arithmetic of lemma2_check in Python ints: with q', r = divmod(num,
    den), the ceiling is _closure_max(q', r, den) and the comparison is a
    cross-multiplication. Returns (sign, q', r).
    """
    qp, r = divmod(num, den)
    m_num, m_den, _ = _closure_max(qp, r, den, gamma0)
    return _step_sign(e, e_den, m_num, m_den, rhs), qp, r


def _envelope_rows(floor: Fraction, eta_steps: int, gamma0: Fraction) -> list[int]:
    """The e of each grid row eta = e / (4 eta_steps) in (3/4, 1] with U(eta) >= floor."""
    top, e_den = max(1, gamma0), 4 * eta_steps
    return [e for e in range(3 * eta_steps + 1, e_den + 1)
            if _step_sign(e, e_den, top.numerator, top.denominator, floor) >= 0]


def _scan_one_q(q: int, alpha_steps: int, eta_steps: int, gamma0: Fraction):
    """Scan all (alpha, k, eta) for one q.

    Each ratio (q + alpha) / (k eta) is at least 1, and at q' >= 1 both
    algebraic branches are at most 1 (term1 = 1 - a'/q' + a'^2/q'^2; term2
    is convex in a', with end values (q'^2 + 3)/(q' + 1)^2 and 1). So lhs
    <= U(eta) = eta^2 max(1, gamma0) + 3 (1 - eta)^2, and a row with U(eta)
    below every rhs of this q holds strictly: it is never screened. As rhs
    >= gamma0 >= 3/4, the lemma holds on the continuum for all q >= 2, alpha
    in [0, 1] and k when eta < (3 + sqrt(4 gamma0 - 3)) / 4 (~0.973 at the
    default). On the other rows a float screen skips points safely below the
    ceiling, and _lemma2_sign decides each point near it exactly. Returns
    (points, violations, block): block is this q's Lemma2Equalities block,
    (q, rhs, rows) with one int row (i, k, e, q', r) per equality.
    lemma2_check, the oracle, rebuilds violations.
    """
    gamma0 = as_fraction(gamma0)
    # alpha = i / a_den and eta = e / e_den, so (q + alpha) / (k * eta) is
    # num / den with num = (q * a_den + i) * e_den and den = a_den * k * e.
    a_den, e_den = alpha_steps - 1, 4 * eta_steps
    rhs = [Fraction(*_closure_max(q, i, a_den, gamma0)[:2]) for i in range(alpha_steps)]
    rhs_f = np.array([float(v) for v in rhs])[:, None, None]
    e_grid = _envelope_rows(min(rhs), eta_steps, gamma0)
    e_num = np.array(e_grid, dtype=np.int64)
    den = a_den * np.arange(1, q + 1, dtype=np.int64)[:, None] * e_num
    rows = max(1, _BLOCK_BYTES // (8 * max(1, den.size)))
    violations, eq_rows = [], []
    for first in range(0, alpha_steps if e_grid else 0, rows):
        block = np.arange(first, min(first + rows, alpha_steps), dtype=np.int64)
        num = ((q * a_den + block) * e_den)[:, None, None]
        q_prime = num // den
        term1, term2 = _branches(q_prime, num / den - q_prime)
        m_f = np.maximum(np.maximum(term1, term2), float(gamma0))
        lhs_f = _induction_step(e_num / e_den, m_f) - rhs_f[first : first + rows]
        # np.nonzero walks the block in (alpha, k, eta) order.
        for i, k0, j in zip(*(a.tolist() for a in np.nonzero(lhs_f >= _SCREEN_MARGIN))):
            i, k, e = first + i, k0 + 1, e_grid[j]
            if k == 1 and e == e_den:
                # The identity line: the ratio is q + alpha, so lhs = rhs; at
                # alpha = 1 too, as M(q + 1, 0) = max(1, gamma0) = M(q, 1).
                qp, r = q + i // a_den, i % a_den * e_den
            else:
                sign, qp, r = _lemma2_sign(
                    (q * a_den + i) * e_den, a_den * k * e, e, e_den, gamma0, rhs[i]
                )
                if sign > 0:
                    point = lemma2_check(q, Fraction(i, a_den), k, Fraction(e, e_den), gamma0)
                    if point.holds_le:
                        raise ApxError("internal: lemma2 kernel and oracle disagree")
                    violations.append(point)
                if sign:
                    continue
            eq_rows.append((i, k, e, qp, r))
    return alpha_steps * q * eta_steps, violations, (q, tuple(rhs), tuple(eq_rows))


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
    try:
        float(gamma0)  # the float screen reads it
    except OverflowError:
        raise ValueError("gamma0 is past the float range of the lemma2 screen") from None
    worker = partial(_scan_one_q, alpha_steps=alpha_steps, eta_steps=eta_steps, gamma0=gamma0)
    chunks = pmap(worker, range(2, q_max + 1), threads=threads)
    # The chunks come in q order, each already in (alpha, k, eta) order.
    return Lemma2ScanReport(
        q_max=q_max, alpha_steps=alpha_steps, eta_steps=eta_steps, gamma0=gamma0,
        points=sum(c[0] for c in chunks),
        violations=tuple(p for c in chunks for p in c[1]),
        equalities=Lemma2Equalities(alpha_steps, eta_steps, tuple(c[2] for c in chunks)),
    )
