"""Exhaustive extremal search over subsets and the verification suites.

Everything here is exact and exhaustive up to the configured order; there
is no heuristic search. Parallel runs partition by group and merge in a
fixed order, so thread count never changes a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import ClassVar

from .bounds import (
    GAMMA0,
    BoundValue,
    closure_bound,
    gls_bound,
    size_profile,
)
from .counting import SubsetMask, cayley_triangles_direct, direct_prob, direct_t3
from .errors import OddOrderRequiredError
from .group import (
    GroupSpec,
    add_table,
    dilation_perm,
    enumerate_abelian_groups,
    orbit_split,
    units,
)
from .util import pmap


def _symmetric_bits(fixed, pairs, d: int):
    """All symmetric bitmasks of size d built from the given orbits."""
    for k in range(d & 1, min(len(fixed), d) + 1, 2):
        pair_count = (d - k) // 2
        if pair_count > len(pairs):
            continue
        for fixed_sel in combinations(fixed, k):
            base = 0
            for x in fixed_sel:
                base |= 1 << x
            for pair_sel in combinations(pairs, pair_count):
                bits = base
                for x, y in pair_sel:
                    bits |= (1 << x) | (1 << y)
                yield bits


def enumerate_symmetric_subsets(group: GroupSpec, d: int):
    """Yield every S with S = -S and |S| = d, each exactly once."""
    if not 0 <= d <= group.order:
        raise ValueError(f"subset size {d} out of range for order {group.order}")
    fixed, pairs = orbit_split(group)
    for bits in _symmetric_bits(fixed, pairs, d):
        yield SubsetMask(group, bits)


def _apply_perm(bits: int, perm) -> int:
    out = 0
    b = bits
    while b:
        low = b & -b
        out |= 1 << perm[low.bit_length() - 1]
        b ^= low
    return out


def _is_canonical(bits: int, perms) -> bool:
    return all(_apply_perm(bits, p) >= bits for p in perms)


@lru_cache(maxsize=64)
def _prob_orbit_perms(group: GroupSpec):
    """Unit dilations: the symmetry group of the sum-closure objective."""
    return tuple(tuple(int(v) for v in dilation_perm(group, u)) for u in units(group))


@lru_cache(maxsize=64)
def _t3_orbit_perms(group: GroupSpec):
    """Translations composed with unit dilations (progression symmetries)."""
    add = add_table(group)
    dilations = _prob_orbit_perms(group)
    out = []
    for t in range(group.order):
        row = add[t]
        for dil in dilations:
            out.append(tuple(int(row[dil[x]]) for x in range(group.order)))
    return tuple(out)


def _maximize(group: GroupSpec, candidates, evaluate, perms=None, witness_cap=1):
    """Best evaluate(S) over candidate bitmasks, skipping non-canonical ones.

    Returns (best or None, the first witness_cap maximizers in candidate
    order, candidates seen, candidates pruned by perms).
    """
    best = None
    witnesses: list[SubsetMask] = []
    seen = 0
    pruned = 0
    for bits in candidates:
        seen += 1
        if perms is not None and not _is_canonical(bits, perms):
            pruned += 1
            continue
        s = SubsetMask(group, bits)
        value = evaluate(s)
        if best is None or value > best:
            best = value
            witnesses = [s]
        elif value == best and len(witnesses) < witness_cap:
            witnesses.append(s)
    return best, witnesses, seen, pruned


@dataclass
class SearchReport:
    group: GroupSpec
    size: int
    objective: str  # "prob" | "t3density"
    max_value: Fraction
    witnesses: list[SubsetMask]
    enumerated: int
    pruned_by_canon: int
    bound: BoundValue
    bound_satisfied: bool


def extremal_search(
    group: GroupSpec,
    d: int,
    objective: str,
    canonicalize: bool = False,
    witness_cap: int = 10,
    gamma0=GAMMA0,
) -> SearchReport:
    """Exact maximum of Prob[S] or T3(S)/|S|^2 over subsets of size d.

    "prob" ranges over symmetric subsets; "t3density" over all subsets of
    an odd-order group. Canonicalization keeps only the lexicographically
    smallest bitmask of each orbit under the objective's symmetry group
    (dilations for prob; translations and dilations for t3density) and
    never changes the maximum.

    For "t3density" the attached bound carries only the two algebraic
    branches: the constant floor for that objective has no pinned value,
    so bound_satisfied may be False without contradicting anything.
    """
    if not 1 <= d <= group.order:
        raise ValueError(f"subset size {d} out of range for order {group.order}")
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap!r}")
    profile = size_profile(group.order, d)
    if objective == "prob":
        bound = closure_bound(profile.q, profile.alpha, gamma0)
        candidates = _symmetric_bits(*orbit_split(group), d)
        perms = _prob_orbit_perms(group) if canonicalize else None
        evaluate = direct_prob
    elif objective == "t3density":
        if group.order % 2 == 0:
            raise OddOrderRequiredError(
                "progression-density search runs on odd-order groups"
            )
        bound = closure_bound(profile.q, profile.alpha, None)
        candidates = (
            sum(1 << i for i in combo) for combo in combinations(range(group.order), d)
        )
        perms = _t3_orbit_perms(group) if canonicalize else None
        denom = d * d

        def evaluate(s: SubsetMask) -> Fraction:
            return Fraction(direct_t3(s), denom)

    else:
        raise ValueError(f"objective must be 'prob' or 't3density', got {objective!r}")

    best, witnesses, enumerated, pruned = _maximize(
        group, candidates, evaluate, perms, witness_cap
    )
    assert best is not None  # every 1 <= d <= n has candidates
    return SearchReport(
        group=group,
        size=d,
        objective=objective,
        max_value=best,
        witnesses=witnesses,
        enumerated=enumerated,
        pruned_by_canon=pruned,
        bound=bound,
        bound_satisfied=best <= bound.value,
    )


def _sweep(task, max_order: int, threads: int, odd_only: bool = False):
    """Run a per-group case function over every group up to max_order.

    task must pickle (a module-level function or a partial of one) for
    threads > 1. Returns the group count and all cases in group order.
    """
    lowest = 3 if odd_only else 2
    if max_order < lowest:
        raise ValueError(f"max_order must be >= {lowest}")
    groups = enumerate_abelian_groups(max_order)
    if odd_only:
        groups = [g for g in groups if g.order % 2 == 1]
    chunks = pmap(task, groups, threads)
    return len(groups), [case for chunk in chunks for case in chunk]


@dataclass
class SuiteCase:
    """One (group, size) row of a verify suite.

    csv_fields names the subclass's maximum and bound fields, the two
    columns cases_csv reads besides the shared ones.
    """

    csv_fields: ClassVar[tuple[str, str]]
    group: str
    order: int
    d: int
    q: int
    alpha: Fraction
    witness: str


@dataclass
class SuiteReport:
    max_order: int
    groups: int
    cases: list[SuiteCase]
    failures: list[SuiteCase]


def _search_rows(group: GroupSpec, objective: str, gamma0=GAMMA0):
    """extremal_search at every size d: (shared case fields, maximum, bound)."""
    for d in range(1, group.order + 1):
        report = extremal_search(group, d, objective, gamma0=gamma0)
        profile = size_profile(group.order, d)
        shared = dict(
            group=group.label, order=group.order, d=d, q=profile.q,
            alpha=profile.alpha, witness=report.witnesses[0].label,
        )
        yield shared, report.max_value, report.bound.value


# ---------------------------------------------------------------------------
# Suite: sum-closure bound over every group and size (theorem2).
# ---------------------------------------------------------------------------


@dataclass
class Theorem2Case(SuiteCase):
    csv_fields = ("max_value", "bound")
    max_value: Fraction
    bound: Fraction
    gap: Fraction


@dataclass
class Theorem2Report(SuiteReport):
    gamma0: Fraction
    worst_gap: Fraction | None


def _theorem2_group_cases(group: GroupSpec, gamma0) -> list[Theorem2Case]:
    return [
        Theorem2Case(**shared, max_value=high, bound=bound, gap=bound - high)
        for shared, high, bound in _search_rows(group, "prob", gamma0)
    ]


def verify_theorem2(
    max_order: int = 15, gamma0=GAMMA0, threads: int = 1
) -> Theorem2Report:
    """Exhaustively check max Prob[S] <= closure_bound for every (group, d)."""
    groups, cases = _sweep(
        partial(_theorem2_group_cases, gamma0=gamma0), max_order, threads
    )
    return Theorem2Report(
        max_order=max_order,
        gamma0=gamma0,
        groups=groups,
        cases=cases,
        failures=[case for case in cases if case.max_value > case.bound],
        worst_gap=min((case.gap for case in cases), default=None),
    )


# ---------------------------------------------------------------------------
# Suite: progression density over odd-order groups (theorem1).
# ---------------------------------------------------------------------------


@dataclass
class Theorem1Case(SuiteCase):
    csv_fields = ("max_density", "term_bound")
    max_density: Fraction
    term_bound: Fraction  # max of the two algebraic branches
    regime: str  # "algebraic" | "gamma1"


@dataclass
class Theorem1Report(SuiteReport):
    worst_gap: Fraction | None  # min over cases of 1 - max_density
    empirical_gamma1: Fraction | None  # max density among gamma1-regime cases

    @property
    def gamma1_cases(self) -> list[Theorem1Case]:
        return [case for case in self.cases if case.regime == "gamma1"]


def _theorem1_group_cases(group: GroupSpec) -> list[Theorem1Case]:
    return [
        Theorem1Case(
            **shared, max_density=high, term_bound=bound,
            regime="algebraic" if high <= bound else "gamma1",
        )
        for shared, high, bound in _search_rows(group, "t3density")
    ]


def verify_theorem1(max_order: int = 15, threads: int = 1) -> Theorem1Report:
    """Progression-density sweep over all subsets of odd-order groups.

    The hard assertion is max T3/d^2 <= 1. Cases already below the two
    algebraic branches pass that way; the rest feed the reported empirical
    constant (None when no case needs one, the situation at desk scale).
    """
    groups, cases = _sweep(_theorem1_group_cases, max_order, threads, odd_only=True)
    gamma1_densities = [c.max_density for c in cases if c.regime == "gamma1"]
    return Theorem1Report(
        max_order=max_order,
        groups=groups,
        cases=cases,
        failures=[case for case in cases if case.max_density > 1],
        worst_gap=min((1 - case.max_density for case in cases), default=None),
        empirical_gamma1=max(gamma1_densities, default=None),
    )


# ---------------------------------------------------------------------------
# Suite: triangle ceilings for Cayley graphs (gls).
# ---------------------------------------------------------------------------


@dataclass
class GlsCase(SuiteCase):
    # d is the degree |S|; q and alpha profile S0 = S + {0}
    csv_fields = ("max_triangles", "bound")
    sets: int
    max_triangles: int
    bound: int
    regime: str  # "asserted" (q >= 7) | "logged"
    holds: bool


@dataclass
class GlsReport(SuiteReport):
    sets_total: int
    asserted_sets: int
    logged: list[GlsCase]


def _gls_group_cases(group: GroupSpec) -> list[GlsCase]:
    n = group.order
    fixed, pairs = orbit_split(group)
    fixed_nonzero = [x for x in fixed if x != 0]
    out = []
    for d in range(0, n):
        max_triangles, witnesses, sets, _ = _maximize(
            group, _symmetric_bits(fixed_nonzero, pairs, d), cayley_triangles_direct
        )
        if sets == 0:
            continue
        bound = gls_bound(n, d)
        profile = size_profile(n, d + 1)
        out.append(
            GlsCase(
                group=group.label, order=n, d=d, q=profile.q, alpha=profile.alpha,
                witness=witnesses[0].label, sets=sets, max_triangles=max_triangles,
                bound=bound, regime="asserted" if profile.q >= 7 else "logged",
                holds=max_triangles <= bound,
            )
        )
    return out


def verify_gls(max_order: int = 16, threads: int = 1) -> GlsReport:
    """Triangle counts of every Cayley graph of order <= max_order vs the
    clique ceiling.

    Cases with q >= 7 are asserted (the proven regime); smaller q is outside
    it, so those cases are only logged with their empirical outcome.
    """
    groups, cases = _sweep(_gls_group_cases, max_order, threads)
    return GlsReport(
        max_order=max_order,
        groups=groups,
        sets_total=sum(c.sets for c in cases),
        asserted_sets=sum(c.sets for c in cases if c.regime == "asserted"),
        cases=cases,
        failures=[c for c in cases if c.regime == "asserted" and not c.holds],
        logged=[c for c in cases if c.regime == "logged"],
    )
