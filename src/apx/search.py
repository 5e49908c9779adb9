"""Exhaustive extremal search over subsets and the verification suites.

Everything here is exact and exhaustive up to the configured order; there
is no heuristic search. Parallel runs partition by group and merge in a
fixed order, so thread count never changes a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from math import comb
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import group as _ceilings  # read at call time, so a patched ceiling holds
from .bounds import (
    GAMMA0,
    BoundValue,
    closure_bound,
    gls_bound,
    size_profile,
)
from .counting import (
    SubsetMask,
    closure_cube,
    direct_prob,
    direct_t3,
    pair_route,
    require_cube,
    set_label,
    t3_cube,
)
from .errors import OddOrderRequiredError
from .group import (
    GroupSpec,
    _prime_factorization,
    _require,
    _spell_count,
    enumerate_abelian_groups,
    orbit_counts,
    orbit_split,
    two_torsion,
)
from .util import pmap


def _symmetric_bits(fixed: np.ndarray, pairs: np.ndarray, d: int):
    """All symmetric bitmasks of size d built from the given orbits.

    fixed and pairs are arrays as orbit_split returns them. They become
    Python ints, so 1 << x cannot wrap.
    """
    fixed, pairs = fixed.tolist(), pairs.tolist()
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


def _symmetric_count(fixed: int, pairs: int, d: int) -> int:
    """Masks _symmetric_bits yields at size d: k fixed points and (d - k) / 2 pairs."""
    return sum(
        comb(fixed, k) * comb(pairs, (d - k) // 2)
        for k in range(max(d & 1, d - 2 * pairs), min(fixed, d) + 1, 2)  # where both fit
    )


@dataclass
class SearchReport:
    group: GroupSpec
    size: int
    objective: str  # "prob" | "t3density"
    max_value: Fraction
    witnesses: list[SubsetMask]
    enumerated: int
    bound: BoundValue
    bound_satisfied: bool


def extremal_search(
    group: GroupSpec,
    d: int,
    objective: str,
    witness_cap: int = 10,
    gamma0=GAMMA0,
) -> SearchReport:
    """Exact maximum of Prob[S] or T3(S)/|S|^2 over subsets of size d.

    "prob" ranges over symmetric subsets; "t3density" over all subsets of
    an odd-order group. The witnesses are the first witness_cap maximizers
    in candidate order.

    For "t3density" the attached bound carries only the two algebraic
    branches: the constant floor for that objective has no pinned value,
    so bound_satisfied may be False without contradicting anything.
    """
    if not 1 <= d <= group.order:
        raise ValueError(f"subset size {d} out of range for order {group.order}")
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap!r}")
    n = group.order
    profile = size_profile(n, d)
    if objective == "prob":
        fixed_count, pair_count = orbit_counts(group)
        evaluate = direct_prob
    elif objective == "t3density":
        if n % 2 == 0:
            raise OddOrderRequiredError("progression-density search runs on odd-order groups")
        # Every element is its own orbit: _symmetric_bits then meets every
        # d-subset, in combinations order.
        fixed_count, pair_count, gamma0 = n, 0, None

        def evaluate(s: SubsetMask) -> Fraction:
            return Fraction(direct_t3(s), d * d)

    else:
        raise ValueError(f"objective must be 'prob' or 't3density', got {objective!r}")
    bound = closure_bound(profile.q, profile.alpha, gamma0)
    count = _symmetric_count(fixed_count, pair_count, d)
    bits = count * max(n, _ceilings._SEARCH_CALL_BITS)
    what = f"{objective} search over {_spell_count(count)} candidates at size {d}"
    _require(group, what, (bits, "bits to decode", _ceilings._MAX_SEARCH_BITS))
    pair_route(group, d)
    if objective == "prob" and d > 1:
        fixed, pairs = orbit_split(group)
    else:  # no pairs; a prob size below 2 builds no O(n) orbit table
        fixed = np.arange(n) if objective == "t3density" else two_torsion(group)
        pairs = np.empty((0, 2), dtype=np.int64)
    best = None
    witnesses: list[SubsetMask] = []
    enumerated = 0
    for bits in _symmetric_bits(fixed, pairs, d):
        enumerated += 1
        s = SubsetMask(group, bits)
        value = evaluate(s)
        if best is None or value > best:
            best = value
            witnesses = [s]
        elif value == best and len(witnesses) < witness_cap:
            witnesses.append(s)
    assert best is not None  # every 1 <= d <= n has candidates
    return SearchReport(
        group=group,
        size=d,
        objective=objective,
        max_value=best,
        witnesses=witnesses,
        enumerated=enumerated,
        bound=bound,
        bound_satisfied=best <= bound.value,
    )


# Fewest subset-cube cells a sweep must score before it starts a process
# pool: below this, starting the workers costs more than they save. Fitted
# on a 2-CPU VM, where a 2-worker pool took 1.6x the serial time on the
# theorem1 23 plan (3,328,948 cells) and 1.2x on one cube per group there
# (11,185,322), but 0.62x on the theorem1 25 plan (28,494,773).
_POOL_MIN_CELLS = 1 << 24


class _Suite(NamedTuple):
    """What _sweep runs. orbits(group) lists the group's orbits, and
    plan(group, orbits) splits their cube into pieces (pins, free orbits):
    cube(group, free, pins) scores the sets that hold the pins. case(group,
    *row) turns each merged row of size first_size and up into a SuiteCase.
    The parts are module-level functions or partials, so a suite pickles
    for pmap; each verify function builds its suite when called.
    """

    orbits: Callable
    plan: Callable
    cube: Callable
    case: Callable
    first_size: int  # size 0, the empty set, is a row of an unpinned cube
    odd_only: bool


def _sweep(suite: _Suite, max_order: int, threads: int):
    """Run suite on every group up to max_order; return the group count and
    all cases in group order.

    Each group's orbit list is built once: its plan's widest piece is
    checked against the ceiling before the first group runs, and the list
    goes to _group_cases with the group. Under _POOL_MIN_CELLS plan cells in
    all, a sweep runs in-process; a larger one sends the groups to the pool
    largest plan first.
    """
    lowest = 3 if suite.odd_only else 2
    if max_order < lowest:
        raise ValueError(f"max_order must be >= {lowest}")
    jobs, cells = [], []
    for group in enumerate_abelian_groups(max_order):
        if group.order % 2 == 1 or not suite.odd_only:
            orbits = suite.orbits(group)
            widths = [len(free) for _, free in suite.plan(group, orbits)]
            require_cube(group, max(widths))
            jobs.append((group, orbits))
            cells.append(sum(1 << width for width in widths))
    if sum(cells) < _POOL_MIN_CELLS:
        threads = 1
    largest_first = sorted(range(len(jobs)), key=cells.__getitem__, reverse=True)
    results = pmap(partial(_group_cases, suite), [jobs[i] for i in largest_first], threads)
    chunks = dict(zip(largest_first, results))
    return len(jobs), [case for i in range(len(jobs)) for case in chunks[i]]


def _group_cases(suite: _Suite, job) -> list[SuiteCase]:
    """The cases of one (group, orbits) job: one per merged row of its plan."""
    group, orbits = job
    rows = _plan_rows(suite.cube, group, suite.plan(group, orbits))
    return [suite.case(group, *row) for row in rows if row[0] >= suite.first_size]


def _plan_rows(cube: Callable, group: GroupSpec, pieces):
    """The _cube_rows of every piece, merged by size: the largest maximum,
    with the row of the first piece that reaches it."""
    best = {}
    for pins, orbits in pieces:
        for row in _cube_rows(cube(group, orbits, pins), orbits, pins):
            if row[0] not in best or row[1] > best[row[0]][1]:
                best[row[0]] = row
    return [best[d] for d in sorted(best)]


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


def _size_index(fixed: int, pairs: int) -> np.ndarray:
    """|S| of every cell of a cube over fixed singletons then pairs, as uint8.

    |S| is the popcount of the fixed bits plus twice that of the pair bits:
    an outer sum of the popcounts of the pair bits and of the two halves of
    the fixed bits, high part outermost, so no O(cells) index array is built.
    """
    low = fixed // 2
    parts = [
        np.bitwise_count(np.arange(1 << width, dtype=np.uint32)) * np.uint8(scale)
        for width, scale in ((pairs, 2), (fixed - low, 1), (low, 1))
    ]
    return reduce(np.add.outer, parts).reshape(-1)


_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)])


def _reversed_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The low width bits of each value in reverse order: each byte is
    looked up reversed, lowest byte highest, and the padding shifted out."""
    reversed_ = np.zeros_like(values)
    for low in range(0, width, 8):
        reversed_ = (reversed_ << 8) | _BYTE_REVERSED[(values >> low) & 255]
    return reversed_ >> (-width % 8)


def _cube_rows(cube: np.ndarray, orbits, pins=()):
    """(d, maximum, witness label, cells) of every size d that has cells, by d.

    The pins are in every set: d and the label count them, and cells is
    _symmetric_count of the orbits at d - len(pins). Without pins, row 0 is
    the empty set, which the bound suites skip.

    orbits lists the singleton orbits (fixed) first, then the pairs, in
    the bit order of the cube. The witness is the maximizer that
    _symmetric_bits(fixed, pairs, d) meets first: the one with the fewest
    fixed orbits, then the largest bit-reversed fixed part, then the
    largest bit-reversed pair part. With singletons only, that order is
    combinations order.

    One pass over the cube: the maxima of all sizes in one reduction, the
    tied cells of all sizes found at once, and one sort of the ties by
    (size, witness key) whose last cell of each size is its witness.
    """
    fixed = sum(len(orbit) == 1 for orbit in orbits)
    pairs = len(orbits) - fixed
    size = _size_index(fixed, pairs)
    maxima = np.zeros(fixed + 2 * pairs + 1, dtype=cube.dtype)
    np.maximum.at(maxima, size, cube)
    ties = np.flatnonzero(cube == maxima[size])
    fixed_part = ties & ((1 << fixed) - 1)
    key = (
        (size[ties].astype(np.int64) << 32)
        | ((fixed - np.bitwise_count(fixed_part).astype(np.int64)) << len(orbits))
        | (_reversed_bits(fixed_part, fixed) << pairs)
        | _reversed_bits(ties >> fixed, pairs)
    )
    ties = ties[np.argsort(key)]
    tie_sizes = size[ties]
    last = np.append(tie_sizes[1:] != tie_sizes[:-1], True)
    rows = []
    for d, winner in zip(tie_sizes[last].tolist(), ties[last].tolist()):
        elements = (e for i, orbit in enumerate(orbits) if winner >> i & 1 for e in orbit)
        label = set_label(sorted([*pins, *elements]))
        rows.append((d + len(pins), int(maxima[d]), label, _symmetric_count(fixed, pairs, d)))
    return rows


def _symmetric_orbits(group: GroupSpec, zero: bool = True):
    """Singleton orbits of x -> -x, then the {x, -x} pairs, as element tuples."""
    fixed, pairs = orbit_split(group)
    return [(x,) for x in fixed.tolist() if zero or x != 0] + list(map(tuple, pairs.tolist()))


def _singleton_orbits(group: GroupSpec):
    """Every element its own orbit: a cube over all subsets."""
    return [(x,) for x in range(group.order)]


def _whole_cube(group: GroupSpec, orbits):
    """One piece with no pins: the plan of a score that translation changes."""
    return [((), orbits)]


def _theorem1_plan(group: GroupSpec, orbits):
    """Pieces of the all-subsets cube (orbits (0,), (1,), ...) that hold the
    first maximizer of T3 at every size.

    T3 is invariant under translation and automorphisms of G. If the first
    maximizer S in combinations order missed 0, S minus its least element
    would be an earlier one; so pin 0. On Z_p^r, GL(r, p) maps the second
    element of S to 1, which would again be earlier if it were above 1; so
    pin {0, 1}, and score the size 1 apart.
    """
    p = group.moduli[0]
    if set(group.moduli) == {p} and _prime_factorization(p) == [(p, 1)]:
        return [((0,), []), ((0, 1), orbits[2:])]
    return [((0,), orbits[1:])]


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


def _theorem2_case(group: GroupSpec, d, count, witness, _, gamma0) -> Theorem2Case:
    profile = size_profile(group.order, d)
    high = Fraction(count, d * d)
    bound = closure_bound(profile.q, profile.alpha, gamma0).value
    return Theorem2Case(
        group=group.label, order=group.order, d=d, q=profile.q, alpha=profile.alpha,
        witness=witness, max_value=high, bound=bound, gap=bound - high,
    )


def verify_theorem2(
    max_order: int = 15, gamma0=GAMMA0, threads: int = 1
) -> Theorem2Report:
    """Exhaustively check max Prob[S] <= closure_bound for every (group, d)."""
    case = partial(_theorem2_case, gamma0=gamma0)
    suite = _Suite(
        _symmetric_orbits, _whole_cube, closure_cube, case, first_size=1, odd_only=False
    )
    groups, cases = _sweep(suite, max_order, threads)
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


def _theorem1_case(group: GroupSpec, d, count, witness, _) -> Theorem1Case:
    profile = size_profile(group.order, d)
    high = Fraction(count, d * d)
    bound = closure_bound(profile.q, profile.alpha, None).value
    return Theorem1Case(
        group=group.label, order=group.order, d=d, q=profile.q, alpha=profile.alpha,
        witness=witness, max_density=high, term_bound=bound,
        regime="algebraic" if high <= bound else "gamma1",
    )


def verify_theorem1(max_order: int = 15, threads: int = 1) -> Theorem1Report:
    """Progression-density sweep over all subsets of odd-order groups.

    The hard assertion is max T3/d^2 <= 1. Cases already below the two
    algebraic branches pass that way; the rest feed the reported empirical
    constant (None when no case needs one, the situation at desk scale).
    """
    suite = _Suite(
        _singleton_orbits, _theorem1_plan, t3_cube, _theorem1_case, first_size=1, odd_only=True
    )
    groups, cases = _sweep(suite, max_order, threads)
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


def _gls_case(group: GroupSpec, d, count, witness, sets) -> GlsCase:
    """Triangles of a 0-free symmetric S are n * sum_closure_count(S) / 6."""
    n = group.order
    max_triangles = n * count // 6
    bound = gls_bound(n, d)
    profile = size_profile(n, d + 1)
    return GlsCase(
        group=group.label, order=n, d=d, q=profile.q, alpha=profile.alpha,
        witness=witness, sets=sets, max_triangles=max_triangles,
        bound=bound, regime="asserted" if profile.q >= 7 else "logged",
        holds=max_triangles <= bound,
    )


def verify_gls(max_order: int = 16, threads: int = 1) -> GlsReport:
    """Triangle counts of every Cayley graph of order <= max_order vs the
    clique ceiling.

    Cases with q >= 7 are asserted (the proven regime); smaller q is outside
    it, so those cases are only logged with their empirical outcome.
    """
    orbits = partial(_symmetric_orbits, zero=False)  # all but the orbit of 0
    suite = _Suite(orbits, _whole_cube, closure_cube, _gls_case, first_size=0, odd_only=False)
    groups, cases = _sweep(suite, max_order, threads)
    return GlsReport(
        max_order=max_order,
        groups=groups,
        sets_total=sum(c.sets for c in cases),
        asserted_sets=sum(c.sets for c in cases if c.regime == "asserted"),
        cases=cases,
        failures=[c for c in cases if c.regime == "asserted" and not c.holds],
        logged=[c for c in cases if c.regime == "logged"],
    )
