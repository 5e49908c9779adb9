"""Integer weight sequences and the min-product concentration implication.

A symmetric sequence of non-negative integer weights a_j (finite support,
total d) that keeps sum_{i,j} min(a_i*a_j, a_i*a_{i+j}, a_j*a_{i+j}) at
least (1-eps)*d^2 must concentrate at 0: a_0 >= (1-eps)*d, for eps below
1/10. The scan brute-forces that implication over every bounded sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, islice

import numpy as np

from . import group as _ceilings  # read at call time, so a patched ceiling holds
from .errors import ApxError, SymmetryRequiredError
from .group import _BLOCK_BYTES, _require
from .util import as_fraction, pmap


@dataclass(frozen=True)
class IntWeightSeq:
    """Non-negative integer weights on [-radius, radius], zero elsewhere."""

    radius: int
    weights: tuple[int, ...]  # index j+radius, length 2*radius + 1
    total: int = field(init=False)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != 2 * self.radius + 1:
            raise ValueError(
                f"need {2 * self.radius + 1} weights for radius {self.radius}"
            )
        for w in self.weights:
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"weight {w!r} is not a non-negative integer")
        total = sum(self.weights)
        if total < 1:
            raise ValueError("total weight must be >= 1")
        object.__setattr__(self, "total", total)

    @classmethod
    def symmetric(cls, center: int, half) -> "IntWeightSeq":
        """Build from a_0 and (a_1, ..., a_R); negative side mirrors."""
        half = tuple(half)
        return cls(len(half), tuple(reversed(half)) + (center,) + half)

    @property
    def center(self) -> int:
        return self.weights[self.radius]

    @property
    def is_symmetric(self) -> bool:
        return self.weights == tuple(reversed(self.weights))


def min_product_sum(seq: IntWeightSeq) -> int:
    """sum over index pairs (i, j) of min(a_i a_j, a_i a_{i+j}, a_j a_{i+j}).

    Pairs range over the support window; i+j outside it contributes a zero
    factor, matching sequences with finite support on all of Z.
    """
    r = seq.radius
    w = seq.weights
    total = 0
    for i in range(-r, r + 1):
        wi = w[i + r]
        if wi == 0:
            continue
        for j in range(-r, r + 1):
            wj = w[j + r]
            if wj == 0:
                continue
            s = i + j
            ws = w[s + r] if -r <= s <= r else 0
            total += min(wi * wj, wi * ws, wj * ws)
    return total


@dataclass(frozen=True)
class Lemma1Check:
    weights: tuple[int, ...]
    d: int
    eps: Fraction
    min_product: int
    hypothesis: bool  # min_product >= (1-eps) * d^2
    conclusion: bool  # a_0 >= (1-eps) * d
    ok: bool  # hypothesis implies conclusion


def _check_eps(eps) -> Fraction:
    eps = as_fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return eps


def implication_check(seq: IntWeightSeq, eps) -> Lemma1Check:
    """Exact check of the concentration implication for one sequence."""
    if not seq.is_symmetric:
        raise SymmetryRequiredError("the implication is stated for a_j = a_{-j}")
    eps = _check_eps(eps)
    d = seq.total
    mps = min_product_sum(seq)
    hypothesis = mps >= (1 - eps) * d * d
    conclusion = seq.center >= (1 - eps) * d
    return Lemma1Check(
        weights=seq.weights,
        d=d,
        eps=eps,
        min_product=mps,
        hypothesis=hypothesis,
        conclusion=conclusion,
        ok=(not hypothesis) or conclusion,
    )


@dataclass
class Lemma1ScanReport:
    d_max: int
    radius: int
    eps: Fraction
    checked: int
    violations: list[Lemma1Check]


def _window_triples(radius: int):
    """The pairs (i, j) of min_product_sum with i + j inside the window.

    Pairs whose sum leaves the window contribute 0. On a symmetric sequence
    a pair's term depends only on the multiset {|i|, |j|, |i+j|}, so the
    pairs are grouped by it: returns index arrays (x, y, z) into the half
    sequence (a_0, ..., a_R) and each group's pair count.
    """
    groups = Counter(
        tuple(sorted((abs(i), abs(j), abs(i + j))))
        for i in range(-radius, radius + 1)
        for j in range(-radius, radius + 1)
        if abs(i + j) <= radius
    )
    x, y, z = (np.array(column, dtype=np.int64) for column in zip(*groups))
    return x, y, z, np.array(list(groups.values()), dtype=np.int64)


def _scan_center(centers: range, d_max: int, radius: int, eps: Fraction):
    """Check every symmetric sequence with its center in centers and total <= d_max.

    The plan is built once: _window_triples, and integer thresholds per total
    d for mps >= ceil((1-eps) d^2) and a_0 >= ceil((1-eps) d). By stars and
    bars, the tails of center a0 with sum <= b = (d_max - a0) // 2 are the
    steps a_k = c_k - c_{k-1} (c_0 = 0) of the bars 0 <= c_1 <= ... <= c_R
    <= b, the C(b + R, R) of _sequence_count, in lexicographic order. One
    np.diff turns a chunk of bars into half sequences, and a chunk keeps each
    int64 temporary near _BLOCK_BYTES at any radius. Violations are rebuilt
    by implication_check, the oracle.
    """
    x, y, z, mult = _window_triples(radius)
    p, q = (1 - eps).numerator, (1 - eps).denominator
    mps_min = np.array([-(-p * d * d // q) for d in range(d_max + 1)])
    center_min = np.array([-(-p * d // q) for d in range(d_max + 1)])
    checked, violations = 0, []
    for a0 in centers:
        # At radius 0 the pool is empty: the one empty tail, with no b bars copied.
        stream = combinations_with_replacement(range(radius and (d_max - a0) // 2 + 1), radius)
        while chunk := list(islice(stream, max(1, _BLOCK_BYTES // (8 * len(mult))))):
            bars = np.array(chunk, dtype=np.int64).reshape(len(chunk), radius)
            half = np.diff(bars, prepend=np.broadcast_to((-a0, 0), (len(chunk), 2)))
            d = 2 * half.sum(axis=1) - a0
            hx, hy, hz = half[:, x], half[:, y], half[:, z]
            mps = np.minimum(np.minimum(hx * hy, hx * hz), hy * hz) @ mult
            # d = 0 is the all-zero sequence, which has no total to concentrate.
            checked += int(np.count_nonzero(d))
            for row in np.flatnonzero((d > 0) & (mps >= mps_min[d]) & (a0 < center_min[d])):
                result = implication_check(IntWeightSeq.symmetric(a0, half[row, 1:].tolist()), eps)
                if result.ok:
                    raise ApxError("internal: lemma1 kernel and oracle disagree")
                violations.append(result)
    return checked, violations


def _sequence_count(d_max: int, radius: int) -> int:
    """Sum over a0 <= d_max of C(radius + (d_max - a0) // 2, radius): the
    symmetric sequences a scan covers, the all-zero one included.

    Each b = (d_max - a0) // 2 <= B = d_max // 2 comes from two a0, and
    b = B from one when d_max is even, so by the hockey-stick identity the
    sum is 2 C(radius + B + 1, B) less C(radius + B, B) for even d_max.
    Past min(radius, B) = 64 it is over C(radius + B, B) >= 2^min(radius, B),
    and 2^64 stands for it, so no comb of a huge size is taken.
    """
    b = d_max // 2
    if min(radius, b) > 64:
        return 1 << 64
    return 2 * math.comb(radius + b + 1, b) - (d_max % 2 == 0) * math.comb(radius + b, b)


def bruteforce_scan(
    d_max: int, radius: int, eps, threads: int = 1
) -> Lemma1ScanReport:
    """Run implication_check over every symmetric sequence with total <= d_max
    and support inside [-radius, radius].

    For eps < 1/10 the violation list must come back empty; larger eps can
    and does produce counterexamples. Before any work, a scan past a ceiling
    on its sequences, centers, window pairs or triple terms raises ApxError.
    """
    if d_max < 1 or radius < 0:
        raise ValueError("need d_max >= 1 and radius >= 0")
    eps = _check_eps(eps)
    count = _sequence_count(d_max, radius)
    # The triples (a, b, a + b), 0 <= a <= b and a + b <= radius, of _window_triples.
    triples = (radius + 2) ** 2 // 4
    _require(
        None, f"lemma1 scan to d_max {d_max} at radius {radius}",
        (count, "sequences", _ceilings._MAX_LEMMA1_SEQUENCES),
        (d_max + 1, "centers", _ceilings._MAX_LEMMA1_CENTERS),
        ((2 * radius + 1) ** 2, "window pairs", _ceilings._MAX_LEMMA1_PAIRS),
        (count * triples, "triple terms", _ceilings._MAX_LEMMA1_TERMS),
    )
    # One task per thread, each over interleaved centers, builds one plan.
    tasks = max(1, min(threads, d_max + 1))
    worker = partial(_scan_center, d_max=d_max, radius=radius, eps=eps)
    chunks = pmap(worker, [range(t, d_max + 1, tasks) for t in range(tasks)], threads=threads)
    violations = [v for chunk in chunks for v in chunk[1]]
    violations.sort(key=lambda v: (v.d, v.weights))
    return Lemma1ScanReport(
        d_max=d_max,
        radius=radius,
        eps=eps,
        checked=sum(chunk[0] for chunk in chunks),
        violations=violations,
    )
