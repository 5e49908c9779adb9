"""Integer weight sequences and the min-product concentration implication.

A symmetric sequence of non-negative integer weights a_j (finite support,
total d) that keeps sum_{i,j} min(a_i*a_j, a_i*a_{i+j}, a_j*a_{i+j}) at
least (1-eps)*d^2 must concentrate at 0: a_0 >= (1-eps)*d, for eps below
1/10. The scan brute-forces that implication over every bounded sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import SymmetryRequiredError
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


def implication_check(seq: IntWeightSeq, eps) -> Lemma1Check:
    """Exact check of the concentration implication for one sequence."""
    if not seq.is_symmetric:
        raise SymmetryRequiredError("the implication is stated for a_j = a_{-j}")
    eps = as_fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
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


def _half_tails(radius: int, budget: int):
    """All (a_1, ..., a_radius) with sum <= budget."""
    if radius == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _half_tails(radius - 1, budget - first):
            yield (first,) + rest


def _scan_center(a0: int, d_max: int, radius: int, eps: Fraction):
    checked = 0
    violations = []
    for tail in _half_tails(radius, (d_max - a0) // 2):
        if a0 == 0 and not any(tail):
            continue
        seq = IntWeightSeq.symmetric(a0, tail)
        checked += 1
        result = implication_check(seq, eps)
        if not result.ok:
            violations.append(result)
    return checked, violations


def bruteforce_scan(
    d_max: int, radius: int, eps, threads: int = 1
) -> Lemma1ScanReport:
    """Run implication_check over every symmetric sequence with total <= d_max
    and support inside [-radius, radius].

    For eps < 1/10 the violation list must come back empty; larger eps can
    and does produce counterexamples.
    """
    if d_max < 1 or radius < 0:
        raise ValueError("need d_max >= 1 and radius >= 0")
    eps = as_fraction(eps)
    worker = partial(_scan_center, d_max=d_max, radius=radius, eps=eps)
    chunks = pmap(worker, range(d_max + 1), threads=threads)
    violations = [v for chunk in chunks for v in chunk[1]]
    violations.sort(key=lambda v: (v.d, v.weights))
    return Lemma1ScanReport(
        d_max=d_max,
        radius=radius,
        eps=eps,
        checked=sum(chunk[0] for chunk in chunks),
        violations=violations,
    )
