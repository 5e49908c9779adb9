"""Definition-level counting: sum-closure pairs, progressions, triangles.

These operations are the toolkit's ground truth. Every result is an exact
integer or Fraction; the integer kernels run on numpy gathers over the
group tables but never touch floating point. The spectral module is
checked against these, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ApxError, EmptySetError, InvalidConnectionSetError
from .group import GroupSpec, add_table, double_table, neg_table


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a group as a bitmask over element indices."""

    group: GroupSpec
    bits: int
    size: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 0:
            raise ValueError("bits must be a non-negative integer bitmask")
        if self.bits >> self.group.order:
            raise ValueError("bitmask has bits outside the group's index range")
        object.__setattr__(self, "size", self.bits.bit_count())

    @classmethod
    def from_indices(cls, group: GroupSpec, indices) -> "SubsetMask":
        bits = 0
        for i in indices:
            group._check_index(i)
            bits |= 1 << i
        return cls(group, bits)

    def indices(self) -> tuple[int, ...]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return tuple(out)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.group.order and (self.bits >> i) & 1 == 1

    @property
    def contains_zero(self) -> bool:
        return self.bits & 1 == 1

    @property
    def is_symmetric(self) -> bool:
        """True when S = -S."""
        nt = neg_table(self.group)
        b = self.bits
        m = b
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if not (b >> int(nt[i])) & 1:
                return False
            m ^= low
        return True

    def with_zero(self) -> "SubsetMask":
        return SubsetMask(self.group, self.bits | 1)

    @property
    def label(self) -> str:
        """Sorted index notation, e.g. "{1,2,4}"."""
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


def _decode(s: SubsetMask) -> tuple[np.ndarray, np.ndarray]:
    """(element indices, 0/1 membership over the group) from one decode of s."""
    elems = np.array(s.indices(), dtype=np.int64)
    memb = np.zeros(s.group.order, dtype=np.uint8)
    memb[elems] = 1
    return elems, memb


def sum_closure_count(s: SubsetMask) -> int:
    """#{(x, y) in S^2 : x + y in S}, the numerator of direct_prob."""
    if s.size == 0:
        return 0
    elems, memb = _decode(s)
    block = add_table(s.group)[np.ix_(elems, elems)]
    return int(memb[block].sum(dtype=np.int64))


def direct_prob(s: SubsetMask) -> Fraction:
    """Exact sum-closure probability #{(x,y) in S^2 : x+y in S} / |S|^2."""
    if s.size == 0:
        raise EmptySetError("sum-closure probability needs a non-empty set")
    return Fraction(sum_closure_count(s), s.size * s.size)


def direct_t3(s: SubsetMask) -> int:
    """Count pairs (x, step) with x, x+step, x+2*step all in S.

    The step 0 pairs (degenerate progressions) are included, so the full
    group scores order^2. Works for every group order.
    """
    if s.size == 0:
        return 0
    g = s.group
    elems, memb = _decode(s)
    rows = add_table(g)[elems]
    at_step = memb[rows]
    at_double = memb[rows[:, double_table(g)]]
    return int((at_step & at_double).sum(dtype=np.int64))


def _require_connection_set(s: SubsetMask) -> None:
    if s.contains_zero:
        raise InvalidConnectionSetError("connection set must not contain 0")
    if not s.is_symmetric:
        raise InvalidConnectionSetError("connection set must be symmetric")


def cayley_triangles_direct(s: SubsetMask) -> int:
    """Triangle count of the Cayley graph on G with connection set S.

    Counts closed 3-walks of the actual adjacency matrix (exact integer
    cube) and divides by 6; never consults the sum-closure probability.
    Row -a of the addition table holds b - a, so the row-permuted gather
    below is the adjacency 1_S(b - a).
    """
    _require_connection_set(s)
    if s.size == 0:
        return 0
    g = s.group
    _, memb = _decode(s)
    adj = memb[add_table(g)][neg_table(g)].astype(np.int64)
    closed_walks = int(((adj @ adj) * adj).sum(dtype=np.int64))
    if closed_walks % 6:
        raise ApxError("internal: closed 3-walk count not divisible by 6")
    return closed_walks // 6


def cayley_triangles_formula(s: SubsetMask) -> int:
    """Triangle count via (1/6) * n * |S|^2 * Prob[S]; must be an integer."""
    _require_connection_set(s)
    if s.size == 0:
        return 0
    count = Fraction(s.group.order * s.size * s.size, 6) * direct_prob(s)
    if count.denominator != 1:
        raise ApxError("internal: triangle formula produced a non-integer")
    return int(count)


def prob_from_s0(s: SubsetMask) -> Fraction:
    """Prob[S] recovered from S0 = S union {0}.

    Uses the exact identity
    Prob[S] = (|S0|^2/|S|^2) * (Prob[S0] - (3|S|+1)/|S0|^2)
    valid for symmetric 0-free S; Prob[S0] comes from direct_prob.
    """
    _require_connection_set(s)
    if s.size == 0:
        raise EmptySetError("the S0 identity needs a non-empty set")
    s0 = s.with_zero()
    d = s.size
    scale = Fraction(s0.size, d) ** 2
    return scale * (direct_prob(s0) - Fraction(3 * d + 1, s0.size * s0.size))
