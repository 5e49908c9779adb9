"""Definition-level counting: sum-closure pairs, progressions, triangles.

These operations are the toolkit's ground truth. Every result is an exact
integer or Fraction; the integer kernels run on numpy gathers over the
group tables and pair sums but never touch floating point. The spectral
module is checked against these, never the other way round.

The cube kernels (t3_cube, closure_cube) score every subset of a group at
once and are tested against the per-set oracles beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ApxError, EmptySetError, InvalidConnectionSetError
from .group import (
    _BLOCK_BYTES,
    _MAX_CAYLEY_WORDS,
    _MAX_CUBE_BYTES,
    _MAX_SQUARE_BITS,
    _MAX_TABLE_BYTES,
    GroupSpec,
    _require,
    _sum_kernel,
    negate,
    pair_sums,
)


class _kept:
    """A method made an attribute on first use and kept in the instance dict.

    functools.cached_property does the same, but before Python 3.12 it takes
    a lock on each first use. A mask fills three, once per search candidate:
    on CPython 3.11 (2-CPU VM) the lock made an extremal_search candidate
    on Z_40 cost 20.4 us against 18.2 us.
    """

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a group as a bitmask over element indices.

    group and bits are its identity. Its membership, elements, pair-sum
    pass and symmetry are made on first use and kept, so every oracle here
    and in the spectral module asked about one mask decodes, pair-sums and
    negates it once.
    """

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
        indices = list(indices)
        n = group.order
        if not all(type(i) is int and 0 <= i < n for i in indices):
            for i in indices:
                group._check_index(i)  # raises at the first bad index
        memb = np.zeros(n, dtype=np.uint8)
        memb[np.fromiter(indices, dtype=np.int64, count=len(indices))] = 1
        return cls._from_membership(group, memb)

    @classmethod
    def _from_membership(cls, group: GroupSpec, memb: np.ndarray) -> "SubsetMask":
        """The set with this uint8 0/1 membership, which it keeps as its own."""
        packed = np.packbits(memb, bitorder="little")  # the inverse of memb below
        s = cls(group, int.from_bytes(packed.tobytes(), "little"))
        memb.setflags(write=False)
        s.__dict__["memb"] = memb  # where _kept keeps it
        return s

    @_kept
    def memb(self) -> np.ndarray:
        """Read-only uint8 membership, 1 at each element of the set."""
        n = self.group.order
        packed = np.frombuffer(self.bits.to_bytes((n + 7) // 8, "little"), np.uint8)
        memb = np.unpackbits(packed, count=n, bitorder="little")
        memb.setflags(write=False)
        return memb

    @_kept
    def elems(self) -> np.ndarray:
        """The element indices, ascending."""
        return self.memb.nonzero()[0]

    @_kept
    def pairs(self) -> "PairSums":
        """The pair-sum pass, by the route pair_route picks before the set is decoded."""
        route = pair_route(self.group, self.size)
        return route(self.group, self.elems)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.elems.tolist())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.group.order and (self.bits >> i) & 1 == 1

    @property
    def contains_zero(self) -> bool:
        return self.bits & 1 == 1

    @_kept
    def is_symmetric(self) -> bool:
        """True when S = -S."""
        negs = negate(self.group, self.elems)
        return bool(np.count_nonzero(self.memb[negs]) == self.size)  # cheaper than .all()

    def with_zero(self) -> "SubsetMask":
        """S union {0}, built from this set's membership."""
        if self.contains_zero:
            return self
        memb = self.memb.copy()
        memb[0] = 1
        return SubsetMask._from_membership(self.group, memb)

    @property
    def label(self) -> str:
        """Sorted index notation, e.g. "{1,2,4}"."""
        return set_label(self.elems.tolist())


def set_label(indices) -> str:
    """The label of the set with these ascending element indices, e.g. "{1,2,4}"."""
    return "{" + ",".join(map(str, indices)) + "}"


# Digits of the square route for counts below 2^8, 2^16 and 2^32.
_DIGITS = tuple(np.dtype(f"<u{width}") for width in (1, 2, 4))


def _digit_dtype(size: int) -> np.dtype:
    """Little-endian unsigned digits that hold any count up to size."""
    return _DIGITS[(size >= 1 << 8) + (size >= 1 << 16)]


class PairSums(NamedTuple):
    """r(x) = #{(a, b) in S^2 : a + b = x} of a set S, from one pass over its pairs.

    The square route leaves r itself, one count per group element (dense);
    the gather route leaves the |S|^2 pair sums in ascending order, where
    r(x) is the length of the run of x. Both take no O(n) weights.
    """

    values: np.ndarray
    dense: bool  # values is r itself, one count per element

    def total(self, x: np.ndarray) -> int:
        """The sum of r(x_i) over an array x of element indices."""
        if self.dense:
            return int(self.values[x].sum(dtype=np.int64))
        runs = np.searchsorted(self.values, x, "right") - np.searchsorted(self.values, x)
        return int(runs.sum())


def _gather_pair_sums(group: GroupSpec, elems) -> PairSums:
    """The |S|^2 pair sums of S, sorted in place."""
    sums = pair_sums(group, elems, elems).reshape(-1)
    sums.sort()
    return PairSums(sums, dense=False)


def _square_pair_counts(group: GroupSpec, elems) -> PairSums:
    """r over the whole group, by Kronecker substitution.

    Digit embed[a] of poly is 1 for each a in S, so digit v of poly^2
    counts the pairs whose padded sum embed[a] + embed[b] is v. embed is
    injective and carry-free, so b is fixed by a and v: a digit never
    exceeds |S| and never carries into the next. Adding each digit onto
    the element reduce[v] it sums to gives r; those digits count pairs of
    one sum, so r(x) is at most |S| too, and the digit dtype holds it.
    """
    embed, reduce = _sum_kernel(group)
    digit = _digit_dtype(len(elems))
    digits = np.zeros((reduce.size + 1) // 2, dtype=digit)
    digits[embed[elems].astype(np.intp)] = 1  # an int32 index scatters slowly
    poly = int.from_bytes(digits.tobytes(), "little")
    square = (poly * poly).to_bytes(reduce.size * digit.itemsize, "little")
    counts = np.zeros(group.order, dtype=digit)
    np.add.at(counts, reduce, np.frombuffer(square, dtype=digit))
    return PairSums(counts, dense=True)


@lru_cache(maxsize=1024)  # the oracles ask once per set, a search per candidate
def pair_route(group: GroupSpec, size: int):
    """The route that makes the pair-sum pass of a size-element set.

    Both routes take (group, elems) and return the PairSums of the set S
    with element indices elems.

    Squaring wins when the set is dense in the padded span of the carry-free
    embedding (see _sum_kernel), the gather when it is sparse. A route whose
    memory passes _MAX_TABLE_BYTES, or whose square passes _MAX_SQUARE_BITS,
    is never taken; when neither fits, raise ApxError with both estimates,
    before anything is allocated.
    """
    cells = math.prod(2 * m - 1 for m in group.moduli)  # digits of the square
    span = (cells + 1) // 2
    width = _digit_dtype(size).itemsize
    bits = 8 * width * span
    table_bytes = 4 * cells
    gather_bytes = 4 * size * size
    # An upper bound, with room to spare, on the digits, their bytes and
    # poly, the square and its bytes, and the counts (n <= span).
    square_bytes = table_bytes + width * (3 * span + 2 * cells) + 8 * span + 16 * cells
    what = f"pass over the pair sums of a {size}-element set"
    gather = ((max(table_bytes, gather_bytes), "bytes by gather", _MAX_TABLE_BYTES),)
    square = (
        (square_bytes, "bytes by square", _MAX_TABLE_BYTES),
        (bits, "bits to square", _MAX_SQUARE_BITS),
    )
    gather_fits = _require(group, what, *gather, refuse=False)
    square_fits = _require(group, what, *square, refuse=False)
    if not (gather_fits or square_fits):
        _require(group, what, *gather, *square)
    # Costs in gathered pair sums, about 8 ns each, fitted to timings of both
    # routes (README scale notes): the gather takes size^2 plus 200 for its
    # fixed overhead, the square (digit bytes)^1.585 / 10, the exponent of
    # CPython's Karatsuba multiplication.
    square_cheaper = (width * span) ** 1.585 < 10 * (size * size + 200)
    if square_fits and (not gather_fits or square_cheaper):
        return _square_pair_counts
    return _gather_pair_sums


def sum_closure_count(s: SubsetMask) -> int:
    """#{(x, y) in S^2 : x + y in S}, the numerator of direct_prob."""
    if s.size == 0:
        return 0
    return s.pairs.total(s.elems)


def direct_prob(s: SubsetMask) -> Fraction:
    """Exact sum-closure probability #{(x,y) in S^2 : x+y in S} / |S|^2."""
    if s.size == 0:
        raise EmptySetError("sum-closure probability needs a non-empty set")
    return Fraction(sum_closure_count(s), s.size * s.size)


def direct_t3(s: SubsetMask) -> int:
    """Count pairs (x, step) with x, x+step, x+2*step all in S.

    The step 0 pairs (degenerate progressions) are included, so the full
    group scores order^2. Works for every group order. (x, step) ->
    (a, b, c) = (x, x + step, x + 2*step) is a bijection onto the triples
    in S^3 with a + c = 2b, so this is the sum over b in S of r(2b), the
    pairs (a, c) in S^2 with a + c = 2b.
    """
    if s.size == 0:
        return 0
    pairs = s.pairs  # refused, when over budget, before the kernel is built
    embed, reduce = _sum_kernel(s.group)
    return pairs.total(reduce[2 * embed[s.elems]])


def _require_connection_set(s: SubsetMask) -> None:
    """Raise InvalidConnectionSetError unless S is 0-free and symmetric."""
    if s.contains_zero:
        raise InvalidConnectionSetError("connection set must not contain 0")
    if not s.is_symmetric:
        raise InvalidConnectionSetError("connection set must be symmetric")


def require_cayley(group: GroupSpec, size: int) -> None:
    """Raise ApxError when cayley_triangles_direct of a size-element set is over budget."""
    n, words = group.order, -(-group.order // 64)
    _require(
        group, f"Cayley triangle count of a {size}-element set",
        (8 * n * words, "bytes of neighbour rows", _MAX_TABLE_BYTES),
        (n * size * words, "word ANDs", _MAX_CAYLEY_WORDS),
    )


def _common_neighbours(rows: np.ndarray, lo: int, ends: np.ndarray) -> int:
    """Sum of popcount(rows[u] & rows[v]) over u = lo + i and v in ends[i]."""
    block = rows[ends.astype(np.intp)]  # an int32 index gathers slowly
    # In place: a new broadcast result is laid out to stream slowly.
    block &= rows[lo : lo + len(ends), None, :]
    return int(np.bitwise_count(block).sum())


def cayley_triangles_direct(s: SubsetMask) -> int:
    """Triangle count of the Cayley graph on G with connection set S.

    Counts the closed 3-walks of the actual graph and divides by 6; never
    consults the sum-closure probability. Row u is the neighbourhood u + S
    as a bitset of ceil(n/64) uint64 words, scattered from pair_sums. Every
    ordered edge (u, u + a) closes popcount(row u & row u+a) walks.
    Vertices are taken a block at a time so each temporary stays near
    _BLOCK_BYTES: n * |S| * ceil(n/64) word ANDs at most and no n x n
    temporary, both checked by require_cayley before anything is built.

    A graph of one block walks each of its ordered edges. A larger one
    walks only the steps a < -a, twice, since (u, u + a) is the edge
    (u + a, u) of step -a read backwards, and each involution a = -a once.
    """
    if s.size == 0:
        return 0
    g = s.group
    n = g.order
    require_cayley(g, s.size)  # before any table of the group is built
    _require_connection_set(s)
    elems = s.elems
    words = -(-n // 64)
    width = 64 * words
    step = max(1, _BLOCK_BYTES // (8 * words * max(elems.size, 8)))
    rows = np.empty((n, words), dtype=np.uint64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        nbrs = pair_sums(g, np.arange(lo, hi), elems)
        bits = np.zeros((hi - lo) * width, dtype=np.uint8)
        bits[nbrs + np.arange(0, (hi - lo) * width, width)[:, None]] = 1
        rows[lo:hi] = np.packbits(bits, bitorder="little").view(np.uint64).reshape(-1, words)
    if step >= n:  # one block, whose neighbour lists are still at hand
        closed_walks = _common_neighbours(rows, 0, nbrs)
    else:
        negs = negate(g, elems)
        twice, once = elems[elems < negs], elems[elems == negs]
        closed_walks = 0
        for lo in range(0, n, step):
            vertices = np.arange(lo, min(lo + step, n))
            closed_walks += 2 * _common_neighbours(rows, lo, pair_sums(g, vertices, twice))
            closed_walks += _common_neighbours(rows, lo, pair_sums(g, vertices, once))
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


def require_cube(group: GroupSpec, orbits: int) -> None:
    """Raise ApxError when a cube over this many orbits passes _MAX_CUBE_BYTES."""
    _require(group, f"subset cube over {orbits} orbits", (2 << orbits, "bytes", _MAX_CUBE_BYTES))


def _cube(group: GroupSpec, orbits, pins, triples) -> np.ndarray:
    """Count the element triples inside every union of orbits with the pins.

    Bit len(orbits) - 1 - i of a cube index stands for orbits[i] (a tuple
    of elements); the pinned elements are in every set, with bit 0. Each
    triple adds 1 to the cell of the orbits it touches; a triple touching an
    element in no orbit and no pin counts nowhere. One in-place subset-sum
    (zeta) pass per bit then turns cell m into the number of triples inside
    m and the pins (Yates 1937). Cells are uint16: two elements of a triple
    fix the third, so a cell is at most m^2 for the m elements covered.
    """
    covered = len(pins) + sum(len(orbit) for orbit in orbits)
    if covered * covered >= 1 << 16:
        raise ValueError(f"orbits cover {covered} elements; uint16 cells need < 256")
    bit = np.full(group.order, -1, dtype=np.int64)  # -1: in no set
    bit[list(pins)] = 0
    for i, orbit in enumerate(reversed(orbits)):
        bit[list(orbit)] = 1 << i
    a, b, c = (bit[t] for t in triples)
    masks = a | b | c  # negative when any element is in no set
    masks, counts = np.unique(masks[masks >= 0], return_counts=True)
    cube = np.zeros(1 << len(orbits), dtype=np.uint16)
    cube[masks] = counts
    for i in range(len(orbits)):
        v = cube.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    return cube


def t3_cube(group: GroupSpec, orbits, pins=()) -> np.ndarray:
    """direct_t3 of every union of orbits with the pins, laid out as in closure_cube."""
    require_cube(group, len(orbits))
    x = np.arange(group.order)
    sums = pair_sums(group, x, x)  # its diagonal holds 2x
    return _cube(group, orbits, pins, (x[:, None], sums, pair_sums(group, x, sums.diagonal())))


def closure_cube(group: GroupSpec, orbits, pins=()) -> np.ndarray:
    """sum_closure_count of every union of orbits with the pins, at once.

    orbits are disjoint element tuples, and pins a tuple of other elements.
    cube[m] is sum_closure_count of the pins and the orbits whose bit is
    set in m (bit len(orbits) - 1 - i for orbits[i]); elements in neither
    are in no set.
    """
    require_cube(group, len(orbits))
    x = np.arange(group.order)
    return _cube(group, orbits, pins, (x[:, None], x[None, :], pair_sums(group, x, x)))
