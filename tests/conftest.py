import math
from functools import lru_cache

import numpy as np

from apx import SubsetMask, make_group


def mask(moduli, indices):
    return SubsetMask.from_indices(make_group(moduli), indices)


def empty(g):
    return SubsetMask(g, 0)


def full(g):
    return SubsetMask(g, (1 << g.order) - 1)


# Scalar group arithmetic, one coordinate at a time. The lookup tables in
# apx.group are checked against it, and the brute-force oracles use it.


def index(g, coords):
    """Inverse of g.coords: the mixed-radix index, first coordinate fastest."""
    coords = tuple(coords)
    if len(coords) != len(g.moduli):
        raise ValueError(f"expected {len(g.moduli)} coordinates, got {len(coords)}")
    acc = 0
    for m, x in zip(reversed(g.moduli), reversed(coords)):
        if not isinstance(x, int) or not 0 <= x < m:
            raise ValueError(f"coordinate {x!r} out of range for modulus {m}")
        acc = acc * m + x
    return acc


def add(g, a, b):
    coords = zip(g.coords(a), g.coords(b), g.moduli)
    return index(g, tuple((x + y) % m for x, y, m in coords))


def neg(g, a):
    return index(g, tuple((-x) % m for x, m in zip(g.coords(a), g.moduli)))


def halve(g, a):
    """The unique b with b + b = a; defined only when every factor is odd."""
    if any(m % 2 == 0 for m in g.moduli):
        raise ValueError(f"group {g.label} has an even factor; 2 is not invertible")
    coords = zip(g.coords(a), g.moduli)
    return index(g, tuple((x * ((m + 1) // 2)) % m for x, m in coords))


def units(g):
    """Dilation units: residues coprime to every modulus, one per distinct map."""
    exp = math.lcm(*g.moduli)
    if exp == 1:
        return (1,)
    return tuple(u for u in range(1, exp) if math.gcd(u, exp) == 1)


def dilation_perm(g, u):
    """Index permutation induced by x -> u*x (u a unit)."""
    if math.gcd(u, math.lcm(*g.moduli)) != 1:
        raise ValueError(f"{u} is not a unit for group {g.label}")
    return [
        index(g, tuple((u * x) % m for x, m in zip(g.coords(a), g.moduli)))
        for a in range(g.order)
    ]


@lru_cache(maxsize=32)
def add_table(g):
    """n x n int64 table with add_table(g)[a, b] = a + b, coordinate by coordinate.

    The dense reference for apx.group.pair_sums and for the table forms of
    the counting kernels below.
    """
    idx = np.arange(g.order, dtype=np.int64)
    table = np.zeros((g.order, g.order), dtype=np.int64)
    stride = 1
    for m in g.moduli:
        x = (idx // stride) % m
        table += stride * ((x[:, None] + x[None, :]) % m)
        stride *= m
    table.setflags(write=False)
    return table


def dense_cayley_triangles(s):
    """Cayley triangles from the dense int64 cube of the adjacency matrix.

    The reference for counting.cayley_triangles_direct: trace(A^3) / 6 with
    A[a, b] = 1_S(b - a), an O(n^3) matmul. S must be symmetric and 0-free.
    """
    g = s.group
    memb = np.zeros(g.order, dtype=np.int64)
    memb[list(s.indices())] = 1
    adj = memb[add_table(g)][[neg(g, a) for a in range(g.order)]]
    closed_walks = int(((adj @ adj) * adj).sum())
    assert closed_walks % 6 == 0
    return closed_walks // 6


# The n x n table forms of counting.sum_closure_count and counting.direct_t3,
# kept as references for the pair-sum kernels.


def _decode(s):
    elems = np.array(s.indices(), dtype=np.int64)
    memb = np.zeros(s.group.order, dtype=np.uint8)
    memb[elems] = 1
    return elems, memb


def table_sum_closure_count(s):
    """#{(x, y) in S^2 : x + y in S}, gathered from the addition table."""
    elems, memb = _decode(s)
    return int(memb[add_table(s.group)[np.ix_(elems, elems)]].sum(dtype=np.int64))


def table_t3(s):
    """#{(x, step) : x, x + step, x + 2 step in S}, from the addition table."""
    g = s.group
    elems, memb = _decode(s)
    rows = add_table(g)[elems]
    at_step = memb[rows]
    at_double = memb[rows[:, add_table(g).diagonal()]]  # x + 2 step
    return int((at_step & at_double).sum(dtype=np.int64))


# The per-size scan search._cube_rows replaced, kept as its reference.


def orbit_sizes(orbits):
    """|S| of every orbit mask: the total size of the orbits whose bit is set."""
    sizes = np.zeros(1, dtype=np.uint8)
    for orbit in orbits:
        sizes = np.concatenate([sizes, sizes + len(orbit)])
    return sizes


def reversed_bits(values, width):
    """(the low width bits of each value in reverse order, their popcount)."""
    reversed_ = np.zeros_like(values)
    count = np.zeros_like(values)
    for i in range(width):
        bit = (values >> i) & 1
        reversed_ |= bit << (width - 1 - i)
        count += bit
    return reversed_, count


def reference_cube_rows(group, cube, orbits):
    """(d, maximum, witness label, cells) of every size d with cells, size by size.

    Each size scans the whole cube for its cells, takes their maximum, and
    keeps the tied cell with the fewest fixed orbits, then the largest
    bit-reversed fixed part, then the largest bit-reversed pair part.
    """
    fixed = sum(len(orbit) == 1 for orbit in orbits)
    pairs = len(orbits) - fixed
    size = orbit_sizes(orbits)
    rows = []
    for d in range(int(size.max()) + 1):
        cells = np.flatnonzero(size == d)
        if cells.size == 0:
            continue
        values = cube[cells]
        best = values.max()
        ties = cells[values == best]
        fixed_reversed, fixed_count = reversed_bits(ties & ((1 << fixed) - 1), fixed)
        pairs_reversed, _ = reversed_bits(ties >> fixed, pairs)
        key = (
            ((fixed - fixed_count) << len(orbits))
            | (fixed_reversed << pairs)
            | pairs_reversed
        )
        winner = int(ties[np.argmax(key)])
        elements = (e for i, orbit in enumerate(orbits) if winner >> i & 1 for e in orbit)
        label = SubsetMask.from_indices(group, elements).label
        rows.append((d, int(best), label, cells.size))
    return rows
