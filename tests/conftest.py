import math
from functools import lru_cache

import numpy as np

from apx import SubsetMask, make_group
from apx.group import double_table, neg_table


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
    adj = memb[add_table(g)][neg_table(g)]
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
    at_double = memb[rows[:, double_table(g)]]
    return int((at_step & at_double).sum(dtype=np.int64))
