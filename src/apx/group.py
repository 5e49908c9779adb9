"""Finite abelian groups presented as products of cyclic factors.

Elements are integer indices in [0, order) under a mixed-radix encoding
with the first factor fastest:

    index(x1, ..., xr) = x1 + n1*(x2 + n2*(x3 + ...))

The same index space is used for subset bitmasks and for spectral
coefficients, so everything downstream agrees on element numbering.
Pair sums go through a carry-free embedding (pair_sums), built when
asked for in O(n); no n x n table is kept. Negation (negate) works on
the digits of the given elements only, with no table of the group.
Every table and kernel asks _require, with its estimates, before it
allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ApxError

# The ceilings, each checked by _require, and the blocked kernels' one budget.

# Fail fast on absurd presentations before any table gets allocated.
_MAX_ORDER = 1 << 62

# Largest table a kernel builds, 64 MiB: pair sums and their reduce table, the
# square route's buffers, the Cayley rows, and the int64 negation of every
# element that orbit_split takes (n <= 2^23).
_MAX_TABLE_BYTES = 1 << 26

# Largest subset cube the suite kernels build: 2-byte cells, 32 MiB, so at
# most 24 orbits (2^24 subsets).
_MAX_CUBE_BYTES = 1 << 25

# Largest spectrum, 32 n bytes of complex128 in and out plus pocketfft's
# Bluestein buffers (fourier._BLUESTEIN_BYTES): every order orbit_split admits
# whose axes have no prime factor past their square root.
_MAX_FFT_BYTES = 1 << 28

# Largest input polynomial the square route of pair_route squares: 2^23
# bits, about 3 s of CPython's Karatsuba multiplication on a 2-CPU machine.
_MAX_SQUARE_BITS = 1 << 23

# Most 64-bit word ANDs cayley_triangles_direct may do, n * |S| * ceil(n / 64).
# The densest set the kernel took when it read an n x n addition table, the
# whole of Z_2896 but 0, needs 3.9e8 (under 1 s on a 2-CPU VM).
_MAX_CAYLEY_WORDS = 1 << 29

# The work ceiling of extremal_search, in mask bits decoded. Each candidate
# costs one exact oracle call, which decodes an n-bit mask: on a 2-CPU VM
# about 28 us plus 3.9 ns per bit, so a call is charged max(n, 2^13) bits.
# 2^33 bits is about 30 s of calls: 2^20 candidates up to order 8192, and
# fewer above it.
_SEARCH_CALL_BITS = 1 << 13
_MAX_SEARCH_BITS = 1 << 33

# Not a ceiling: the bytes of one temporary in the blocked kernels (Cayley, lemma2, lemma1).
_BLOCK_BYTES = 1 << 20


def _spell_count(n: int) -> str:
    """n in decimal below 10^18, else "at least 2^k" with k = bit_length - 1.

    Python refuses to turn an int of more than 4,300 digits into a string,
    and an estimate past any ceiling needs no more than its magnitude.
    """
    return str(n) if n < 10**18 else f"at least 2^{n.bit_length() - 1}"


def _require(group: GroupSpec, what: str, *costs, refuse: bool = True) -> bool:
    """Whether every (estimate, unit, ceiling) of costs is within its ceiling.

    When one is not and refuse is set, raise ApxError stating every estimate.
    """
    fits = all(estimate <= ceiling for estimate, _, ceiling in costs)
    if fits or not refuse:
        return fits
    raise ApxError(
        f"the {what} of group {group.label} (order {group.order}) needs "
        + " and ".join(f"{_spell_count(e)} {unit} (ceiling {c})" for e, unit, c in costs)
    )


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{n1} x ... x Z_{nr}."""

    moduli: tuple[int, ...]
    order: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.moduli, tuple):
            object.__setattr__(self, "moduli", tuple(self.moduli))
        if not self.moduli:
            raise ValueError("a group needs at least one cyclic factor")
        order = 1
        for m in self.moduli:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"modulus {m!r} is not a positive integer")
            order *= m
        if order > _MAX_ORDER:
            raise ValueError(f"group order {order} exceeds the supported index range")
        object.__setattr__(self, "order", order)

    @property
    def label(self) -> str:
        """Comma-separated moduli, e.g. "15" or "3,5"."""
        return ",".join(str(m) for m in self.moduli)

    def coords(self, a: int) -> tuple[int, ...]:
        self._check_index(a)
        out = []
        for m in self.moduli:
            a, r = divmod(a, m)
            out.append(r)
        return tuple(out)

    def _check_index(self, a: int) -> None:
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool):
            raise ValueError(f"element index {a!r} is not an integer")
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a!r} out of range [0, {self.order})")


def make_group(moduli) -> GroupSpec:
    """Build a GroupSpec from an iterable of positive cyclic moduli."""
    return GroupSpec(tuple(moduli))


def parse_group(label: str) -> GroupSpec:
    """Parse the CLI notation "n1,n2,..." into a GroupSpec."""
    parts = [p.strip() for p in label.split(",")]
    try:
        moduli = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad group notation {label!r}: {exc}") from None
    return make_group(moduli)


def _partitions(k: int, largest: int | None = None):
    """Non-increasing partitions of k, parts <= largest (default k), largest first."""
    if k == 0:
        yield ()
        return
    for head in range(min(k, largest or k), 0, -1):
        for tail in _partitions(k - head, head):
            yield (head,) + tail


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def abelian_moduli_for_order(n: int) -> list[tuple[int, ...]]:
    """One canonical moduli tuple per isomorphism class of order n.

    Primary decomposition: prime powers grouped by ascending prime, with
    exponents descending within a prime, e.g. order 12 -> (4, 3), (2, 2, 3).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [(1,)]
    per_prime = []
    for p, e in _prime_factorization(n):
        per_prime.append(
            [tuple(p**part for part in parts) for parts in _partitions(e)]
        )
    out = []
    for combo in product(*per_prime):
        moduli = tuple(m for chunk in combo for m in chunk)
        out.append(moduli)
    return out


def enumerate_abelian_groups(max_order: int) -> list[GroupSpec]:
    """Every abelian group of order <= max_order, one spec per class."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    specs = []
    for n in range(1, max_order + 1):
        for moduli in abelian_moduli_for_order(n):
            specs.append(make_group(moduli))
    return specs


# ---------------------------------------------------------------------------
# Lookup tables, all marked read-only.
# ---------------------------------------------------------------------------


def _factors(group: GroupSpec) -> tuple[int, ...]:
    """The moduli other than 1, or (1,) for the trivial group.

    A factor Z_1 has the one coordinate 0 and changes no index, stride or
    padded stride, so the tables and the spectrum skip it.
    """
    return tuple(m for m in group.moduli if m > 1) or (1,)


def require_pair_sums(group: GroupSpec, rows: int, cols: int) -> None:
    """Raise ApxError when rows x cols int32 pair sums pass _MAX_TABLE_BYTES."""
    _require(group, f"{rows} x {cols} pair sums", (4 * rows * cols, "bytes", _MAX_TABLE_BYTES))


@lru_cache(maxsize=256)
def _sum_kernel(group: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """(embed, reduce), the carry-free coordinates behind pair_sums.

    embed[x] = sum_i x_i * P_i with padded strides P_i = prod_{j<i} (2 m_j - 1).
    A coordinate sum a_i + b_i is at most 2 m_i - 2, so embed[a] + embed[b]
    never carries from one factor into the next, and reduce maps that
    padded value back to the index of a + b. reduce has
    prod (2 m_i - 1) < 2^r * n int32 cells. The factors are taken as outer
    sums, last factor outermost, so a flat index is a mixed-radix index
    with the first factor fastest.
    """
    cells = math.prod(2 * m - 1 for m in group.moduli)
    _require(group, "pair-sum table", (4 * cells, "bytes", _MAX_TABLE_BYTES))
    embed = reduce = None
    stride = pad = 1
    for m in _factors(group):
        place = np.arange(0, pad * m, pad, dtype=np.int32)
        digit = np.arange(2 * m - 1, dtype=np.int32)
        digit %= m
        digit *= stride
        # An outer sum with the first factor would only copy its arrays,
        # doubling a cyclic group's peak memory.
        if embed is None:
            embed, reduce = place, digit
        else:
            embed = np.add.outer(place, embed).reshape(-1)
            reduce = np.add.outer(digit, reduce).reshape(-1)
        stride *= m
        pad *= 2 * m - 1
    embed.setflags(write=False)
    reduce.setflags(write=False)
    return embed, reduce


def pair_sums(group: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a| x |b| int32 array of the element indices a[i] + b[j].

    O(|a| * |b|) work and memory, checked before the kernel is built.
    """
    require_pair_sums(group, len(a), len(b))
    embed, reduce = _sum_kernel(group)
    return reduce[embed[a][:, None] + embed[b][None, :]]


def two_torsion(group: GroupSpec) -> np.ndarray:
    """The elements x = -x in ascending order: each coordinate is 0 or m/2.

    O(2^(number of even moduli)), with no O(n) table.
    """
    points, stride = np.zeros(1, dtype=np.int64), 1
    for m in group.moduli:
        if m % 2 == 0:  # stride * m/2 is above every point so far
            points = np.concatenate((points, points + stride * (m // 2)))
        stride *= m
    return points


def orbit_counts(group: GroupSpec) -> tuple[int, int]:
    """(fixed points, pairs) of x -> -x: 2^e and (n - 2^e) / 2 for e even moduli."""
    fixed = 1 << sum(m % 2 == 0 for m in group.moduli)
    return fixed, (group.order - fixed) // 2


def negate(group: GroupSpec, elems: np.ndarray) -> np.ndarray:
    """-x for each index x in elems, in O(|elems| * rank) with no O(n) table."""
    negs, stride = -elems, 1  # -x is the sum of stride * m over the digits x_i > 0, less x
    for m in _factors(group):
        np.add(negs, stride * m, out=negs, where=elems % (stride * m) >= stride)  # x_i > 0
        stride *= m
    return negs


def orbit_split(group: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into involution-fixed points and {x, -x} pairs.

    Returns two_torsion(group) and the pairs (x, -x) with x < -x as a
    k x 2 int array, both in ascending order of x, which callers that draw
    random bits per orbit rely on.
    """
    _require(group, "orbit split", (8 * group.order, "bytes", _MAX_TABLE_BYTES))
    elems = np.arange(group.order)
    negs = negate(group, elems)
    low = (elems < negs).nonzero()[0]
    del elems  # the pairs need only negs: keep the peak at negate's
    pairs = np.empty((len(low), 2), dtype=negs.dtype)
    pairs[:, 0] = low
    pairs[:, 1] = negs[low]
    return two_torsion(group), pairs
