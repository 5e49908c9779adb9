"""Finite abelian groups presented as products of cyclic factors.

Elements are integer indices in [0, order) under a mixed-radix encoding
with the first factor fastest:

    index(x1, ..., xr) = x1 + n1*(x2 + n2*(x3 + ...))

The same index space is used for subset bitmasks and for spectral
coefficients, so everything downstream agrees on element numbering.
Arithmetic goes through lookup tables built lazily by the module-level
table functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ApxError

# Fail fast on absurd presentations before any table gets allocated.
_MAX_ORDER = 1 << 62

# Largest int64 addition table add_table builds: 64 MiB, order <= 2896.
_MAX_TABLE_BYTES = 1 << 26


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

    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    def _check_index(self, a: int) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
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
# Lookup tables. All arrays are cached per group and marked read-only.
# ---------------------------------------------------------------------------


def _axis_values(group: GroupSpec):
    """Per-factor coordinate arrays of every element index."""
    idx = np.arange(group.order, dtype=np.int64)
    stride = 1
    for m in group.moduli:
        yield stride, (idx // stride) % m, m
        stride *= m


@lru_cache(maxsize=32)
def add_table(group: GroupSpec) -> np.ndarray:
    """n x n table with add_table(G)[a, b] = a + b, at most _MAX_TABLE_BYTES."""
    nbytes = 8 * group.order * group.order
    if nbytes > _MAX_TABLE_BYTES:
        raise ApxError(
            f"the addition table of group {group.label} (order {group.order}) "
            f"needs {nbytes} bytes ({nbytes / 2**30:.1f} GiB), over the "
            f"{_MAX_TABLE_BYTES}-byte ceiling"
        )
    table = np.zeros((group.order, group.order), dtype=np.int64)
    for stride, x, m in _axis_values(group):
        table += stride * ((x[:, None] + x[None, :]) % m)
    table.setflags(write=False)
    return table


def _coordinate_scaling_table(group: GroupSpec, factor_fn) -> np.ndarray:
    table = np.zeros(group.order, dtype=np.int64)
    for stride, x, m in _axis_values(group):
        table += stride * ((factor_fn(m) * x) % m)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def neg_table(group: GroupSpec) -> np.ndarray:
    return _coordinate_scaling_table(group, lambda m: m - 1)


@lru_cache(maxsize=256)
def double_table(group: GroupSpec) -> np.ndarray:
    return _coordinate_scaling_table(group, lambda m: 2)


def orbit_split(group: GroupSpec):
    """Split indices into involution-fixed points and {x, -x} pairs.

    Both lists are in ascending index order (pairs by their smaller
    element), which callers that draw random bits per orbit rely on.
    """
    nt = neg_table(group)
    fixed = [x for x in range(group.order) if int(nt[x]) == x]
    pairs = [(x, int(nt[x])) for x in range(group.order) if x < int(nt[x])]
    return fixed, pairs


@lru_cache(maxsize=256)
def units(group: GroupSpec) -> tuple[int, ...]:
    """Dilation units: residues coprime to every modulus, one per distinct map."""
    exp = group.exponent()
    if exp == 1:
        return (1,)
    return tuple(u for u in range(1, exp) if math.gcd(u, exp) == 1)


def dilation_perm(group: GroupSpec, u: int) -> np.ndarray:
    """Permutation of indices induced by x -> u*x (u a unit)."""
    if math.gcd(u, group.exponent()) != 1:
        raise ValueError(f"{u} is not a unit for group {group.label}")
    return _coordinate_scaling_table(group, lambda m: u % m)
