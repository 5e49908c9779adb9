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
