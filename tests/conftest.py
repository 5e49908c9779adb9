from apx import SubsetMask, make_group


def mask(moduli, indices):
    return SubsetMask.from_indices(make_group(moduli), indices)


def empty(g):
    return SubsetMask(g, 0)


def full(g):
    return SubsetMask(g, (1 << g.order) - 1)


# Scalar group arithmetic, one coordinate at a time. The lookup tables in
# apx.group are checked against it, and the brute-force oracles use it.


def add(g, a, b):
    coords = zip(g.coords(a), g.coords(b), g.moduli)
    return g.index(tuple((x + y) % m for x, y, m in coords))


def neg(g, a):
    return g.index(tuple((-x) % m for x, m in zip(g.coords(a), g.moduli)))


def halve(g, a):
    """The unique b with b + b = a; defined only when every factor is odd."""
    if any(m % 2 == 0 for m in g.moduli):
        raise ValueError(f"group {g.label} has an even factor; 2 is not invertible")
    coords = zip(g.coords(a), g.moduli)
    return g.index(tuple((x * ((m + 1) // 2)) % m for x, m in coords))
