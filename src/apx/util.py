"""Small shared helpers: exact-rational coercion and deterministic fan-out."""

from __future__ import annotations

import os
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce int, str ("3/4" or "0.75"), float, or Fraction to a Fraction.

    Floats convert to their exact binary value; prefer strings or Fractions
    when the decimal reading matters.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot interpret a bool as a rational")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def resolve_threads(threads) -> int:
    """Turn a thread setting (int, numeric string, or "auto") into a count."""
    if threads is None or threads == "auto":
        return os.cpu_count() or 1
    count = int(threads)
    if count < 1:
        raise ValueError(f"thread count must be >= 1, got {threads!r}")
    return count


def pmap(fn, items, threads: int = 1) -> list:
    """Map fn over items, preserving input order in the result.

    With threads > 1 the work is spread over a process pool; the result
    list is identical to the serial one because completion order is never
    observed, only input order.
    """
    items = list(items)
    if threads <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    workers = min(threads, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
