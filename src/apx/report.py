"""Report serialization: canonical JSON and the CSV emitters.

Rationals always serialize as "p/q" strings so nothing exact is ever
rounded; floating-point diagnostics serialize as decimal numbers with 12
significant digits. The JSON writer sorts keys and formats numbers
deterministically, so parse + re-serialize reproduces the document.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter

import numpy as np

from .bounds import Lemma2Equalities
from .counting import SubsetMask
from .group import GroupSpec


def frac_str(value) -> str:
    """Exact rational as "p/q" (always with an explicit denominator)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return str(key)  # residue buckets are keyed by int
    raise TypeError(f"cannot use a {type(key).__name__} as a JSON object key")


def _write_members(members: list, out: list[str]) -> None:
    """Write (spelled key, value) pairs as an object sorted by key."""
    members.sort(key=itemgetter(0))
    out.append("{")
    for i, (key, value) in enumerate(members):
        if i:
            if key == members[i - 1][0]:
                raise TypeError(f"two JSON object keys spell {key!r}")
            out.append(",")
        out.append(json.dumps(key))
        out.append(":")
        _write_json(value, out)
    out.append("}")


@lru_cache(maxsize=None)
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """A dataclass's field names in key order, each with its spelled prefix.

    The prefix is the JSON key and colon, after a comma on all but the
    first field. Field names are unique, so they need no duplicate check.
    """
    names = sorted(f.name for f in dataclasses.fields(cls))
    return tuple(
        (name, ("," if i else "") + json.dumps(name) + ":")
        for i, name in enumerate(names)
    )


def _spell_fraction(f: Fraction) -> str:
    """The JSON of f: its "p/q" string."""
    return f'"{f.numerator}/{f.denominator}"'


def _spell_equalities(table: Lemma2Equalities) -> str:
    """The JSON of tuple(table), written from its int rows.

    Each alpha, eta and rhs is spelled once, alpha' = r / (a_den k e) is
    reduced with one gcd, and the keys are Lemma2Point's fields in order.
    """
    a_den, e_den = table.alpha_steps - 1, 4 * table.eta_steps
    alphas = [frac_str(Fraction(i, a_den)) for i in range(table.alpha_steps)]
    etas = {e: frac_str(Fraction(e, e_den)) for e in range(3 * table.eta_steps + 1, e_den + 1)}
    items = []
    for q, rhs, rows in table.blocks:
        rhs_text = [frac_str(v) for v in rhs]
        for i, k, e, q_prime, r in rows:
            den = a_den * k * e
            g = gcd(r, den)
            items.append(
                f'{{"alpha":"{alphas[i]}","alpha_prime":"{r // g}/{den // g}",'
                f'"eta":"{etas[e]}","holds_le":true,"k":{k},"lhs":"{rhs_text[i]}",'
                f'"q":{q},"q_prime":{q_prime},"rhs":"{rhs_text[i]}","strict":false}}'
            )
    return "[" + ",".join(items) + "]"


# Leaves by exact type; bool, numpy scalars and subclasses take the isinstance chain.
_EXACT = {
    str: json.dumps, int: str, Fraction: _spell_fraction, Lemma2Equalities: _spell_equalities,
}


def _write_json(obj, out: list[str]) -> None:
    """Append the canonical JSON of a report object to out."""
    spell = _EXACT.get(type(obj))
    if spell is not None:
        out.append(spell(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, Fraction):
        out.append(_spell_fraction(obj))
    elif isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite floats have no canonical JSON form")
        out.append(format(obj, ".12g"))
    elif isinstance(obj, (GroupSpec, SubsetMask)):
        out.append(json.dumps(obj.label))
    elif isinstance(obj, dict):
        _write_members([(_key(k), v) for k, v in obj.items()], out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append("{")
        for name, prefix in _field_keys(type(obj)):
            out.append(prefix)
            _write_json(getattr(obj, name), out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_json(report) -> str:
    """Canonical JSON of a report: sorted keys, stable number format."""
    out: list[str] = []
    _write_json(report, out)
    return "".join(out)


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value):
    """A CSV cell: exact rationals as "p/q", integers and strings as is."""
    return frac_str(value) if isinstance(value, Fraction) else value


_CASE_HEADER = ["group", "d", "q", "alpha", "max_value", "bound", "gap"]


def cases_csv(report) -> str:
    """One row per suite case; each case's csv_fields name its maximum and bound."""
    rows = []
    for c in report.cases:
        high, bound = (getattr(c, name) for name in c.csv_fields)
        rows.append(
            [_cell(v) for v in (c.group, c.d, c.q, c.alpha, high, bound, bound - high)]
        )
    return _csv_string(_CASE_HEADER, rows)


def lemma1_csv(report) -> str:
    header = ["weights", "d", "lhs", "rhs"]
    rhs_scale = 1 - report.eps
    rows = [
        [" ".join(str(w) for w in v.weights), v.d, v.min_product,
         frac_str(rhs_scale * v.d * v.d)]
        for v in report.violations
    ]
    return _csv_string(header, rows)


def lemma2_csv(report) -> str:
    header = ["q", "alpha", "k", "eta", "lhs", "rhs"]
    rows = [[_cell(getattr(p, f)) for f in header] for p in report.violations]
    return _csv_string(header, rows)
