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
from operator import itemgetter

import numpy as np

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
    members.sort(key=lambda member: member[0])
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


def _write_json(obj, out: list[str]) -> None:
    """Append the canonical JSON of a report object to out."""
    if obj is None:
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
        out.append(f'"{obj.numerator}/{obj.denominator}"')
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
        fields = dataclasses.fields(obj)
        _write_members([(f.name, getattr(obj, f.name)) for f in fields], out)
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
