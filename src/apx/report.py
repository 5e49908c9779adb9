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

import numpy as np

from .counting import SubsetMask
from .group import GroupSpec


def frac_str(value) -> str:
    """Exact rational as "p/q" (always with an explicit denominator)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def to_jsonable(obj):
    """Convert report objects to plain dict/list/str/number trees."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, GroupSpec):
        return obj.label
    if isinstance(obj, SubsetMask):
        return obj.label
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite floats have no canonical JSON form")
        out.append(format(obj, ".12g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_json(obj[key], out)
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


def dumps_canonical(obj) -> str:
    """Serialize a jsonable tree with sorted keys and stable number format."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def report_json(report) -> str:
    return dumps_canonical(to_jsonable(report))


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


def cases_csv(report, max_field: str, bound_field: str) -> str:
    """One row per suite case; max_value and bound come from the named fields."""
    rows = []
    for c in report.cases:
        high, bound = getattr(c, max_field), getattr(c, bound_field)
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
