import json
from fractions import Fraction

import pytest

from apx import make_group, verify_theorem2
from apx.bounds import lemma2_scan
from apx.counting import SubsetMask
from apx.lemma1 import bruteforce_scan
from apx.report import (
    cases_csv,
    dumps_canonical,
    frac_str,
    lemma1_csv,
    lemma2_csv,
    report_json,
    to_jsonable,
)


def test_frac_str_always_has_denominator():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(2) == "2/1"
    assert frac_str(Fraction(-1, 3)) == "-1/3"


def test_to_jsonable_handles_domain_types():
    g = make_group([3, 5])
    s = SubsetMask.from_indices(g, [0, 3, 12])
    tree = to_jsonable({"group": g, "set": s, "value": Fraction(1, 2), "n": 3})
    assert tree == {"group": "3,5", "set": "{0,3,12}", "value": "1/2", "n": 3}
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dumps_canonical_sorts_keys_and_formats_floats():
    doc = dumps_canonical({"b": 1, "a": [0.1, 1.0, 2.5e-13], "c": None, "d": True})
    assert doc == '{"a":[0.1,1,2.5e-13],"b":1,"c":null,"d":true}'
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    with pytest.raises(TypeError):
        dumps_canonical({1: "non-string key"})


def test_json_round_trip_is_identity():
    rep = verify_theorem2(6)
    doc = report_json(rep)
    assert dumps_canonical(json.loads(doc)) == doc
    rep2 = lemma2_scan(3, alpha_steps=5, eta_steps=4)
    doc2 = report_json(rep2)
    assert dumps_canonical(json.loads(doc2)) == doc2


def test_theorem2_csv_shape():
    rep = verify_theorem2(5)
    lines = cases_csv(rep, "max_value", "bound").strip().split("\n")
    assert lines[0] == "group,d,q,alpha,max_value,bound,gap"
    assert len(lines) == len(rep.cases) + 1
    # the trivial group case: d = n = 1, max = bound = 1
    assert lines[1].split(",") == ["1", "1", "1", "0/1", "1/1", "1/1", "0/1"]


def test_lemma_csvs():
    scan = bruteforce_scan(9, 1, Fraction(2, 9))
    lines = lemma1_csv(scan).strip().split("\n")
    assert lines[0] == "weights,d,lhs,rhs"
    assert any("3 3 3" in line and "63" in line for line in lines[1:])

    scan2 = lemma2_scan(3, alpha_steps=5, eta_steps=4)
    lines2 = lemma2_csv(scan2).strip().split("\n")
    assert lines2[0] == "q,alpha,k,eta,lhs,rhs"
    assert len(lines2) == len(scan2.violations) + 1
