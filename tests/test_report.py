import json
from fractions import Fraction

import numpy as np
import pytest

from apx import make_group, verify_theorem2
from apx.bounds import lemma2_scan
from apx.counting import SubsetMask
from apx.lemma1 import bruteforce_scan
from apx.report import cases_csv, frac_str, lemma1_csv, lemma2_csv, report_json


def test_frac_str_always_has_denominator():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(2) == "2/1"
    assert frac_str(Fraction(-1, 3)) == "-1/3"


def test_report_json_spells_domain_types():
    g = make_group([3, 5])
    s = SubsetMask.from_indices(g, [0, 3, 12])
    doc = report_json({"group": g, "set": s, "value": Fraction(1, 2), "n": 3})
    assert doc == '{"group":"3,5","n":3,"set":"{0,3,12}","value":"1/2"}'
    assert report_json([np.int64(7), np.float32(0.5)]) == "[7,0.5]"
    with pytest.raises(TypeError):
        report_json(object())


def test_report_json_sorts_keys_and_formats_floats():
    doc = report_json({"b": 1, "a": [0.1, 1.0, 2.5e-13], "c": None, "d": True})
    assert doc == '{"a":[0.1,1,2.5e-13],"b":1,"c":null,"d":true}'
    # int keys are spelled in decimal and sorted by that spelling
    assert report_json({1: "x", -1: "y", 10: "z"}) == '{"-1":"y","1":"x","10":"z"}'
    with pytest.raises(ValueError):
        report_json(float("nan"))
    with pytest.raises(TypeError):
        report_json({1.5: "float key"})
    with pytest.raises(TypeError):
        report_json({1: "a", "1": "b"})  # two keys with one spelling


def test_json_round_trip_is_identity():
    rep = verify_theorem2(6)
    doc = report_json(rep)
    assert report_json(json.loads(doc)) == doc
    rep2 = lemma2_scan(3, alpha_steps=5, eta_steps=4)
    doc2 = report_json(rep2)
    assert report_json(json.loads(doc2)) == doc2


def test_theorem2_csv_shape():
    rep = verify_theorem2(5)
    lines = cases_csv(rep).strip().split("\n")
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
