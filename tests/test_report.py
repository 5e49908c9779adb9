import json
from dataclasses import dataclass
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


class _Count(int):
    def __str__(self):
        return "not a digit"


class _Name(str):
    def __str__(self):
        return "not the text"


class _Ratio(Fraction):
    def __str__(self):
        return "not p/q"


@dataclass
class _Mixed:
    flag: bool
    count: np.int64
    share: np.float64
    tally: _Count
    name: _Name
    value: Fraction
    missing: object
    buckets: dict
    group: object
    ratio: _Ratio


def test_report_json_spells_every_leaf_type_as_before():
    # Exact str, int and Fraction leaves are looked up by type; bool, numpy
    # scalars and subclasses take the isinstance chain. The expected bytes
    # are those of the writer before the lookup existed.
    mixed = _Mixed(
        True, np.int64(-7), np.float64(0.1), _Count(12), _Name('a"b'), Fraction(-3, 9),
        None, {10: Fraction(1, 2), 2: [False, _Count(3)], -1: {"x": _Name("y")}},
        make_group([2, 6]), _Ratio(2, 4),
    )
    doc = (
        '{"buckets":{"-1":{"x":"y"},"10":"1/2","2":[false,3]},"count":-7,"flag":true,'
        '"group":"2,6","missing":null,"name":"a\\"b","ratio":"1/2","share":0.1,"tally":12,'
        '"value":"-1/3"}'
    )
    assert report_json(mixed) == doc
    # One Fraction object written at several places reads the same each time.
    assert report_json([mixed, mixed.value, mixed.value]) == f'[{doc},"-1/3","-1/3"]'
    for bad in (np.bool_(True), _Mixed(np.bool_(False), *[None] * 9)):
        with pytest.raises(TypeError, match="bool"):
            report_json(bad)


class _FreshFractions(tuple):
    """Makes each item as it is read; the writer then holds the only reference."""

    def __iter__(self):
        return (Fraction(i, 7) for i in range(1, 6))


class _FreshRecords(tuple):
    def __iter__(self):
        return ({"v": Fraction(i, 7)} for i in range(1, 6))


def test_report_json_spells_each_fresh_fraction_by_its_value():
    # A freed Fraction's id() can be handed to the next one, so no spelling
    # may be looked up by id.
    assert report_json(_FreshFractions()) == '["1/7","2/7","3/7","4/7","5/7"]'
    assert report_json(_FreshRecords()) == (
        '[{"v":"1/7"},{"v":"2/7"},{"v":"3/7"},{"v":"4/7"},{"v":"5/7"}]'
    )
