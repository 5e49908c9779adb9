"""Byte-equality of CLI reports against outputs stored in tests/golden/.

Each call's stdout is kept in tests/golden/<name>.txt. To re-record them
after an intended report change, run `python tests/test_golden.py` with
`src` on the import path and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from apx.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SUITES = {
    "theorem2": ("verify", "theorem2", "--max-order", "8"),
    "theorem1": ("verify", "theorem1", "--max-order", "9"),
    "gls": ("verify", "gls", "--max-order", "8"),
}

# (name, argv, expected exit code)
CALLS = [
    (f"{suite}_{fmt}", argv + ("--format", fmt), 0)
    for suite, argv in _SUITES.items()
    for fmt in ("text", "json", "csv")
] + [
    ("lemma1_pass_text", ("verify", "lemma1", "--d-max", "10"), 0),
    ("lemma1_pass_json", ("verify", "lemma1", "--d-max", "10", "--format", "json"), 0),
    ("lemma1_eps_text", ("verify", "lemma1", "--d-max", "9", "--radius", "1",
                         "--eps", "2/9"), 1),
    ("lemma1_eps_json", ("verify", "lemma1", "--d-max", "9", "--radius", "1",
                         "--eps", "2/9", "--format", "json"), 1),
    ("lemma1_eps_csv", ("verify", "lemma1", "--d-max", "9", "--radius", "1",
                        "--eps", "2/9", "--format", "csv"), 1),
    ("lemma2_text", ("verify", "lemma2", "--q-max", "3", "--alpha-steps", "9",
                     "--eta-steps", "5"), 0),
    ("lemma2_json", ("verify", "lemma2", "--q-max", "3", "--alpha-steps", "9",
                     "--eta-steps", "5", "--format", "json"), 0),
    ("fourier_text", ("verify", "fourier", "--sets", "20", "--max-order", "64"), 0),
    ("fourier_json", ("verify", "fourier", "--sets", "20", "--max-order", "64",
                      "--format", "json"), 0),
    ("compute_text", ("compute", "--group", "3,5", "--set", "1,3,5,10,12,14"), 0),
    ("compute_json", ("compute", "--group", "3,5", "--set", "1,3,5,10,12,14",
                      "--format", "json"), 0),
    ("compute_structure_text", ("compute", "--group", "15", "--set", "0,5,10",
                                "--structure", "--gamma", "1"), 0),
    ("compute_structure_json", ("compute", "--group", "15", "--set", "0,5,10",
                                "--structure", "--gamma", "1", "--format", "json"), 0),
    ("structure_text", ("structure", "--group", "21", "--set", "1,3,7,14,18,20",
                        "--gamma", "1/2"), 0),
    ("structure_json", ("structure", "--group", "21", "--set", "1,3,7,14,18,20",
                        "--gamma", "1/2", "--format", "json"), 0),
    ("structure_empty_kernel_text", ("structure", "--group", "4", "--set", "1,3",
                                     "--gamma", "1"), 0),
    ("structure_empty_kernel_json", ("structure", "--group", "4", "--set", "1,3",
                                     "--gamma", "1", "--format", "json"), 0),
    ("search_text", ("search", "--group", "15", "--size", "6", "--objective",
                     "t3density", "--canonicalize"), 0),
    ("search_json", ("search", "--group", "3,3", "--size", "4", "--canonicalize",
                     "--format", "json"), 0),
]


def run_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,expected_code", CALLS, ids=[c[0] for c in CALLS])
def test_golden_output(name, argv, expected_code):
    code, out = run_call(argv)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, expected_code in CALLS:
        code, out = run_call(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.txt").write_bytes(out.encode("utf-8"))
