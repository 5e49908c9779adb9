"""Write reference.json: the exact results the correctness gate expects.

Run from the repository root on a trusted commit:

    PYTHONPATH=src python3 perfbench/capture_reference.py

It runs the exhaustive and scans calls once and keeps, per case, the max
value and bound (exhaustive) and the point, equality and checked counts
(scans).  Witness sets are not stored: the gate re-scores each reported
witness with the counting oracles instead, so a change of witness rule
does not trip it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from apx.cli import main


def _report(argv) -> dict:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        out = Path(tmp) / "report.json"
        code = main(list(argv) + ["--format", "json", "--out", str(out)])
        if code != 0:
            sys.exit(f"reference call {' '.join(argv)} exited {code}")
        return json.loads(out.read_text(encoding="utf-8"))


def capture() -> dict:
    argv = {
        call.kind: call.argv
        for name in ("exhaustive", "scans")
        for call in workloads.build(name, seed=0)
    }
    t1 = _report(argv["verify theorem1"])
    t2 = _report(argv["verify theorem2"])
    gls = _report(argv["verify gls"])
    lemma2 = _report(argv["verify lemma2"])
    lemma1 = _report(argv["verify lemma1"])
    return {
        "theorem1": {"cases": [[c["group"], c["d"], c["max_density"], c["term_bound"]]
                               for c in t1["cases"]]},
        "theorem2": {"cases": [[c["group"], c["d"], c["max_value"], c["bound"]]
                               for c in t2["cases"]]},
        "gls": {"cases": [[c["group"], c["d"], c["max_triangles"], c["bound"], c["sets"]]
                          for c in gls["cases"]]},
        "lemma2": {"points": lemma2["points"], "equalities": len(lemma2["equalities"])},
        "lemma1": {"checked": lemma1["checked"]},
    }


if __name__ == "__main__":
    workloads.REFERENCE.write_text(
        json.dumps(capture(), separators=(",", ":")) + "\n", encoding="utf-8"
    )
