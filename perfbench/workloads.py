"""The benchmark's workloads: fixed lists of `apx` CLI calls and their checks.

Each workload is a list of `Call`s run closed-loop (the next call starts
after the previous one returns).  A call carries the argv handed to
`apx.cli.main` (the benchmark adds `--format json --out FILE`) and a check
that returns the list of problems found in the parsed JSON report.

- exhaustive: the paper's machine checks (theorem1, theorem2, gls) on
  every small group, fanned out over min(2, nproc) workers.
- large-groups: the spectral cross-check at --seed, then a stream of
  `apx compute` calls on seeded random groups and symmetric 0-free sets.
  The orders are stratified (COMPUTE_STRATA), so a new seed changes the
  groups and sets but not the size mix; p50 falls inside the order-128
  stratum and p90 inside the order-512 stratum.
- scans: the lemma2 grid scan and the lemma1 brute-force scan; no group
  tables at all.

Exhaustive and scans take no random input; their seed is only recorded.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from apx.counting import SubsetMask, cayley_triangles_direct, direct_prob, direct_t3
from apx.group import parse_group

WORKLOADS = ("exhaustive", "large-groups", "scans")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (order, calls per pass) for the compute stream of large-groups.
COMPUTE_STRATA = ((16, 5), (32, 5), (64, 5), (96, 5), (128, 10), (256, 5), (384, 5), (512, 10))

FOURIER_SETS = 1000
TOL_PROB = 1e-9  # apx defaults for tolerance_spectral and --tol-t3
TOL_T3 = 1e-6


@dataclass(frozen=True)
class Call:
    kind: str  # "verify theorem1", "compute", ...
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def threads_for_exhaustive() -> int:
    return min(2, os.cpu_count() or 1)


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of `workload` at `seed`."""
    if workload == "exhaustive":
        threads = str(threads_for_exhaustive())
        return [
            Call("verify theorem1",
                 ("verify", "theorem1", "--max-order", "17", "--threads", threads),
                 lambda rep: check_theorem1(rep, _reference()["theorem1"])),
            Call("verify theorem2",
                 ("verify", "theorem2", "--max-order", "18", "--threads", threads),
                 lambda rep: check_theorem2(rep, _reference()["theorem2"])),
            Call("verify gls",
                 ("verify", "gls", "--max-order", "16", "--threads", threads),
                 lambda rep: check_gls(rep, _reference()["gls"])),
        ]
    if workload == "large-groups":
        calls = [
            Call("verify fourier",
                 ("verify", "fourier", "--sets", str(FOURIER_SETS), "--max-order", "512",
                  "--seed", str(seed)),
                 lambda rep: check_fourier(rep, seed)),
        ]
        return calls + compute_stream(seed)
    if workload == "scans":
        return [
            Call("verify lemma2",
                 ("verify", "lemma2", "--q-max", "20", "--alpha-steps", "101",
                  "--eta-steps", "51"),
                 lambda rep: check_lemma2(rep, _reference()["lemma2"])),
            Call("verify lemma1",
                 ("verify", "lemma1", "--d-max", "20", "--radius", "5", "--eps", "99/1000"),
                 lambda rep: check_lemma1(rep, _reference()["lemma1"])),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


@functools.lru_cache(maxsize=1)
def _reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Seeded inputs for the compute stream.
# ---------------------------------------------------------------------------


def compute_stream(seed: int) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    for order, count in COMPUTE_STRATA:
        for _ in range(count):
            moduli = _random_moduli(rng, order)
            elements = _symmetric_zero_free_set(rng, moduli)
            group = ",".join(map(str, moduli))
            argv = ("compute", "--group", group, "--set", ",".join(map(str, elements)))
            calls.append(
                Call("compute", argv,
                     lambda rep, g=group, n=order, e=elements: check_compute(rep, g, n, e))
            )
    rng.shuffle(calls)
    return calls


def _random_moduli(rng: random.Random, order: int) -> list[int]:
    """A random presentation of some abelian group of `order` with rank 1 to 3."""
    moduli = []
    rest = order
    for _ in range(rng.randint(1, 3) - 1):
        choices = [f for f in range(2, rest) if rest % f == 0]
        if not choices:
            break
        factor = rng.choice(choices)
        moduli.append(factor)
        rest //= factor
    moduli.append(rest)
    rng.shuffle(moduli)
    return moduli


def _neg(index: int, moduli: list[int]) -> int:
    """-x in the mixed-radix encoding (first factor fastest)."""
    out, stride = 0, 1
    for m in moduli:
        out += stride * ((-(index // stride)) % m)
        stride *= m
    return out


def _symmetric_zero_free_set(rng: random.Random, moduli: list[int]) -> list[int]:
    order = 1
    for m in moduli:
        order *= m
    density = rng.uniform(0.05, 0.5)
    chosen: set[int] = set()
    for x in range(1, order):
        y = _neg(x, moduli)
        if x <= y and rng.random() < density:
            chosen.update((x, y))
    if not chosen:
        x = rng.randrange(1, order)
        chosen.update((x, _neg(x, moduli)))
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means correct.
# ---------------------------------------------------------------------------


def _witness(group_label: str, label: str) -> SubsetMask:
    group = parse_group(group_label)
    body = label.strip("{}")
    indices = [int(part) for part in body.split(",")] if body else []
    return SubsetMask.from_indices(group, indices)


def _compare_cases(name, cases, ref_cases, fields) -> list[str]:
    got = {(c["group"], c["d"]): [c[f] for f in fields] for c in cases}
    want = {(g, d): rest for g, d, *rest in ref_cases}
    if got.keys() != want.keys():
        return [f"{name}: case set differs from the reference"
                f" ({len(got)} cases, reference {len(want)})"]
    return [
        f"{name} {g} d={d}: {dict(zip(fields, got[g, d]))} != reference {want[g, d]}"
        for g, d in sorted(want)
        if got[g, d] != want[g, d]
    ]


def check_theorem1(rep: dict, ref: dict) -> list[str]:
    problems = [f"theorem1 failure: {c}" for c in rep["failures"]]
    problems += _compare_cases("theorem1", rep["cases"], ref["cases"],
                               ("max_density", "term_bound"))
    for c in rep["cases"]:
        s = _witness(c["group"], c["witness"])
        if s.size != c["d"] or Fraction(direct_t3(s), s.size ** 2) != Fraction(c["max_density"]):
            problems.append(f"theorem1 witness {c['witness']} on {c['group']} misses its max")
    return problems


def check_theorem2(rep: dict, ref: dict) -> list[str]:
    problems = [f"theorem2 failure: {c}" for c in rep["failures"]]
    problems += _compare_cases("theorem2", rep["cases"], ref["cases"], ("max_value", "bound"))
    for c in rep["cases"]:
        s = _witness(c["group"], c["witness"])
        if (s.size != c["d"] or not s.is_symmetric
                or direct_prob(s) != Fraction(c["max_value"])):
            problems.append(f"theorem2 witness {c['witness']} on {c['group']} misses its max")
    return problems


def check_gls(rep: dict, ref: dict) -> list[str]:
    problems = [f"gls failure: {c}" for c in rep["failures"]]
    problems += _compare_cases("gls", rep["cases"], ref["cases"],
                               ("max_triangles", "bound", "sets"))
    for c in rep["cases"]:
        s = _witness(c["group"], c["witness"])
        if s.size != c["d"] or cayley_triangles_direct(s) != c["max_triangles"]:
            problems.append(f"gls witness {c['witness']} on {c['group']} misses its max")
    return problems


def check_lemma2(rep: dict, ref: dict) -> list[str]:
    problems = [f"lemma2 violation: {p}" for p in rep["violations"]]
    got = {"points": rep["points"], "equalities": len(rep["equalities"])}
    if got != ref:
        problems.append(f"lemma2: {got} != reference {ref}")
    return problems


def check_lemma1(rep: dict, ref: dict) -> list[str]:
    problems = [f"lemma1 violation: {v}" for v in rep["violations"]]
    if rep["checked"] != ref["checked"]:
        problems.append(f"lemma1: checked {rep['checked']} != reference {ref['checked']}")
    return problems


def check_fourier(rep: dict, seed: int) -> list[str]:
    problems = [f"fourier failure: {f}" for f in rep["failures"]]
    if (rep["trials"], rep["seed"]) != (FOURIER_SETS, seed):
        problems.append(f"fourier: ran {rep['trials']} trials at seed {rep['seed']}")
    if rep["odd_order_trials"] < FOURIER_SETS // 2:  # every other trial forces odd order
        problems.append(f"fourier: only {rep['odd_order_trials']} odd-order trials")
    if rep["max_prob_error"] > rep["tol_prob"] or rep["max_t3_error"] > rep["tol_t3"]:
        problems.append("fourier: spectral error above tolerance")
    return problems


def check_compute(rep: dict, group: str, order: int, elements: list[int]) -> list[str]:
    """The report must describe the requested set and agree across routes."""
    label = "{" + ",".join(map(str, elements)) + "}"
    where = f"compute {group} |S|={len(elements)}"
    problems = []
    header = (rep["group"], rep["order"], rep["set"], rep["size"], rep["symmetric"],
              rep["contains_zero"], rep["cayley_valid"])
    if header != (group, order, label, len(elements), True, False, True):
        return [f"{where}: report describes another set: {header}"]
    prob = Fraction(rep["prob_direct"])
    if rep["cayley_triangles_direct"] != rep["cayley_triangles_formula"]:
        problems.append(f"{where}: triangle routes disagree")
    if Fraction(rep["prob_from_s0"]) != prob:
        problems.append(f"{where}: prob_from_s0 != prob_direct")
    if abs(rep["prob_spectral"] - float(prob)) > TOL_PROB:
        problems.append(f"{where}: spectral prob off by more than {TOL_PROB}")
    if order % 2 == 1 and abs(rep["t3_spectral"] - rep["t3_direct"]) > TOL_T3:
        problems.append(f"{where}: spectral t3 off by more than {TOL_T3}")
    return problems
