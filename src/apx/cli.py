"""Command-line frontend: compute, search, structure, and the verify suites.

Every verify subcommand exits 0 exactly when its suite reports zero
failures or violations, so the tool can gate CI runs. Reports go to
stdout or --out, as text, canonical JSON, or CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .bounds import GAMMA0, closure_bound, lemma2_scan, size_profile
from .counting import (
    SubsetMask,
    cayley_triangles_direct,
    cayley_triangles_formula,
    direct_prob,
    direct_t3,
    prob_from_s0,
)
from .errors import ApxError
from .fourier import prob_spectral, random_crosscheck, structure_report, t3_spectral
from .group import parse_group
from .lemma1 import bruteforce_scan
from .report import cases_csv, frac_str, lemma1_csv, lemma2_csv, report_json
from .search import extremal_search, verify_gls, verify_theorem1, verify_theorem2
from .util import as_fraction, resolve_threads


_FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    max_order: int | None = None  # the command's own default depth
    tolerance_spectral: float = 1e-9
    gamma0: Fraction = GAMMA0
    threads: int = 1
    output_format: str = "text"


def _output_format(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(f"output_format must be text, json or csv, got {value!r}")
    return value


_CONFIG_PARSERS = {
    "max_order": int,
    "tolerance_spectral": float,
    "gamma0": as_fraction,
    "threads": resolve_threads,
    "output_format": _output_format,
}


def load_config(path: str) -> dict:
    """Parse a key=value config file (# starts a comment)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_PARSERS[key](value)
    return values


def _resolve_config(args, max_order: int | None = None) -> RunConfig:
    """The command's defaults, then config file, then APX_THREADS, then flags."""
    cfg = RunConfig(max_order=max_order)
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    env_threads = os.environ.get("APX_THREADS")
    if env_threads:
        cfg = replace(cfg, threads=resolve_threads(env_threads))
    for key in ("threads", "output_format", "gamma0", "max_order"):
        value = getattr(args, key, None)
        if value is not None:
            cfg = replace(cfg, **{key: _CONFIG_PARSERS[key](value)})
    return cfg


def _parse_set(group, text: str) -> SubsetMask:
    try:
        indices = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad set notation {text!r}: {exc}") from None
    return SubsetMask.from_indices(group, indices)


# ---------------------------------------------------------------------------
# compute / structure / search
# ---------------------------------------------------------------------------


def _run_compute(args, cfg: RunConfig) -> dict:
    if args.structure and args.gamma is None:
        raise ValueError("--structure needs --gamma")
    if args.gamma is not None and not args.structure:
        raise ValueError("--gamma needs --structure")
    group = parse_group(args.group)
    s = _parse_set(group, args.set)
    if s.size == 0:
        raise ValueError("the set must be non-empty")
    n, d = group.order, s.size
    symmetric = s.is_symmetric
    cayley_valid = symmetric and not s.contains_zero
    odd = n % 2 == 1
    profile = size_profile(n, d)
    bound = closure_bound(profile.q, profile.alpha, cfg.gamma0)

    return {
        "group": group.label,
        "order": n,
        "set": s.label,
        "size": d,
        "symmetric": symmetric,
        "contains_zero": s.contains_zero,
        "prob_direct": direct_prob(s),
        "prob_spectral": prob_spectral(s) if symmetric else None,
        "t3_direct": direct_t3(s),
        "t3_spectral": t3_spectral(s) if odd else None,
        "cayley_valid": cayley_valid,
        "cayley_triangles_direct": cayley_triangles_direct(s) if cayley_valid else None,
        "cayley_triangles_formula": (
            cayley_triangles_formula(s) if cayley_valid else None
        ),
        "prob_from_s0": prob_from_s0(s) if cayley_valid else None,
        "size_profile": {"q": profile.q, "alpha": profile.alpha},
        "bound": {"value": bound.value, "branch": bound.active_branch},
        "structure": (
            structure_report(s, args.gamma, cfg.gamma0) if args.structure else None
        ),
    }


def _compute_text(report) -> str:
    lines = [
        f"group {report['group']} (order {report['order']}), set {report['set']}",
        f"size {report['size']}, symmetric: {report['symmetric']},"
        f" contains 0: {report['contains_zero']}",
        f"prob_direct = {frac_str(report['prob_direct'])}"
        + (
            f", prob_spectral = {report['prob_spectral']:.12g}"
            if report["prob_spectral"] is not None
            else " (spectral prob needs a symmetric set)"
        ),
        f"t3_direct = {report['t3_direct']}"
        + (
            f", t3_spectral = {report['t3_spectral']:.12g}"
            if report["t3_spectral"] is not None
            else " (spectral t3 reported for odd order only)"
        ),
    ]
    if report["cayley_valid"]:
        lines.append(
            f"cayley triangles = {report['cayley_triangles_direct']}"
            f" (formula route {report['cayley_triangles_formula']}),"
            f" prob via S0 = {frac_str(report['prob_from_s0'])}"
        )
    else:
        lines.append("cayley triangles: invalid (needs a symmetric set without 0)")
    prof = report["size_profile"]
    lines.append(
        f"size profile q = {prof['q']}, alpha = {frac_str(prof['alpha'])};"
        f" bound = {frac_str(report['bound']['value'])}"
        f" via {report['bound']['branch']}"
    )
    if report["structure"] is not None:
        lines.append(_structure_text(report["structure"]))
    return "\n".join(lines)


def _structure_text(rep) -> str:
    lines = [
        f"structure at gamma = {frac_str(rep.gamma)}:",
        f"  m0 = {rep.m0}, coefficient {rep.coeff_value:.12g},"
        f" g = {rep.g}, k = n/g = {rep.k}",
        f"  mu = {frac_str(rep.mu)}, nu = {frac_str(rep.nu)},"
        f" beta = {frac_str(rep.beta)}",
        f"  arc: {rep.arc_size} elements, mass {frac_str(rep.arc_mass)};"
        f" eta = {frac_str(rep.eta)}",
        f"  residue weights mod {rep.residue_weights.modulus}: "
        + ", ".join(
            f"a[{i}]={w}" for i, w in sorted(rep.residue_weights.weights.items())
        ),
    ]
    if rep.q_prime is not None:
        lines.append(
            f"  q' = {rep.q_prime}, alpha' = {frac_str(rep.alpha_prime)},"
            f" induction rhs = {frac_str(rep.induction_rhs)}"
        )
    else:
        lines.append("  kernel bucket empty: no induction parameters")
    return "\n".join(lines)


def _search_text(r) -> str:
    witnesses = ", ".join(w.label for w in r.witnesses)
    return "\n".join(
        [
            f"search {r.objective} on {r.group.label}, size {r.size}:"
            f" max = {frac_str(r.max_value)}",
            f"bound = {frac_str(r.bound.value)} via {r.bound.active_branch};"
            f" satisfied: {r.bound_satisfied}",
            f"enumerated {r.enumerated}, pruned {r.pruned_by_canon},"
            f" witnesses: {witnesses}",
        ]
    )


# ---------------------------------------------------------------------------
# verify subcommands and the command table
# ---------------------------------------------------------------------------


def _theorem2_text(r) -> str:
    lines = [
        f"theorem2: {r.groups} groups up to order {r.max_order},"
        f" {len(r.cases)} cases, {len(r.failures)} failures,"
        f" worst gap {frac_str(r.worst_gap)}"
    ]
    lines += [
        f"  FAIL {c.group} d={c.d}: max {frac_str(c.max_value)}"
        f" > bound {frac_str(c.bound)}"
        for c in r.failures
    ]
    return "\n".join(lines)


def _theorem1_text(r) -> str:
    gamma1 = (
        frac_str(r.empirical_gamma1)
        if r.empirical_gamma1 is not None
        else "none needed"
    )
    lines = [
        f"theorem1: {r.groups} odd-order groups up to {r.max_order},"
        f" {len(r.cases)} cases, {len(r.failures)} hard failures,"
        f" empirical gamma1: {gamma1}",
        f"  gamma1-regime cases: {len(r.gamma1_cases)},"
        f" worst gap to 1: {frac_str(r.worst_gap)}",
    ]
    lines += [
        f"  FAIL {c.group} d={c.d}: density {frac_str(c.max_density)} > 1"
        for c in r.failures
    ]
    return "\n".join(lines)


def _gls_text(r) -> str:
    lines = [
        f"gls: {r.groups} groups up to order {r.max_order},"
        f" {r.sets_total} connection sets ({r.asserted_sets} asserted),"
        f" {len(r.failures)} failures, {len(r.logged)} logged cases"
    ]
    lines += [
        f"  FAIL {c.group} d={c.d}: {c.max_triangles} triangles > bound {c.bound}"
        for c in r.failures
    ]
    held = sum(1 for c in r.logged if c.holds)
    lines.append(f"  logged (q < 7) cases holding empirically: {held}/{len(r.logged)}")
    return "\n".join(lines)


def _lemma1_text(r) -> str:
    lines = [
        f"lemma1: d_max {r.d_max}, radius {r.radius}, eps {frac_str(r.eps)}:"
        f" {r.checked} sequences, {len(r.violations)} violations"
    ]
    lines += [
        f"  VIOLATION weights {v.weights} (d={v.d}):"
        f" min-product {v.min_product}, center {v.weights[r.radius]}"
        for v in r.violations
    ]
    return "\n".join(lines)


def _lemma2_text(r) -> str:
    lines = [
        f"lemma2: q up to {r.q_max}, {r.alpha_steps} alpha points,"
        f" {r.eta_steps} eta points: {r.points} evaluations,"
        f" {len(r.violations)} violations, {len(r.equalities)} equalities"
    ]
    lines += [
        f"  VIOLATION q={p.q} alpha={frac_str(p.alpha)} k={p.k}"
        f" eta={frac_str(p.eta)}: lhs {frac_str(p.lhs)} > rhs {frac_str(p.rhs)}"
        for p in r.violations
    ]
    return "\n".join(lines)


def _fourier_text(r) -> str:
    lines = [
        f"fourier: {r.trials} random symmetric sets"
        f" ({r.odd_order_trials} odd-order), seed {r.seed}:"
        f" {'PASS' if r.passed else 'FAIL'}",
        f"  max prob error {r.max_prob_error:.3e} (tol {r.tol_prob:.1e});"
        f" max t3 error {r.max_t3_error:.3e} (tol {r.tol_t3:.1e})",
        f"  max plancherel residual {r.max_plancherel_residual:.3e}"
        f" (tol {r.tol_plancherel:.1e});"
        f" max symmetric imag {r.max_symmetric_imag:.3e}",
    ]
    lines += [f"  FAIL {f}" for f in r.failures]
    return "\n".join(lines)


class _Command(NamedTuple):
    """How one command runs, judges and prints its report."""

    run: Callable  # (args, cfg) -> report
    ok: Callable  # report -> bool; False makes the exit status 1
    text: Callable  # report -> str
    csv: Callable | None  # report -> str; None: no CSV form
    max_order: int | None  # default --max-order; None: no such flag


def _always(report) -> bool:
    return True


# The run lambdas look the library functions up when called, not at import,
# so wrappers installed on this module's attributes see every call.
_COMMANDS = {
    "compute": _Command(_run_compute, _always, _compute_text, None, None),
    "structure": _Command(
        lambda a, c: structure_report(_parse_set(parse_group(a.group), a.set), a.gamma),
        _always, _structure_text, None, None,
    ),
    "search": _Command(
        lambda a, c: extremal_search(
            parse_group(a.group), a.size, a.objective, canonicalize=a.canonicalize,
            witness_cap=a.witness_cap, gamma0=c.gamma0,
        ),
        _always, _search_text, None, None,
    ),
    # verify subcommands: exit 1 on any failure or violation
    "theorem2": _Command(
        lambda a, c: verify_theorem2(c.max_order, gamma0=c.gamma0, threads=c.threads),
        lambda r: not r.failures, _theorem2_text,
        cases_csv, 15,
    ),
    "theorem1": _Command(
        lambda a, c: verify_theorem1(c.max_order, threads=c.threads),
        lambda r: not r.failures, _theorem1_text,
        cases_csv, 15,
    ),
    "gls": _Command(
        lambda a, c: verify_gls(c.max_order, threads=c.threads),
        lambda r: not r.failures, _gls_text,
        cases_csv, 16,
    ),
    "lemma1": _Command(
        lambda a, c: bruteforce_scan(a.d_max, a.radius, a.eps, threads=c.threads),
        lambda r: not r.violations, _lemma1_text, lemma1_csv, None,
    ),
    "lemma2": _Command(
        lambda a, c: lemma2_scan(
            a.q_max, a.alpha_steps, a.eta_steps, gamma0=c.gamma0, threads=c.threads
        ),
        lambda r: not r.violations, _lemma2_text, lemma2_csv, None,
    ),
    "fourier": _Command(
        lambda a, c: random_crosscheck(
            a.sets, c.max_order, a.max_factors, a.seed,
            c.tolerance_spectral, a.tol_t3, a.tol_plancherel,
        ),
        lambda r: r.passed, _fourier_text, None, 512,
    ),
}


def _run_command(args) -> int:
    """Resolve the config, run the command, write its report, return the exit code."""
    spec = _COMMANDS[args.suite if args.command == "verify" else args.command]
    cfg = _resolve_config(args, spec.max_order)
    report = spec.run(args, cfg)
    if cfg.output_format == "json":
        payload = report_json(report)
    elif cfg.output_format == "csv":
        if spec.csv is None:
            raise ValueError("this command has no CSV form")
        payload = spec.csv(report)
    else:
        payload = spec.text(report)
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if spec.ok(report) else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


_FLAGS = {
    "--max-order": dict(type=int, dest="max_order", help="largest group order"),
    "--threads": dict(help="worker count or 'auto'"),
    "--gamma0": dict(help="override the constant floor (rational)"),
}


def _add_common(parser: argparse.ArgumentParser, *extra: str) -> None:
    """--config, --format and --out, plus the named flags from _FLAGS."""
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--format", dest="output_format", choices=_FORMATS, help="output format"
    )
    parser.add_argument("--out", help="write the report to a file")
    for flag in extra:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apx",
        description=(
            "Exact counting, spectral cross-checks and bound verification"
            " for subsets of finite abelian groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="all quantities for one explicit set")
    p.add_argument("--group", required=True, help="comma-separated moduli, e.g. 3,5")
    p.add_argument("--set", required=True, help="comma-separated element indices")
    p.add_argument("--structure", action="store_true", help="attach the diagnostics")
    p.add_argument("--gamma", help="probed probability for --structure")
    _add_common(p, "--gamma0")

    p = sub.add_parser("search", help="exact extremal search at one size")
    p.add_argument("--group", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--objective", choices=["prob", "t3density"], default="prob")
    p.add_argument("--canonicalize", action="store_true")
    p.add_argument("--witness-cap", type=int, default=10)
    _add_common(p, "--gamma0")

    p = sub.add_parser("structure", help="spectral concentration diagnostics")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--gamma", required=True, help="probed probability in (d/n, 1]")
    _add_common(p)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("theorem2", help="sum-closure bound, exhaustive")
    _add_common(p, "--max-order", "--threads", "--gamma0")

    p = vsub.add_parser("theorem1", help="progression density, odd orders")
    _add_common(p, "--max-order", "--threads")

    p = vsub.add_parser("gls", help="Cayley triangle ceiling")
    _add_common(p, "--max-order", "--threads")

    p = vsub.add_parser("lemma1", help="min-product concentration scan")
    p.add_argument("--d-max", type=int, dest="d_max", default=12)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--eps", default="99/1000")
    _add_common(p, "--threads")

    p = vsub.add_parser("lemma2", help="induction inequality grid scan")
    p.add_argument("--q-max", type=int, dest="q_max", default=20)
    p.add_argument("--alpha-steps", type=int, dest="alpha_steps", default=101)
    p.add_argument("--eta-steps", type=int, dest="eta_steps", default=51)
    _add_common(p, "--threads", "--gamma0")

    p = vsub.add_parser("fourier", help="random spectral-vs-direct crosscheck")
    p.add_argument("--sets", type=int, default=1000)
    p.add_argument("--max-factors", type=int, dest="max_factors", default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol-t3", type=float, dest="tol_t3", default=1e-6)
    p.add_argument(
        "--tol-plancherel", type=float, dest="tol_plancherel", default=1e-10
    )
    _add_common(p, "--max-order")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ApxError, ValueError, OSError) as exc:
        print(f"apx: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
