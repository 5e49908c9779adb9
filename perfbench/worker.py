"""One workload run in a fresh interpreter; started by run.py.

Runs passes of the workload's call list until the time budget is spent,
checks every report, and prints one JSON object on its last stdout line.
With --trace 1 the passes alternate traced and untraced (traced first):
per-layer metrics come from the traced passes, end-to-end times from the
untraced ones, and their difference is the tracing overhead.

With --probe it only imports apx and numpy, builds the CLI parser and
prints "ready": run.py times that as the set-up of a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Counts that must repeat exactly between traced passes and traced runs
# with the same seed.
EXACT_COUNTS = (
    "group.table_builds",
    "bounds.lemma2.adjudications",
    "search.sets_evaluated",
    "report.bytes",
)

CALL_METRICS = (
    "verify_theorem1_s", "verify_theorem2_s", "verify_gls_s", "verify_fourier_s",
    "compute_p50_ms", "compute_p90_ms", "verify_lemma2_s", "verify_lemma1_s",
)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _apx_modules() -> dict:
    import apx
    from apx import bounds, cli, counting, fourier, group, lemma1, report, search, util

    origin = Path(apx.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"apx imported from {origin}, not from {ROOT / 'src'}")
    return {
        "group": group, "counting": counting, "search": search, "util": util,
        "bounds": bounds, "lemma1": lemma1, "fourier": fourier, "report": report,
        "cli": cli,
    }


def _lru_caches(modules: dict) -> list:
    return [
        value
        for module in modules.values()
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and hasattr(value, "cache_info")
    ]


class Runner:
    def __init__(self, calls, modules, out_dir: Path):
        self.calls = calls
        self.cli = modules["cli"]
        self.caches = _lru_caches(modules)
        self.out = out_dir / "report.json"
        self.failures: list[str] = []
        self.attempted = 0

    def run_pass(self, tracer=None) -> dict:
        """Run every call once; return per-call times and pass totals."""
        durations: dict[str, list[float]] = {}
        report_bytes = 0
        cpu0 = _cpu_s()
        start = time.perf_counter()
        for call in self.calls:
            # Each `apx` invocation starts with cold caches, as a fresh CLI
            # process would; this also makes every pass do the same work.
            for cache in self.caches:
                cache.cache_clear()
            self.out.unlink(missing_ok=True)
            self.attempted += 1
            argv = list(call.argv) + ["--format", "json", "--out", str(self.out)]
            if tracer is not None:
                tracer.context = call.kind
                tracer.active = True
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.active = False
            durations.setdefault(call.kind, []).append(time.perf_counter() - t0)
            problems = self._check(call, code)
            if problems:
                self.failures.append(f"{' '.join(call.argv)[:120]}: {problems[:3]}")
            report_bytes += self.out.stat().st_size if self.out.exists() else 0
        return {
            "wall_s": time.perf_counter() - start,
            "cpu_s": _cpu_s() - cpu0,
            "durations": durations,
            "report_bytes": report_bytes,
        }

    def _check(self, call, code) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        try:
            return call.check(json.loads(self.out.read_text(encoding="utf-8")))
        except Exception as exc:  # a report the check cannot read is a failure
            return [f"unreadable report: {exc!r}"]


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else _median(values)


def layer_metrics(tracer, pass_result) -> dict:
    """Per-layer metrics of one traced pass."""
    funcs, counters = tracer.funcs, tracer.counters

    def calls(name):
        return sum(v[0] for (_, n), v in funcs.items() if n == name)

    def incl(name, context=None):
        return sum(v[1] for (c, n), v in funcs.items()
                   if n == name and context in (None, c))

    def self_s(prefix):
        return sum(v[2] for (_, n), v in funcs.items() if n.startswith(prefix))

    def count(name):
        return sum(v for (_, n), v in counters.items() if n == name)

    def ratio(num, den):
        return num / den if den else 0.0

    builds = count("group.add_table.misses") + count("group.sub_table.misses")
    hits = count("group.add_table.hits") + count("group.sub_table.hits")
    decode_calls = calls("counting.SubsetMask.indices")
    enumerated = count("search.sets_enumerated")
    evaluated = count("search.sets_evaluated")
    t3_calls = calls("counting.direct_t3")
    prob_calls = calls("counting.direct_prob")
    points = count("bounds.lemma2.points")
    adjudications = calls("bounds.lemma2_check")

    shares = []
    by_suite: dict[str, list[float]] = {}
    for (context, name), value in counters.items():
        if name.startswith("group_s|"):
            by_suite.setdefault(context, []).append(value)
    for times in by_suite.values():
        shares.append(ratio(max(times), sum(times)))

    return {
        "group.table_builds": builds,
        "group.table_build_s": count("group.add_table.miss_s") + count("group.sub_table.miss_s"),
        "group.table_hit_ratio": ratio(hits, hits + builds),
        "group.table_bytes_built": count("group.table_bytes_built"),
        "counting.decode_calls": decode_calls,
        "counting.decode_s": incl("counting.SubsetMask.indices"),
        "counting.decode_per_set": ratio(decode_calls, evaluated),
        "counting.direct_t3.calls": t3_calls,
        "counting.direct_t3.us_per_call": 1e6 * ratio(incl("counting.direct_t3"), t3_calls),
        "counting.direct_prob.calls": prob_calls,
        "counting.direct_prob.us_per_call": 1e6 * ratio(incl("counting.direct_prob"), prob_calls),
        "counting.cayley_direct.calls": calls("counting.cayley_triangles_direct"),
        "counting.cayley_direct.s": incl("counting.cayley_triangles_direct"),
        "counting.cayley_direct.ops_computed": count("counting.cayley_direct.ops_computed"),
        "search.sets_enumerated": enumerated,
        "search.sets_evaluated": evaluated,
        "search.evaluated_ratio": ratio(evaluated, enumerated),
        "search.self_s": self_s("search."),
        "search.verify_gls_s": incl("search.verify_gls"),
        "search.largest_group_share": max(shares, default=0.0),
        "util.pmap.workers": max((v for (_, n), v in counters.items()
                                  if n == "util.pmap.workers"), default=0),
        "util.pmap.wall_s": count("util.pmap.wall_s"),
        "util.pmap.child_cpu_s": count("util.pmap.child_cpu_s"),
        "util.pmap.efficiency": ratio(count("util.pmap.cpu_s"),
                                      count("util.pmap.worker_wall_s")),
        "bounds.lemma2.points": points,
        "bounds.lemma2.adjudications": adjudications,
        "bounds.lemma2.screen_pass_ratio": ratio(adjudications, points),
        "bounds.lemma2.adjudication_yield": ratio(count("bounds.lemma2.decided"), adjudications),
        "bounds.lemma2.screen_s": self_s("bounds._scan_one_q"),
        "bounds.lemma2.exact_s": incl("bounds.lemma2_check"),
        "lemma1.sequences": count("lemma1.sequences"),
        "lemma1.min_product_sum_s": incl("lemma1.min_product_sum"),
        "lemma1.scan_s": incl("lemma1.bruteforce_scan"),
        "fourier.dft_calls": calls("fourier.dft_indicator"),
        "fourier.dft_s": incl("fourier.dft_indicator"),
        "fourier.crosscheck_oracle_s": incl("counting.direct_prob", "verify fourier")
        + incl("counting.direct_t3", "verify fourier"),
        "report.serialize_s": sum(v for (_, m), v in tracer.entry_s.items() if m == "report"),
        "report.bytes": pass_result["report_bytes"],
    }


def _context_counts(tracer) -> dict:
    """Table builds per CLI call kind (e.g. the 992 of `verify fourier` at seed 7)."""
    out: dict[str, float] = {}
    for (context, name), value in tracer.counters.items():
        if name in ("group.add_table.misses", "group.sub_table.misses"):
            out[context] = out.get(context, 0) + value
    return out


def run(args) -> dict:
    modules = _apx_modules()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracer import TRACER

    calls = workloads.build(args.workload, args.seed)
    args.tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(calls, modules, args.tmp)
    untraced, traced, layers, trace_dump = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        traced_pass = args.trace and len(traced) <= len(untraced)
        t0 = time.perf_counter()
        if traced_pass:
            TRACER.reset()
            TRACER.install(modules)
            try:
                result = runner.run_pass(TRACER)
            finally:
                TRACER.uninstall()
            traced.append(result)
            layers.append(layer_metrics(TRACER, result))
            trace_dump.append({
                "table_builds_by_call": _context_counts(TRACER),
                "functions": [[c, n, *v] for (c, n), v in sorted(TRACER.funcs.items())],
                "spans": TRACER.spans,
            })
        else:
            untraced.append(runner.run_pass())
        longest = max(longest, time.perf_counter() - t0)
        # Untraced runs need two passes for 100 compute samples in
        # large-groups; traced runs need one pass of each kind.
        enough = len(untraced) >= (1 if args.trace else 2) and (not args.trace or traced)
        if enough and time.perf_counter() + longest > deadline:
            break

    e2e = end_to_end(args.workload, untraced)
    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "peak_rss_mb": _peak_rss_mb(),
        "end_to_end": e2e,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "threads": workloads.threads_for_exhaustive(),
        },
    }
    if args.trace:
        mismatched = [
            name for name in EXACT_COUNTS
            if len({layer[name] for layer in layers}) > 1
        ]
        per_layer = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
        traced_wall = _median([p["wall_s"] for p in traced])
        per_layer["tracing.overhead_s"] = traced_wall - e2e["wall_s"]
        per_layer["tracing.overhead_ratio"] = traced_wall / e2e["wall_s"] - 1.0
        # The per-call times of the untraced passes, 0 where a call is not run.
        for name in CALL_METRICS:
            per_layer["cli." + name] = e2e.get(name, 0.0)
        result["per_layer"] = per_layer
        result["exact_counts"] = {name: layers[0][name] for name in EXACT_COUNTS}
        result["exact_count_mismatch"] = mismatched
        result["table_builds_by_call"] = trace_dump[0]["table_builds_by_call"]
        trace_file = args.tmp.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "machine": result["machine"],
            "span_fields": ["id", "parent", "name", "start", "end", "pid"],
            "function_fields": ["call", "name", "calls", "inclusive_s", "self_s"],
            "traced_passes": trace_dump,
        }), encoding="utf-8")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def end_to_end(workload: str, passes: list[dict]) -> dict:
    """Medians over untraced passes, keyed by the names the issue uses."""

    def call_median(kind):
        return _median([d for p in passes for d in p["durations"].get(kind, [])])

    out = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
    }
    if workload == "exhaustive":
        out["verify_theorem1_s"] = call_median("verify theorem1")
        out["verify_theorem2_s"] = call_median("verify theorem2")
        out["verify_gls_s"] = call_median("verify gls")
    elif workload == "large-groups":
        compute = [d for p in passes for d in p["durations"]["compute"]]
        out["verify_fourier_s"] = call_median("verify fourier")
        out["compute_p50_ms"] = 1000 * _median(compute)
        out["compute_p90_ms"] = 1000 * _p90(compute)
        out["compute_samples"] = len(compute)
    elif workload == "scans":
        out["verify_lemma2_s"] = call_median("verify lemma2")
        out["verify_lemma1_s"] = call_median("verify lemma1")
    return out


def probe() -> None:
    import numpy  # noqa: F401
    from apx import cli

    cli.build_parser()
    print("ready", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path)
    args = parser.parse_args()
    if args.probe:
        probe()
        return
    print(json.dumps(run(args)), flush=True)


if __name__ == "__main__":
    main()
