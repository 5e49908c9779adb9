"""The apx benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run it from the repository root (it imports apx from ./src).  It times the
set-up of a fresh interpreter several times, then runs the workload in one
fresh worker process (worker.py) for about --seconds seconds, and prints
human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (the traced run also writes its spans to
.perfbench/trace-<workload>-seed<seed>.json).  --self-check runs the traced
workload twice with the same seed and fails unless the exact counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
INTERACTIONS = HERE / "interactions.json"

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # the whole command must end within 180 s

# Every workload reports its longest call as lead_call_s.
LEAD_CALL = {
    "exhaustive": "verify_theorem1_s",
    "large-groups": "verify_fourier_s",
    "scans": "verify_lemma2_s",
}

COUNT_UNITS = ("count", "bytes", "ops")
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_ratio": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv, timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {argv[2:4]} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    return out


def measure_setup(deadline: float) -> float:
    """Median time from starting a fresh interpreter to a built CLI parser."""
    argv = [sys.executable, str(WORKER), "--probe"]
    _run_child(argv, deadline - time.perf_counter())  # warms the bytecode cache; not counted
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = _run_child(argv, deadline - start)
        times.append(time.perf_counter() - start)
        if out.strip() != "ready":
            raise SystemExit("perfbench: set-up probe did not get ready")
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float) -> dict:
    tmp = OUT / f"tmp-{os.getpid()}"
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp)]
    try:
        out = _run_child(argv, timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def _baseline_lines(workload: str, e2e: dict) -> list[str]:
    with open(INTERACTIONS, encoding="utf-8") as fh:
        rows = json.load(fh)["roadmap_baseline"]
    lines = []
    for row in rows:
        if row["workload"] == workload and row["metric"] in e2e:
            now = e2e[row["metric"]]
            lines.append(f"  vs ROADMAP baseline: {row['metric']} {now:.3f} s"
                         f" against {row['seconds']} s ({now / row['seconds'] - 1:+.0%};"
                         f" {row['row']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="apx benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the traced workload twice; exact counts must repeat")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "apx" / "__init__.py").is_file():
        print(f"perfbench: no apx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)

    if args.self_check:
        return self_check(args)

    deadline = start + RUN_LIMIT_S
    setup_s = measure_setup(deadline)
    res = run_worker(args.workload, args.seed, args.seconds, args.trace,
                     deadline - time.perf_counter())
    e2e = res["end_to_end"]
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    e2e["failed_ops_ratio"] = res["failed"] / res["attempted"]
    e2e["lead_call_s"] = e2e[LEAD_CALL[args.workload]]

    machine = res["machine"]
    print(f"apx benchmark: workload {args.workload}, seed {args.seed},"
          f" {res['passes']['untraced']} untraced + {res['passes']['traced']} traced passes;"
          f" nproc {machine['nproc']}, Python {machine['python']},"
          f" numpy {machine['numpy']}, exhaustive threads {machine['threads']}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    for line in _baseline_lines(args.workload, e2e):
        print(line)
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")

    correct = res["failed"] == 0
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']} = {res['per_layer'][m['name']]:.6g} {m['unit']}")
        print(f"  table builds by call: {res['table_builds_by_call']}")
        print(f"  spans written to {res['trace_file']}")
        if res["exact_count_mismatch"]:
            print(f"  EXACT COUNTS DIFFER between traced passes: {res['exact_count_mismatch']}")
            correct = False
        metrics_spec = spec["per_layer"]
        values = res["per_layer"]
    else:
        metrics_spec = spec["end_to_end"]
        values = e2e
    metrics = {
        m["name"]: {"value": round(values[m["name"]]) if m["unit"] in COUNT_UNITS
                    else float(values[m["name"]]), "unit": m["unit"]}
        for m in metrics_spec
    }
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def self_check(args) -> int:
    """Two traced runs with one seed: the exact counts must agree."""
    runs = [run_worker(args.workload, args.seed, args.seconds, 1, RUN_LIMIT_S)
            for _ in range(2)]
    counts = [r["exact_counts"] for r in runs]
    for name in counts[0]:
        print(f"  {name}: {counts[0][name]:.0f} / {counts[1][name]:.0f}")
    print(f"  table builds by call: {runs[0]['table_builds_by_call']}")
    ok = (counts[0] == counts[1]
          and not any(r["exact_count_mismatch"] or r["failed"] for r in runs))
    print(f"self-check {args.workload} seed {args.seed}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
