import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from apx import SubsetMask, cli, counting, direct_prob, direct_t3, make_group, prob_from_s0, search
from apx.cli import main
from apx.fourier import random_crosscheck
from apx.report import report_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "--group", "5", "--set", "1,2,3,4")
    assert code == 0
    assert "prob_direct = 3/4" in out
    assert "cayley triangles = 10" in out


def test_compute_subgroup(capsys):
    code, out, _ = run(capsys, "compute", "--group", "6", "--set", "0,2,4")
    assert code == 0
    assert "prob_direct = 1/1" in out


def test_compute_asymmetric_set_marks_cayley_invalid(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "6", "--set", "1,2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetric"] is False
    assert doc["cayley_valid"] is False
    assert doc["cayley_triangles_direct"] is None
    assert doc["prob_direct"] == "1/4"  # only 1+1=2 lands back in {1,2}
    assert doc["t3_spectral"] is None  # order 6 is even


def test_compute_structure_embedded(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--group", "15",
        "--set", "0,5,10",
        "--structure",
        "--gamma", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["structure"]["m0"] == 3
    assert doc["structure"]["eta"] == "1/1"


def test_compute_structure_needs_gamma(capsys):
    code, _, err = run(capsys, "compute", "--group", "15", "--set", "0,5,10", "--structure")
    assert code == 2
    assert "gamma" in err


def test_structure_command(capsys):
    code, out, _ = run(
        capsys, "structure", "--group", "15", "--set", "0,5,10", "--gamma", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 3 and doc["k"] == 5
    assert doc["residue_weights"]["weights"] == {"0": 3}


def test_search_command(capsys):
    code, out, _ = run(
        capsys, "search", "--group", "5", "--size", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_value"] == "3/4"
    assert doc["witnesses"] == ["{1,2,3,4}"]


def test_compute_on_a_large_group_needs_no_table(capsys):
    # Neither Prob[S] nor T3 of a non-Cayley set builds the n x n table; the
    # half interval of Z_16384 takes the square, past the gather ceiling.
    half = ",".join(map(str, range(8192)))
    for group, elements, expected in [
        ("65536", "1,2,3", ("prob_direct = 1/3", "t3_direct = 5")),
        ("16384", half, ("prob_direct = 8193/16384", "t3_direct = 33554432")),
    ]:
        start = time.perf_counter()
        code, out, _ = run(capsys, "compute", "--group", group, "--set", elements)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert all(line in out for line in expected)


def test_compute_counts_cayley_triangles_past_order_2896(capsys):
    for group, elements in [("4096", "1,4095"), ("16384", "0..8191")]:
        code, out, err = run(capsys, "compute", "--group", group, "--set", elements)
        assert code == 0 and err == ""
    assert "cayley triangles: invalid" in out  # the interval holds 0


def test_compute_set_ranges(capsys):
    spelled = run(capsys, "compute", "--group", "16", "--set", "1,2,3,13,14,15")
    assert spelled[0] == 0
    for text in ("1..3,13..15", " 13..15 , 1..3", "1..2,3..3,13..15,14"):
        assert run(capsys, "compute", "--group", "16", "--set", text) == spelled
    for text, message in [
        ("1..", "bad set notation"), ("..3", "bad set notation"),
        ("1...3", "bad set notation"), ("a..b", "bad set notation"),
        ("3..1", "empty range '3..1'"), ("0..16", "element index 16 out of range"),
        ("-1..2", "element index -1 out of range"),
        ("0..99999999999999", "element index 99999999999999 out of range"),
    ]:
        code, out, err = run(capsys, "compute", "--group", "16", f"--set={text}")
        assert code == 2 and out == "" and message in err, text


def test_compute_refuses_a_huge_range_before_building_it(capsys):
    # A membership of Z_10^8 takes 100 MB, over the 64 MiB table ceiling.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "compute", "--group", "100000000", "--set", "0..99999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "Traceback" not in err
    assert "membership of group 100000000 (order 100000000) needs 100000000 bytes" in err
    assert peak < 1 << 20


# Each argv of the refusal grid runs in a child with this address-space
# limit, set in the child alone, and must peak below _GRID_PEAK bytes.
_GRID_LIMIT = 2 << 30
_GRID_PEAK = 150 << 20
_Z2_20, _Z2_16 = ",".join(["2"] * 20), ",".join(["2"] * 16)
_REFUSAL_GRID = [
    *(
        [command, "--group", "100000000", "--set", elements, *gamma]
        for command, gamma in (("compute", ()), ("structure", ("--gamma", "1/2")))
        for elements in ("1", "1,99999999", "0..99999999")
    ),
    *(
        argv
        for group in (_Z2_20, _Z2_16)
        for argv in (
            ["compute", "--group", group, "--set", "1,2,3"],
            ["structure", "--group", group, "--set", "1,2,3", "--gamma", "1/2"],
            ["search", "--group", group, "--size", "1"],
        )
    ),
    # C(16384, 8000) candidates: thousands of digits, stated by bit length
    ["search", "--group", ",".join(["2"] * 14), "--size", "8000"],
]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (_GRID_LIMIT, _GRID_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))  # a child that spins is killed, not awaited


def _run_limited(argv):
    """(exit code, stderr, peak RSS in bytes) of apx argv in a limited child."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from apx.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        preexec_fn=_limit_child,
    )
    with proc.stderr:
        err = proc.stderr.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss * 1024  # ru_maxrss is in KiB


@pytest.mark.parametrize("argv", _REFUSAL_GRID, ids=" ".join)
def test_refusal_grid_exits_cleanly_within_its_peak(argv):
    code, err, peak = _run_limited(argv)
    assert code in (0, 2) and "Traceback" not in err, err
    assert code == 0 or "apx: error: the " in err
    assert peak < _GRID_PEAK, peak


def test_search_past_the_candidate_ceiling_exits_2(capsys):
    for argv, count in [
        (("--group", "2,2,2,2,2", "--size", "16"), 601080390),  # C(32, 16)
        (("--group", "25", "--size", "12", "--objective", "t3density"), 5200300),
        # 2 + 499,999 candidates: few, but each decodes a million-bit mask
        (("--group", "1000000", "--size", "2"), 500000),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, "search", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and f"over {count} candidates" in err


def test_search_serves_large_groups_at_small_sizes(capsys):
    for argv, count in [
        (("--group", "2001", "--size", "1", "--objective", "t3density"), 2001),
        (("--group", "3001", "--size", "1"), 1),
    ]:
        code, out, err = run(capsys, "search", *argv)
        assert code == 0 and err == "" and f"enumerated {count}, witnesses: {{0}}" in out


def test_verify_lemma1_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--d-max", "10")
    assert code == 0
    assert "0 violations" in out


def test_verify_lemma1_tight_eps_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma1", "--d-max", "9", "--radius", "1", "--eps", "2/9"
    )
    assert code == 1
    assert "(3, 3, 3)" in out


@pytest.mark.parametrize("eps", ["--eps=3/2", "--eps=1", "--eps=-1/10"])
def test_verify_lemma1_eps_out_of_range_exits_2(capsys, eps):
    code, out, err = run(capsys, "verify", "lemma1", "--d-max", "4", eps)
    assert code == 2 and out == "" and "eps must lie in [0, 1)" in err


def test_verify_lemma1_refuses_oversized_scans_with_exit_2(capsys):
    code, out, err = run(capsys, "verify", "lemma1", "--d-max", "100", "--radius", "20")
    assert code == 2 and out == "" and "needs 932763668722933476 sequences" in err


@pytest.mark.parametrize("argv,estimates", [
    (("lemma1", "--d-max", "1", "--radius", "20000"), ("1600080001 window pairs",)),
    (("lemma1", "--d-max", "8000000", "--radius", "0"), ("8000001 centers",)),
    (("lemma2", "--q-max", "2", "--alpha-steps", "100000000", "--eta-steps", "2"),
     ("400000000 grid points", "100000000 rhs values")),
])
def test_verify_lemma_scans_refuse_unbounded_work_with_exit_2(capsys, argv, estimates):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and all(estimate in err for estimate in estimates)


@pytest.mark.parametrize("gamma0,code", [("1e400", 2), ("3/2", 0)])
def test_verify_lemma2_gamma0_must_fit_a_float(capsys, gamma0, code):
    argv = ("--q-max", "2", "--alpha-steps", "3", "--eta-steps", "2", "--gamma0", gamma0)
    got, out, err = run(capsys, "verify", "lemma2", *argv)
    assert got == code
    if code:
        assert out == "" and err.startswith("apx: error:") and "gamma0" in err
    else:
        assert "0 violations" in out


def test_verify_lemma2_small(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma2", "--q-max", "3", "--alpha-steps", "9",
        "--eta-steps", "5",
    )
    assert code == 0
    assert "0 violations" in out


def test_verify_theorem2_json(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem2", "--max-order", "8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["worst_gap"] == "0/1"
    assert report_json(doc) == out.strip()


def test_verify_theorem1_text(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--max-order", "7")
    assert code == 0
    assert "0 hard failures" in out


def test_verify_gls_csv(capsys):
    code, out, _ = run(capsys, "verify", "gls", "--max-order", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "group,d,q,alpha,max_value,bound,gap"
    assert len(lines) > 5


def test_verify_fourier_small(capsys):
    code, out, _ = run(
        capsys, "verify", "fourier", "--sets", "20", "--max-order", "64",
        "--seed", "5",
    )
    assert code == 0
    assert "PASS" in out


def test_config_file_and_out(tmp_path, capsys):
    cfg = tmp_path / "apx.cfg"
    cfg.write_text("max_order = 6\nthreads = 1  # serial\noutput_format = json\n")
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "theorem2", "--config", str(cfg), "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert doc["max_order"] == 6


def test_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "apx.cfg"
    cfg.write_text("nonsense_key = 3\n")
    code, _, err = run(capsys, "verify", "theorem2", "--config", str(cfg))
    assert code == 2
    assert "nonsense_key" in err


def test_bad_output_format_in_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "apx.cfg"
    cfg.write_text("output_format = yaml\n")
    code, out, err = run(capsys, "verify", "theorem2", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "output_format" in err and "yaml" in err


def test_max_order_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "apx.cfg"
    cfg.write_text("max_order = 6\n")
    for suite, extra in [("gls", ()), ("fourier", ("--sets", "2"))]:
        argv = ("verify", suite, *extra, "--format", "json")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and json.loads(out)["max_order"] == 6
        code, out, _ = run(capsys, *argv, "--config", str(cfg), "--max-order", "5")
        assert code == 0 and json.loads(out)["max_order"] == 5
    # The exhaustive suites record the default depth the CLI passes, then
    # run at depth 5 so the default runs stay cheap.
    passed = {}
    for suite in ("theorem2", "theorem1", "gls"):
        real = getattr(cli, f"verify_{suite}")

        def stub(max_order, *args, _suite=suite, _real=real, **kwargs):
            passed[_suite] = max_order
            return _real(5, *args, **kwargs)

        monkeypatch.setattr(cli, f"verify_{suite}", stub)
        code, out, _ = run(capsys, "verify", suite, "--format", "json")
        assert code == 0 and json.loads(out)["max_order"] == 5
    assert passed == {"theorem2": 15, "theorem1": 15, "gls": 16}
    code, out, _ = run(capsys, "verify", "fourier", "--sets", "2", "--format", "json")
    assert code == 0 and json.loads(out)["max_order"] == 512


def test_bad_spectral_tolerances_exit_2(tmp_path, capsys):
    code, out, err = run(
        capsys, "verify", "fourier", "--sets", "4", "--tol-t3", "nan",
        "--tol-plancherel", "nan",
    )
    assert code == 2 and out == "" and "tol_t3" in err
    code, _, err = run(capsys, "verify", "fourier", "--sets", "4", "--tol-t3=-1e-6")
    assert code == 2 and "tol_t3" in err
    cfg = tmp_path / "apx.cfg"
    cfg.write_text("tolerance_spectral = -1e-9\n")
    code, _, err = run(capsys, "verify", "fourier", "--sets", "4", "--config", str(cfg))
    assert code == 2 and "tol_prob" in err
    for flag, value, name in (
        ("--sets", "-5", "trials"),
        ("--sets", "0", "trials"),
        ("--max-order", "1", "max_order"),
        ("--max-factors", "0", "max_factors"),
    ):
        code, out, err = run(capsys, "verify", "fourier", flag, value)
        assert code == 2 and out == "" and name in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "gls", "--gamma0", "1/2"),
        ("verify", "fourier", "--threads", "2"),
        ("structure", "--group", "5", "--set", "1,4", "--gamma", "1", "--threads", "2"),
    ],
)
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_env_threads_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("APX_THREADS", "2")
    code, out, _ = run(
        capsys, "verify", "theorem2", "--max-order", "6", "--format", "json"
    )
    assert code == 0
    baseline = json.loads(out)
    monkeypatch.delenv("APX_THREADS")
    code, out2, _ = run(
        capsys, "verify", "theorem2", "--max-order", "6", "--format", "json"
    )
    assert json.loads(out2) == baseline


def test_malformed_inputs_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, "compute", "--group", "5", "--set", "9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "compute", "--group", "0", "--set", "0")
    assert code == 2
    code, _, err = run(capsys, "compute", "--group", "5", "--set", "")
    assert code == 2
    code, _, err = run(capsys, "compute", "--group", "5", "--set", "1", "--format", "csv")
    assert code == 2
    # A Cayley-valid set past the budget of the triangle kernel's neighbour rows.
    code, out, err = run(capsys, "compute", "--group", "131072", "--set", "1,131071")
    assert code == 2 and out == "" and "bytes of neighbour rows" in err
    for cap in ("0", "-1"):
        code, out, err = run(
            capsys, "search", "--group", "15", "--size", "3", "--witness-cap", cap
        )
        assert code == 2 and out == "" and "witness_cap" in err
    code, out, err = run(
        capsys, "compute", "--group", "5", "--set", "1,4", "--gamma", "1/2"
    )
    assert code == 2 and out == "" and "--gamma needs --structure" in err
    for argv in (
        ("verify", "theorem2", "--max-order", "5", "--threads", "0"),
        ("verify", "lemma1", "--d-max", "0"),
        ("structure", "--group", "5", "--set", ",", "--gamma", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error" in err
    monkeypatch.setenv("APX_THREADS", "0")
    code, out, err = run(capsys, "verify", "theorem2", "--max-order", "5")
    assert code == 2 and out == "" and "thread count" in err


def test_threads_auto(capsys, monkeypatch):
    # These sweeps are too small to start a pool unless the floor is lowered.
    monkeypatch.setattr(search, "_POOL_MIN_CELLS", 0)
    for suite, threads in [("theorem2", "auto"), ("theorem1", "2"), ("gls", "2")]:
        argv = ("verify", suite, "--max-order", "9", "--format", "json")
        code, out, _ = run(capsys, *argv, "--threads", threads)
        assert code == 0
        code, serial, _ = run(capsys, *argv, "--threads", "1")
        assert code == 0
        assert serial == out


def test_gamma0_flag(capsys):
    code, out, _ = run(
        capsys, "search", "--group", "7", "--size", "3", "--gamma0", "9/10",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"]["value"] == "9/10"
    # compute's gamma0 also reaches the structure diagnostics' induction bound
    z21 = ("compute", "--group", "21", "--set", "1,3,7,14,18,20", "--structure",
           "--gamma", "1/2", "--format", "json")
    code, out, _ = run(capsys, *z21, "--gamma0", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"]["value"] == "31/36"
    assert doc["structure"]["induction_rhs"] == "17/12"
    code, out, _ = run(capsys, *z21)
    assert json.loads(out)["structure"]["induction_rhs"] == "12949/9000"


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


_COMMAND_PATHS = [
    (), ("compute",), ("search",), ("structure",), ("verify",),
    *(
        ("verify", suite)
        for suite in ("theorem2", "theorem1", "gls", "lemma1", "lemma2", "fourier")
    ),
]


def _parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [(*path, "-h") for path in _COMMAND_PATHS]
    + [("frob",), ("verify", "nope"), ("compute", "--bogus"), ()],
)
def test_parser_for_argv_reads_as_the_full_tree(argv, capsys):
    # The parser built for argv prints the full tree's help and usage errors.
    full = _parse_exit(capsys, cli.build_parser(), argv)
    assert full[0] in (0, 2) and (full[1] or full[2])
    assert _parse_exit(capsys, cli.build_parser(list(argv)), argv) == full


def test_compute_builds_only_its_own_parsers(capsys, monkeypatch):
    counts = {"parsers": 0, "arguments": 0}
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counting_add_argument(self, *args, **kwargs):
        counts["arguments"] += 1
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    compute = ["compute", "--group", "5", "--set", "1,4"]
    assert main(compute) == 0
    # The full tree has 11 parsers and 73 arguments; compute reads 5 and 13.
    assert 0 < counts["parsers"] <= 5 and 0 < counts["arguments"] <= 13
    # Without argv, main parses sys.argv and builds no more.
    counts.update(parsers=0, arguments=0)
    monkeypatch.setattr(sys, "argv", ["apx", *compute])
    assert main() == 0
    assert 0 < counts["parsers"] <= 5 and 0 < counts["arguments"] <= 13
    assert "prob_direct" in capsys.readouterr().out


@pytest.fixture
def set_work(monkeypatch):
    """Counts of mask decodes, pair-sum passes and FFTs while a test runs."""
    counts = {"decode": 0, "pass": 0, "fft": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "unpackbits", counted("decode", np.unpackbits))
    monkeypatch.setattr(np.fft, "fftn", counted("fft", np.fft.fftn))
    for route in ("_square_pair_counts", "_gather_pair_sums"):
        monkeypatch.setattr(counting, route, counted("pass", getattr(counting, route)))
    counting.pair_route.cache_clear()  # a cached route would skip the wrappers
    yield counts
    counting.pair_route.cache_clear()


@pytest.mark.parametrize(
    "argv, passes, ffts",
    [
        # symmetric and 0-free: S0 = S + {0} is a second set with its own pass
        (["--group", "15", "--set", "1,4,6,9,11,14"], 2, 1),
        (["--group", "15", "--set", "1,4,6,9,11,14", "--structure", "--gamma", "1/2"], 2, 1),
        (["--group", "3,5", "--set", "1,2,7"], 1, 1),  # odd order, not symmetric
        (["--group", "2,8", "--set", "0,2,14"], 1, 1),  # even order, symmetric
        (["--group", "2,8", "--set", "0,1,15"], 1, 0),  # no spectral quantity
        (["--group", "1024", "--set", "1,1023"], 2, 1),  # the gather route
    ],
)
def test_compute_decodes_pairs_and_transforms_its_set_once(argv, passes, ffts, set_work, capsys):
    # --set builds the membership, which the mask keeps, so nothing decodes.
    assert main(["compute", *argv]) == 0
    assert set_work == {"decode": 0, "pass": passes, "fft": ffts}


def test_oracles_decode_and_pair_a_mask_once(set_work):
    # A mask built from its bits decodes on first use; S0 = S + {0} is built
    # from that membership, with a pass of its own.
    g = make_group([15])
    s = SubsetMask(g, sum(1 << x for x in (1, 4, 6, 9, 11, 14)))
    for _ in range(2):
        assert (direct_prob(s), direct_t3(s), s.is_symmetric) == (0, 18, True)
    assert prob_from_s0(s) == 0 and s.label == "{1,4,6,9,11,14}"
    assert set_work == {"decode": 1, "pass": 2, "fft": 0}


def test_crosscheck_trial_pairs_and_transforms_its_set_once(set_work):
    # A trial draws its set's membership, so it decodes nothing.
    assert random_crosscheck(trials=40, max_order=128, seed=3).passed
    assert set_work == {"decode": 0, "pass": 40, "fft": 40}
