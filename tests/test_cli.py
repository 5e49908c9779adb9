import json

import pytest

from apx import cli
from apx.cli import main
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
    code, out, err = run(capsys, "compute", "--group", "131072", "--set", "1")
    assert code == 2 and out == "" and "addition table" in err
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


def test_threads_auto(capsys):
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
