"""End-to-end command-line checks at small bounds: formats, piping,
determinism, and the exit-code contract."""

import io
import json
import sys

import pytest

from ringspectra import fastengine
from ringspectra.cli import main

X_SQ_PLUS_1 = "E x. (((x * x) + 1) = 0)\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def formula_file(tmp_path, text, name="f.rng"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_prints_canonical_form(tmp_path, capsys):
    path = formula_file(tmp_path, "E x. ((x*x) = 2)")
    code, out, _ = run(capsys, "parse", "--formula", path)
    assert code == 0
    canonical = out.strip()
    path2 = formula_file(tmp_path, canonical, "canon.rng")
    code, out2, _ = run(capsys, "parse", "--formula", path2)
    assert code == 0 and out2.strip() == canonical


def test_parse_error_exits_2(tmp_path, capsys):
    path = formula_file(tmp_path, "E x. ((x +) = 2)")
    code, out, err = run(capsys, "parse", "--formula", path)
    assert code == 2 and "parse error" in err


def test_eval_closed_formula(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    code, out, _ = run(capsys, "eval", "--modulus", "5", "--formula", path)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "eval", "--modulus", "7", "--formula", path)
    assert (code, out) == (0, "false\n")


def test_eval_and_parse_a_term_deeper_than_pythons_stack(tmp_path, capsys):
    n = 1200
    path = formula_file(tmp_path, "E x. ((x" + " + 1" * n + ") = x)")
    for modulus, want in (("7", "false\n"), ("5", "true\n")):
        code, out, _ = run(capsys, "eval", "--modulus", modulus, "--formula", path)
        assert (code, out) == (0, want)
    code, out, _ = run(capsys, "parse", "--formula", path)
    assert (code, out) == (0, "(E x. " + "(" * n + "x" + " + 1)" * n + " = x)\n")


def test_eval_open_formula_emits_relation(tmp_path, capsys):
    path = formula_file(tmp_path, "((x * x) = 1)")
    code, out, _ = run(
        capsys, "eval", "--modulus", "8", "--formula", path, "--engine", "both"
    )
    assert code == 0
    assert out.splitlines() == ["x", "1", "3", "5", "7"]


def test_construct_pipes_into_eval(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "construct", "--family", "congruence", "--params", "a=1,d=4")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run(capsys, "eval", "--modulus", "5", "--formula", "-")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "construct", "--family", "prime")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run(capsys, "eval", "--modulus", "6", "--formula", "-")
    assert (code, out) == (0, "false\n")


def test_construct_rejects_bad_params(capsys):
    code, _, err = run(capsys, "construct", "--family", "congruence", "--params", "a=9,d=4")
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit):
        main(["construct", "--family", "nosuch"])


def test_spectrum_csv_has_12_members_at_100(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    code, out, _ = run(capsys, "spectrum", "--formula", path, "--bound", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prime,member"
    assert len(lines) == 26  # header plus the 25 primes up to 100
    members = [int(l.split(",")[0]) for l in lines[1:] if l.endswith(",1")]
    assert members == [2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


def test_spectrum_json_then_classify(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    spectrum_path = str(tmp_path / "spectrum.json")
    code, _, _ = run(
        capsys, "spectrum", "--formula", path, "--bound", "1000",
        "--out", "json", "--output", spectrum_path,
    )
    assert code == 0
    payload = json.loads(open(spectrum_path, encoding="utf-8").read())
    assert payload["bound"] == 1000 and payload["count"] == len(payload["primes"])
    code, out, _ = run(capsys, "classify", "--spectrum", spectrum_path, "--max-d", "8")
    assert code == 0
    fits = {fit["modulus"]: fit for fit in json.loads(out)["fits"]}
    assert fits[4]["residues"] == [1] and fits[4]["plausible"]
    assert fits[8]["residues"] == [1, 5]


def test_classify_reads_csv_identically(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    csv_path = str(tmp_path / "spectrum.csv")
    run(capsys, "spectrum", "--formula", path, "--bound", "1000", "--output", csv_path)
    code, from_csv, _ = run(capsys, "classify", "--spectrum", csv_path, "--max-d", "8")
    assert code == 0
    json_path = str(tmp_path / "spectrum.json")
    run(capsys, "spectrum", "--formula", path, "--bound", "1000",
        "--out", "json", "--output", json_path)
    code, from_json, _ = run(capsys, "classify", "--spectrum", json_path, "--max-d", "8")
    assert code == 0
    # the CSV carries no explicit bound (it is the largest its prime rows
    # allow, 1008 here), so only the fitted classes are required to agree
    assert json.loads(from_csv)["fits"] == json.loads(from_json)["fits"]


def test_density_profile_csv(tmp_path, capsys):
    path = formula_file(tmp_path, "A x. (x = x)")
    spectrum_path = str(tmp_path / "all.csv")
    run(capsys, "spectrum", "--formula", path, "--bound", "2000", "--output", spectrum_path)
    code, out, _ = run(
        capsys, "density", "--spectrum", spectrum_path,
        "--h", "identity", "--samples", "100,1000",
    )
    assert code == 0
    assert out.splitlines() == ["n,pi_S,pi,ratio", "100,25,25,1", "1000,168,168,1"]
    code, out, _ = run(
        capsys, "density", "--spectrum", spectrum_path, "--h", "log",
        "--seq", "geometric:10:3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,pi_S,pi,ratio" and len(lines) == 4
    assert lines[1].startswith("10,4,4,") and lines[3].startswith("1000,168,168,")
    # a CSV's bound is the largest its rows allow, 1008 below the prime
    # 1009, so the bound of the sweep is a sample, from CSV as from JSON
    paths = [str(tmp_path / "sp.csv"), str(tmp_path / "sp.json")]
    for out_path, kind in zip(paths, ("csv", "json")):
        run(capsys, "spectrum", "--formula", path, "--bound", "1000",
            "--out", kind, "--output", out_path)
    for schedule in (["--samples", "100,1000"], ["--seq", "geometric:10:4"]):
        csv_run, json_run = (
            run(capsys, "density", "--spectrum", p, "--h", "log", *schedule) for p in paths
        )
        assert csv_run == json_run and csv_run[0] == 0
        assert csv_run[1].splitlines()[-1].startswith("1000,168,168,")


def test_density_requires_schedule(tmp_path, capsys):
    path = formula_file(tmp_path, "A x. (x = x)")
    spectrum_path = str(tmp_path / "all.csv")
    run(capsys, "spectrum", "--formula", path, "--bound", "100", "--output", spectrum_path)
    with pytest.raises(SystemExit):
        main(["density", "--spectrum", spectrum_path, "--h", "identity"])


@pytest.mark.parametrize(
    "name, text",
    [
        ("no_bound.json", '{"primes": [2, 3]}'),
        ("no_primes.json", '{"bound": 10}'),
        ("composite.json", '{"bound": 10, "primes": [4]}'),
        ("above_bound.json", '{"bound": 10, "primes": [2, 11]}'),
        ("skips_3.csv", "prime,member\n2,1\n5,1\n"),
        ("composite.csv", "prime,member\n2,1\n3,0\n4,1\n"),
        ("member_2.csv", "prime,member\n2,2\n"),
    ],
)
def test_malformed_spectrum_files_exit_2(tmp_path, capsys, name, text):
    # each would load as some other spectrum, or crash with a traceback
    path = formula_file(tmp_path, text, name)
    for argv in (
        ("classify", "--spectrum", path, "--max-d", "4"),
        ("density", "--spectrum", path, "--samples", "5"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "spectrum" in err, name


def test_spectrum_output_is_byte_deterministic(tmp_path, capsys, monkeypatch):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    _, first, _ = run(capsys, "spectrum", "--formula", path, "--bound", "500")
    monkeypatch.setenv("RINGSPECTRA_WORKERS", "2")
    _, second, _ = run(capsys, "spectrum", "--formula", path, "--bound", "500")
    assert first == second


def test_verify_subset_passes_and_reproduces(tmp_path, capsys):
    report_a = str(tmp_path / "a.json")
    report_b = str(tmp_path / "b.json")
    code, out, _ = run(
        capsys, "verify", "--bound", "1000", "--claims", "4,13", "--json", report_a,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("claim  4 PASS") and lines[1].startswith("claim 13 PASS")
    assert lines[-1] == "2/2 claims pass"
    run(capsys, "verify", "--bound", "1000", "--claims", "4,13", "--json", report_b)
    a = open(report_a, "rb").read()
    assert a == open(report_b, "rb").read()
    assert b"timestamp" not in a and json.loads(a)["schema"] == "ringspectra.verify/1"


def test_verify_reports_claim_8_shortfall(capsys):
    # the log-density floor at s_4 is out of reach at this horizon; the
    # suite must say so rather than paper over it
    code, out, _ = run(capsys, "verify", "--claims", "8")
    assert code == 1
    assert out.splitlines()[0].startswith("claim  8 FAIL")
    assert "0/1 claims pass" in out


def test_verify_rejects_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claims", "15")
    assert code == 2 and "claim ids" in err


def test_missing_file_exits_4(capsys):
    code, _, err = run(capsys, "eval", "--modulus", "5", "--formula", "/nope/f.rng")
    assert code == 4 and "i/o error" in err


def test_resource_limits_exit_3(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    code, _, err = run(capsys, "spectrum", "--formula", path, "--bound", "6000000")
    assert code == 3 and "resource" in err
    code, _, err = run(capsys, "eval", "--modulus", "6000000", "--formula", path)
    assert code == 3


def test_eval_rejects_a_tuple_budget_below_one(tmp_path, capsys):
    closed = formula_file(tmp_path, "E x. (x = 1)")
    open_ = formula_file(tmp_path, "(x = 1)", "open.rng")
    for budget in ("0", "-5"):
        for path in (closed, open_):
            code, out, err = run(
                capsys, "eval", "--modulus", "5", "--formula", path, "--tuple-budget", budget
            )
            assert (code, out) == (2, "") and "tuple budget" in err


def test_spectrum_rejects_open_formula(tmp_path, capsys):
    path = formula_file(tmp_path, "(x = 1)")
    code, _, err = run(capsys, "spectrum", "--formula", path, "--bound", "100")
    assert code == 2


def test_engine_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    closed = formula_file(tmp_path, X_SQ_PLUS_1)
    open_ = formula_file(tmp_path, "((x * x) = 1)", "open.rng")
    real_bool, real_rel = fastengine.eval_fast_bool, fastengine.eval_fast
    monkeypatch.setattr(fastengine, "eval_fast_bool", lambda c, f: not real_bool(c, f))
    code, out, err = run(
        capsys, "eval", "--modulus", "5", "--formula", closed, "--engine", "both"
    )
    assert (code, out) == (1, "")
    assert "verification failure: engines disagree at m=5" in err

    def drop_first_row(c, f):
        rel = real_rel(c, f)
        return fastengine.Relation(rel.cols, rel.data[:, 1:])

    monkeypatch.setattr(fastengine, "eval_fast", drop_first_row)
    code, _, err = run(
        capsys, "eval", "--modulus", "8", "--formula", open_, "--engine", "both"
    )
    assert code == 1 and "naive=4 rows fast=3 rows" in err


def test_eval_rejects_the_auto_engine(tmp_path, capsys):
    path = formula_file(tmp_path, X_SQ_PLUS_1)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--modulus", "5", "--formula", path, "--engine", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err
