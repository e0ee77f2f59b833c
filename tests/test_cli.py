import io
import json
import os
import re
import shlex

import pytest

from detideals import cli, suites
from detideals.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen


def test_gen_counts(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 21


def test_gen_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "1")
    assert code == 0 and out.strip() == "@"


def test_gen_out_of_range(capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "10")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# ideals


def test_ideals_text_ltimes(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--matrix", "adjacency",
                           "--ring", "Zx", "--var", "t", "Dt_")
    assert code == 0
    assert "corank 3" in out
    assert "k=4: [2, t + 1]" in out
    assert "k=5: [t^5 - 5*t^3 - 2*t^2 + 2*t]" in out


def test_ideals_distance_ltimes(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--matrix", "distance",
                           "--ring", "Zx", "--var", "t", "Dt_")
    assert code == 0
    assert "k=5: [t^5 - 25*t^3 - 70*t^2 - 66*t - 20]" in out


@pytest.mark.parametrize("var", ["2", "", "x y", "t^2", "-"])
def test_ideals_var_must_be_an_identifier(capsys, var):
    # "--var 2" would print "2^2 - 1", "--var ''" would print "^2 - 1"
    code, out, err = run_cli(capsys, "ideals", "--var", var, "Cl")
    assert code == 2 and out == ""
    assert "--var" in err and "identifier" in err


def test_ideals_var_names_the_variable_of_zx_and_qx_profiles(capsys):
    for ring in ("Zx", "Qx"):
        code, out, _ = run_cli(capsys, "ideals", "--ring", ring, "--var", "t_1",
                               "--output", "json", "Cl")
        assert code == 0
        assert json.loads(out)["ideals"][3]["basis"] == ["t_1^4 - 4*t_1^2"]
    # ZX profiles keep x0..x{n-1} whatever --var says
    code, out, _ = run_cli(capsys, "ideals", "--ring", "ZX", "--var", "t", "Cl")
    assert code == 0 and "x0*x1*x2*x3" in out and "t" not in out.split("corank")[1]
    code, default, _ = run_cli(capsys, "ideals", "Cl")
    code_x, explicit, _ = run_cli(capsys, "ideals", "--var", "x", "Cl")
    assert code == code_x == 0 and default == explicit
    assert "k=4: [x^4 - 4*x^2]" in default


def test_ideals_json_critical_c4(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--matrix", "adjacency",
                           "--ring", "ZX", "--output", "json", "Cl")
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "ZX"
    assert doc["corank"] == 2
    assert doc["ideals"][3]["basis"] == ["x0*x1*x2*x3 - x0*x1 - x1*x2 - x0*x3 - x2*x3"]


def test_ideals_size_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, "ideals", "--matrix", "adjacency",
                           "--ring", "ZX", "FsaC?")  # a 7-vertex graph
    assert code == 3 and "guard" in err


def test_ideals_zx_other_kind_is_input_error_before_guard(capsys):
    # a matrix kind that ZX never accepts is bad input at any size
    code, _, err = run_cli(capsys, "ideals", "--matrix", "laplacian",
                           "--ring", "ZX", "FsaC?")  # a 7-vertex graph
    assert code == 2 and "error" in err


def test_ideals_bad_graph6_exit_2(capsys):
    code, _, err = run_cli(capsys, "ideals", "Dt")
    assert code == 2 and "error" in err


def test_ideals_no_input(capsys):
    # argparse refuses a command with no graph source
    for command in ("ideals", "snf"):
        code, out, err = run_cli(capsys, command)
        assert (code, out) == (2, "") and "one of the arguments graph6 --input is required" in err


def test_empty_inline_graph6_is_input_error(capsys):
    # an empty inline string is a graph source, and bad graph6
    code, out, err = run_cli(capsys, "snf", "")
    assert (code, out) == (2, "") and "empty graph6 string" in err


# ---------------------------------------------------------------------------
# snf


def test_snf_text_k33(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "laplacian",
                           "--ring", "Z", "EFz_")
    assert code == 0
    assert "1,1,3,3,9,0" in out
    assert "Z_3 + Z_3 + Z_9 + Z" in out


def test_snf_json(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "laplacian",
                           "--ring", "Z", "--output", "json", "EFz_")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [1, 1, 3, 3, 9, 0]
    assert doc["cokernel"] == {"torsion": [3, 3, 9], "free_rank": 1}


def test_snf_qx(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "adjacency",
                           "--ring", "Qx", "EFz_")
    assert code == 0
    assert "f_6" in out


# ---------------------------------------------------------------------------
# survey


def test_survey_csv(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "5", "--matrix", "adjacency",
                           "--mode", "cospectral", "--workers", "1")
    assert code == 0
    assert out.splitlines()[0] == "n,matrix,mode,total,with_mate"
    assert out.splitlines()[1] == "5,adjacency,cospectral,21,0"


def test_survey_json_n6_codet_q(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "6", "--matrix", "adjacency",
                           "--mode", "codet-Q", "--output", "json", "--workers", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["with_mate"] == 2
    assert len(doc["buckets"]) == 1 and len(doc["buckets"][0]["graphs"]) == 2


def test_survey_text_prints_each_bucket(capsys):
    argv = ("survey", "--n", "6", "--matrix", "adjacency", "--mode", "codet-Q", "--workers", "1")
    code, out, _ = run_cli(capsys, *argv, "--output", "text")
    assert code == 0
    doc = json.loads(run_cli(capsys, *argv, "--output", "json")[1])
    assert out.splitlines() == ["n=6 matrix=adjacency mode=codet-Q total=112 with_mate=2"] + [
        f"  [{len(b['graphs'])}] {' '.join(b['graphs'])}" for b in doc["buckets"]]
    assert len(doc["buckets"]) == 1


def test_survey_from_file(capsys, tmp_path, corpus5):
    from detideals.graphs import write_graph6

    corpus = tmp_path / "n5.g6"
    corpus.write_text("\n".join(write_graph6(g) for g in corpus5) + "\n")
    code, out, _ = run_cli(capsys, "survey", "--input", str(corpus),
                           "--matrix", "laplacian", "--mode", "coinvariant",
                           "--workers", "1")
    assert code == 0
    assert out.splitlines()[1] == "5,laplacian,coinvariant,21,8"


def test_survey_large_corpus_reaches_corpus_validation(capsys, tmp_path):
    # no corpus is too large to survey: 20,000 lines are checked like any corpus
    corpus = tmp_path / "big.g6"
    corpus.write_text("@\n" * 20000)
    code, out, err = run_cli(capsys, "survey", "--input", str(corpus),
                             "--matrix", "adjacency", "--mode", "cospectral")
    assert (code, out) == (2, "") and "repeated graph in corpus: @" in err
    assert "guard" not in err


@pytest.mark.parametrize("option, value", [("--workers", "0"), ("--workers", "two")])
def test_survey_rejects_non_positive_counts(capsys, tmp_path, option, value):
    code, _, err = run_cli(capsys, "survey", "--n", "4", "--matrix", "adjacency",
                           "--mode", "cospectral", "--checkpoint",
                           str(tmp_path / "keys.jsonl"), option, value)
    assert code == 2 and "error" in err


def test_survey_rejects_repeated_graph(capsys, tmp_path):
    corpus = tmp_path / "dup.g6"
    corpus.write_text("C~\nC~\n")
    code, out, err = run_cli(capsys, "survey", "--input", str(corpus),
                             "--matrix", "adjacency", "--mode", "cospectral",
                             "--output", "text", "--workers", "1")
    assert code == 2 and "repeated graph in corpus: C~" in err and out == ""


def test_survey_out_unwritable_is_input_error_before_any_key(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no key may be computed for an unwritable --out")

    monkeypatch.setattr(cli, "run_survey", refuse)
    code, out, err = run_cli(capsys, "survey", "--n", "7", "--matrix", "laplacian",
                             "--mode", "codet-Z", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2 and "error" in err and out == ""


def test_refused_survey_leaves_out_file_as_it_was(capsys, tmp_path):
    report = tmp_path / "report.csv"
    old = b"an earlier report\nkept byte for byte\n" * 50
    report.write_bytes(old)
    # refused while the keys are computed, and after the report is made
    repeated, labellings = tmp_path / "dup.g6", tmp_path / "p4.g6"
    repeated.write_text("C~\nC~\n")
    labellings.write_text("C~\nCh\nCd\n")
    for corpus in (repeated, labellings):
        code, _, _ = run_cli(capsys, "survey", "--input", str(corpus), "--matrix", "adjacency",
                             "--mode", "cospectral", "--workers", "1", "--out", str(report))
        assert code == 2 and report.read_bytes() == old
    # a survey that runs replaces the whole file
    argv = ("survey", "--n", "5", "--matrix", "adjacency", "--mode", "cospectral",
            "--workers", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and run_cli(capsys, *argv, "--out", str(report))[:2] == (0, "")
    assert report.read_text() == out


def test_refused_survey_leaves_no_new_out_file(capsys, tmp_path):
    # the checkpoint is refused after --out is opened: a file made for the
    # report goes again, and an existing one keeps its bytes
    report, old = tmp_path / "report.csv", b"an earlier report\n"
    argv = ("survey", "--n", "5", "--matrix", "adjacency", "--mode", "codet-Z", "--workers", "1",
            "--out", str(report), "--checkpoint", str(tmp_path / "nodir" / "keys.jsonl"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "error" in err
    assert not report.exists()
    report.write_bytes(old)
    assert run_cli(capsys, *argv)[:2] == (2, "")
    assert report.read_bytes() == old


def test_survey_refuses_one_file_for_out_and_checkpoint(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no key may be computed")

    monkeypatch.setattr(cli, "run_survey", refuse)
    monkeypatch.chdir(tmp_path)
    argv = ("survey", "--n", "4", "--matrix", "adjacency", "--mode", "coinvariant",
            "--workers", "1", "--out", "r.txt", "--checkpoint")
    # a file not there yet is not made
    code, out, err = run_cli(capsys, *argv, "r.txt")
    assert (code, out) == (2, "") and "same file" in err
    assert not (tmp_path / "r.txt").exists()
    # an existing file, under another path or a hard link, is left as it was
    old = b"an earlier report\n"
    (tmp_path / "r.txt").write_bytes(old)
    (tmp_path / "sub").mkdir()
    os.link(tmp_path / "r.txt", tmp_path / "link.txt")
    for other in (str(tmp_path / "sub" / ".." / "r.txt"), "link.txt"):
        code, out, err = run_cli(capsys, *argv, other)
        assert (code, out) == (2, "") and "same file" in err
        assert (tmp_path / "r.txt").read_bytes() == old
    # nor may either name the --input corpus, which keeps its bytes
    corpus = b"".join(g.encode() + b"\n" for g in ("DCw", "DEw", "D]w", "D^{", "D~{"))
    (tmp_path / "in.g6").write_bytes(corpus)
    os.link(tmp_path / "in.g6", tmp_path / "in-link.g6")
    source = ("survey", "--input", "in.g6", "--matrix", "adjacency", "--mode", "codet-Z")
    for flag in ("--out", "--checkpoint"):
        for other in ("in.g6", str(tmp_path / "sub" / ".." / "in.g6"), "in-link.g6"):
            code, out, err = run_cli(capsys, *source, flag, other)
            assert (code, out) == (2, "") and f"--input and {flag} name the same file" in err
            assert (tmp_path / "in.g6").read_bytes() == corpus
    # --input - and --out - name no file, so neither is refused
    monkeypatch.setattr("sys.stdin", io.StringIO("Ch\n"))
    with pytest.raises(AssertionError, match="no key may be computed"):
        main(["survey", "--input", "-", "--matrix", "adjacency", "--mode", "cospectral",
              "--out", "-"])
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("mode", ["cospectral", "codet-Z"])
def test_survey_refuses_two_labellings_of_one_graph(capsys, tmp_path, mode):
    # Ch and Cd are P_4 in two labellings: they share every key, and would be
    # counted as two graphs with a mate; K_4 (C~) has none
    corpus = tmp_path / "p4.g6"
    corpus.write_text("C~\nCh\nCd\n")
    report = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "survey", "--input", str(corpus), "--matrix", "adjacency",
                             "--mode", mode, "--workers", "1", "--out", str(report))
    assert (code, out) == (2, "") and "Ch and Cd are one graph in two labellings" in err
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ("snf",),
    ("ideals", "--output", "json"),
    ("survey", "--matrix", "adjacency", "--mode", "cospectral"),
], ids=["snf", "ideals", "survey"])
def test_empty_input_is_input_error(capsys, tmp_path, argv):
    empty = tmp_path / "empty.g6"
    empty.write_text(">>graph6<<\n\n")  # a header and a blank line, no graph
    code, out, err = run_cli(capsys, *argv, "--input", str(empty))
    assert code == 2 and "no graph in input" in err and out == ""


def test_non_ascii_input_is_input_error(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_bytes(b"C~\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "snf", "--input", str(corpus))
    assert code == 2 and "not ASCII" in err and out == ""


def test_library_value_error_is_not_an_input_error(monkeypatch):
    # exit 2 means bad input; a ValueError from inside the library is a fault
    def broken(matrix):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(cli, "snf_integer", broken)
    with pytest.raises(ValueError, match="a fault inside the library"):
        main(["snf", "C~"])


def test_survey_needs_input(capsys):
    code, out, err = run_cli(capsys, "survey", "--matrix", "adjacency",
                             "--mode", "cospectral")
    assert (code, out) == (2, "") and "one of the arguments --n --input is required" in err


def test_survey_out_dash_is_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("survey", "--n", "5", "--matrix", "adjacency", "--mode", "codet-Z",
            "--workers", "1", "--output", "text")
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report
    # a checkpoint under another name for - is a file, and no file named - is made
    code, out, err = run_cli(capsys, *argv, "--out", "-", "--checkpoint", "./-")
    assert (code, out, err) == (0, report, "")
    assert (tmp_path / "-").read_text().count("\n") == 21
    (tmp_path / "-").unlink()
    assert run_cli(capsys, *argv, "--out", "-")[:2] == (0, report)
    assert list(tmp_path.iterdir()) == []


def test_survey_refuses_checkpoint_on_stdout(capsys, tmp_path, monkeypatch):
    # the key records would mix with the report; argparse refuses before any file is opened
    def refuse(*args, **kwargs):
        raise AssertionError("no key may be computed")

    monkeypatch.setattr(cli, "run_survey", refuse)
    monkeypatch.chdir(tmp_path)
    for out in ((), ("--out", "r.csv"), ("--out", "-")):
        code, stdout, err = run_cli(capsys, "survey", "--n", "4", "--matrix", "adjacency",
                                    "--mode", "cospectral", "--checkpoint", "-", *out)
        assert (code, stdout) == (2, "") and "argument --checkpoint" in err
        assert list(tmp_path.iterdir()) == []


def test_survey_refuses_both_n_and_input(capsys, tmp_path):
    corpus = tmp_path / "k4.g6"
    corpus.write_text("C~\n")
    code, out, err = run_cli(capsys, "survey", "--n", "4", "--input", str(corpus),
                             "--matrix", "adjacency", "--mode", "cospectral",
                             "--workers", "1")
    assert code == 2 and "not allowed with argument" in err and out == ""


@pytest.mark.parametrize("command", ["ideals", "snf"])
@pytest.mark.parametrize("order", ["inline_first", "input_first"])
def test_refuses_both_inline_graph_and_input(capsys, tmp_path, command, order):
    corpus = tmp_path / "k4.g6"
    corpus.write_text("C~\n")
    pair = ["Dt_", "--input", str(corpus)]
    argv = pair if order == "inline_first" else pair[1:] + pair[:1]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2 and "not allowed with argument" in err and out == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_c4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "c4")
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nope")
    assert (code, out) == (2, "") and "argument --suite: invalid choice: 'nope'" in err


@pytest.mark.parametrize("suite, max_n", [("tables", "-1"), ("tables", "0"),
                                          ("determined-complete", "2")])
def test_verify_rejects_max_n_that_runs_no_check(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 2 and "error" in err
    assert "all checks passed" not in out


def test_verify_no_check_message(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "tables", "--max-n", "3")
    assert (code, out, err) == (2, "", "error: suite tables ran no checks at --max-n 3\n")


def test_verify_prints_each_check_as_it_is_made(capsys, monkeypatch):
    # the ltimes suite's first check decodes Dt_; its second needs the ideals
    def broken(*args, **kwargs):
        raise RuntimeError("the second check broke")

    monkeypatch.setattr(suites, "determinantal_ideals", broken)
    with pytest.raises(RuntimeError, match="the second check broke"):
        main(["verify", "--suite", "ltimes"])
    assert capsys.readouterr().out == "PASS: Dt_ decodes to the documented edge set\n"


def test_verify_appendix_b(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "appendixB")
    assert code == 0
    assert out.count("PASS") == 3
    assert "all checks passed" in out


# ---------------------------------------------------------------------------
# the README's examples


def _readme_commands() -> list[list[str]]:
    """The argv of each `detideals` line of the README's CLI block, its
    continuation lines joined and its comments dropped."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^## CLI$.*?^```$(.*?)^```$", readme, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("detideals ")]


def test_readme_cli_examples_exit_0(capsys):
    commands = _readme_commands()
    # the two n = 9 lines, which make and survey n9.g6, take about a minute each
    runnable = [argv for argv in commands if "n9.g6" not in argv]
    assert len(commands) - len(runnable) == 2 and runnable
    for argv in runnable:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
