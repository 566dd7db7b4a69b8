"""Command-line interface, run in-process."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from frobtab import characters, cli, straightening
from frobtab.cli import main
from frobtab.standard_monomials import IndexTriple
from frobtab.symfunc import SymPoly, schur_squarefree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_cap2(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "2,1", "--n", "3", "--kind", "2ssyt")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 8
    assert lines == sorted(lines)
    assert "1 2 / 1" in lines


def test_enumerate_classical_default(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "1,1", "--n", "2")
    assert code == 0
    assert out.strip().splitlines() == ["1 / 2"]


@pytest.mark.parametrize("shape", ["2,1", "0,0"])
def test_enumerate_rejects_an_empty_alphabet(capsys, shape):
    code, out, err = run(capsys, "enumerate", "--shape", shape, "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: need n >= 1, got 0\n"


def test_enumerate_rejects_too_many_letters(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "1,0", "--n", "33")
    assert code == 2
    assert out == ""
    assert err == "error: need n <= 32, got 33\n"


def test_straighten_reports_verified_result(capsys):
    code, out, _ = run(
        capsys,
        "straighten",
        "--tableau", "1 2 2 4 5 / 3 3 6 7 7",
        "--a", "5", "--b", "5", "--d", "5", "--n", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert sorted(payload["output"]) == [
        "1 2 3 4 6 / 2 3 5 7 7",
        "1 2 3 5 6 / 2 3 4 7 7",
    ]
    assert payload["input"] == "1 2 2 4 5 / 3 3 6 7 7"


def test_straighten_rejects_bad_tableau(capsys):
    code, _, err = run(
        capsys,
        "straighten",
        "--tableau", "2 1 / 3",
        "--a", "2", "--b", "1", "--d", "1", "--n", "3",
    )
    assert code == 2
    assert "error:" in err


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "--a", "1", "--b", "1", "--d", "1", "--n", "2")
    assert code == 0
    assert json.loads(out) == [{"exps": [1, 1], "coeff": 1}]


def test_character_csv(capsys):
    code, out, _ = run(
        capsys, "character", "--a", "2", "--b", "2", "--d", "1", "--n", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["t1,t2,coeff", "2,2,1"]


def sympoly_output(p, fmt):
    """What ``frobtab character`` printed when characters were ``SymPoly``s."""
    if fmt == "json":
        return json.dumps(p.to_json_entries()) + "\n"
    lines = [",".join(f"t{i}" for i in range(1, p.n + 1)) + ",coeff"]
    lines += [",".join(str(e) for e in exps) + f",{c}" for exps, c in p.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "triple, want",
    [
        ((2, 2, 2, 1), SymPoly.zero(1)),  # degree 4 does not fit on one letter
        ((1, 0, 0, 1), schur_squarefree(1, 0, 1)),
        ((3, 2, 1, 5), schur_squarefree(4, 1, 5)),
    ],
)
def test_character_output_is_that_of_the_weight_expansion(capsys, triple, want, fmt):
    a, b, d, n = (str(v) for v in triple)
    code, out, _ = run(
        capsys, "character", "--a", a, "--b", b, "--d", d, "--n", n, "--format", fmt
    )
    assert code == 0
    assert out == sympoly_output(want, fmt)


def test_verify_all_small_grid(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-a", "2", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert all(p["ok"] for p in payloads)
    assert {(p["a"], p["b"], p["d"], p["n"]) for p in payloads} == {
        (a, b, d, n)
        for n in (1, 2)
        for a in (1, 2)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    }


PINNED_6X8 = "3dedf07214cf7e7f906afe22e418e6705cd3755b0a65923a77f23ea8f733df2d"


@pytest.mark.parametrize(
    "max_a, max_n, lines, want",
    [
        # SHA-256 of the whole report for a <= max_a, n <= max_n
        (6, 6, 498, "dba328736de22f25969475896bae729d237bcbd40bcf998b4f697b457b2c4c77"),
        (7, 7, 833, "23c683251c0f15ba043852301de9be99aab21f735600e83fe5819982403dbff2"),
        (6, 8, 664, PINNED_6X8),
    ],
    ids=["6x6", "7x7", "6x8"],
)
def test_verify_all_stdout_is_pinned(capsys, max_a, max_n, lines, want):
    code, out, _ = run(capsys, "verify-all", "--max-a", str(max_a), "--max-n", str(max_n))
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_verify_all_reaches_32_letters(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-a", "6", "--max-n", "32")
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert len(lines) == 2656
    assert all(json.loads(line)["ok"] for line in lines)
    # the grid is n-major, so its first 664 lines are the 6x8 report
    assert hashlib.sha256("".join(lines[:664]).encode()).hexdigest() == PINNED_6X8


def test_verify_all_grid_file_and_out_file(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("# small grid\nmax_a = 1\nmax_n = 2\n")
    outfile = tmp_path / "results.jsonl"
    code, out, _ = run(capsys, "verify-all", "--grid", str(grid), "--out", str(outfile))
    assert code == 0
    assert str(outfile) in out
    lines = outfile.read_text().strip().splitlines()
    assert len(lines) == 6  # (1,0,0), (1,1,0), (1,1,1) for each of n = 1, 2
    assert all(json.loads(line)["ok"] for line in lines)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_verify_all_writes_each_line_before_the_next_triple(
    tmp_path, capsys, monkeypatch, to_file
):
    # one report of the 18 is made to fail: its line is still written, in
    # order, and the exit code and the --out summary count it
    outfile = tmp_path / "results.jsonl"
    real, printed, written_before = cli.verify_triple, [], []

    def traced(idx):
        if to_file:
            text = outfile.read_text()
        else:
            printed.append(capsys.readouterr().out)
            text = "".join(printed)
        written_before.append(text.count("\n"))
        report = real(idx)
        return replace(report, match=False) if idx == IndexTriple(2, 1, 1, 2) else report

    monkeypatch.setattr(cli, "verify_triple", traced)
    argv = ["verify-all", "--max-a", "2", "--max-n", "2"]
    argv += ["--out", str(outfile)] if to_file else []
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert written_before == list(range(18))
    if to_file:
        assert out == f"18 triples, 1 failures -> {outfile}\n"
        out = outfile.read_text()
    else:
        out = "".join(printed) + out
    failed = [json.loads(line) for line in out.splitlines() if not json.loads(line)["ok"]]
    assert [(p["a"], p["b"], p["d"], p["n"], p["match"]) for p in failed] == [(2, 1, 1, 2, False)]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_a_fault_while_verifying_is_an_internal_error(tmp_path, capsys, monkeypatch, to_file):
    # the support rows of (2, 1, 1, 2) come out with their rows swapped, so
    # rectification raises at (2, 1, 1, n=2), the 15th triple of the grid:
    # the 14 lines before it stay written, and the grid was valid input
    original = characters._exact_support_rows

    def swapped(*key):
        rows = original(*key)
        return [(r2, r1) for r1, r2 in rows] if key == (2, 1, 1, 2) else rows

    monkeypatch.setattr(characters, "_exact_support_rows", swapped)
    characters._support_certificate.cache_clear()
    outfile = tmp_path / "results.jsonl"
    argv = ["verify-all", "--max-a", "2", "--max-n", "2"]
    argv += ["--out", str(outfile)] if to_file else []
    try:
        code, out, err = run(capsys, *argv)
    finally:
        characters._support_certificate.cache_clear()
    assert code == 3
    # the traceback of the fault comes first, then the one-line message
    err_lines = err.splitlines()
    assert err_lines[0] == "Traceback (most recent call last):"
    assert ", in _rectify_rows" in err
    assert err_lines[-1] == (
        "error: verifying (a=2, b=1, d=1, n=2): "
        "rows (1,) / (1, 2) not cap-2 semistandard of shape (2, 1)"
    )
    if to_file:
        assert out == ""
        out = outfile.read_text()
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 14 and all(line["ok"] for line in lines)
    assert (lines[-1]["a"], lines[-1]["b"], lines[-1]["d"], lines[-1]["n"]) == (2, 1, 0, 2)


def test_verify_all_rejects_unknown_grid_keys(tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("max_q = 3\n")
    code, _, err = run(capsys, "verify-all", "--grid", str(grid))
    assert code == 2
    assert "unknown grid keys" in err


def test_verify_all_rejects_too_many_letters_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify_triple", calls.append)
    code, out, err = run(capsys, "verify-all", "--max-a", "2", "--max-n", "33")
    assert code == 2
    assert out == ""
    assert err == "error: max_n must be at most 32, got 33\n"
    assert calls == []


@pytest.mark.parametrize("flag, value", [("--max-n", "0"), ("--max-a", "-1"), ("--max-a", "0")])
def test_verify_all_rejects_an_empty_grid_before_any_work(capsys, monkeypatch, flag, value):
    calls = []
    monkeypatch.setattr(cli, "verify_triple", calls.append)
    code, out, err = run(capsys, "verify-all", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag[2:].replace('-', '_')} must be at least 1, got {value}\n"
    assert calls == []


def test_character_rejects_too_many_letters(capsys):
    code, out, err = run(capsys, "character", "--a", "1", "--b", "1", "--d", "0", "--n", "33")
    assert code == 2
    assert out == ""
    assert err == "error: need 1 <= n <= 32, got 33\n"


def test_straightening_limit_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(straightening, "ITERATION_CAP", 0)
    monkeypatch.setattr(straightening, "_TS_CACHE", {})
    code, out, err = run(
        capsys,
        "straighten",
        "--tableau", "1 2 2 4 5 / 3 3 6 7 7",
        "--a", "5", "--b", "5", "--d", "5", "--n", "7",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "exceeded 0 steps" in err
    assert len(err.splitlines()) == 1


def test_straightening_invariant_is_an_internal_error(capsys, monkeypatch):
    def broken(t, idx):
        raise straightening.StraighteningInvariantError("no junction move applies")

    monkeypatch.setattr(cli, "two_straighten", broken)
    code, out, err = run(
        capsys,
        "straighten",
        "--tableau", "1 2 / 3",
        "--a", "2", "--b", "1", "--d", "1", "--n", "3",
    )
    assert code == 3
    assert out == ""
    assert err == "error: no junction move applies\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--shape", "banana", "--n", "3"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--max-a", "4", "--max-n", "32"],
        ["enumerate", "--shape", "4,2", "--n", "12"],
    ],
    ids=["verify-all", "enumerate"],
)
def test_a_reader_that_closes_stdout_early_gets_exit_141(argv):
    # as `frobtab ... | head -1` does; each command writes far more than a
    # pipe holds (177 KB and 838 KB), so it is still writing when the pipe
    # closes: no error line, no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "frobtab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_an_out_file_that_cannot_be_written_is_bad_input(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "results.jsonl"
    code, out, err = run(capsys, "verify-all", "--max-a", "1", "--max-n", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
