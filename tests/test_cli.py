"""CLI dispatch, exit codes, and stream discipline."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import leetforge
from leetforge import cli
from leetforge.cli import main
from leetforge.errors import HashStoreError
from oracles import generate_reference
from synthetic import (BIG_WORDS, PAIR, SHARED_RULES, WIDE_RULES, WIDE_WORDS, cli_env,
                       planted_corpus)


@pytest.fixture
def wordfile(tmp_path):
    p = tmp_path / "words.txt"
    p.write_text("password\ndragon\njessica\n")
    return p


P_AT_SS_MD5 = hashlib.md5(b"p@ss").hexdigest()


@pytest.fixture
def pass_files(tmp_path):
    """w.txt holding pass, pair.txt holding PAIR, h.txt holding the MD5 of p@ss."""
    for name, text in (("w.txt", "pass\n"), ("pair.txt", PAIR), ("h.txt", P_AT_SS_MD5 + "\n")):
        (tmp_path / name).write_text(text)
    return tmp_path / "w.txt", tmp_path / "pair.txt", tmp_path / "h.txt"


def gen_stats(path):
    """emitted, suppressed_duplicates and by_arity from a gen --stats-json file."""
    doc = json.loads(path.read_text())
    return doc["emitted"], doc["suppressed_duplicates"], doc["by_arity"]


def crack_matches(out):
    """attempted and each match's (plaintext, base_word, rule_id) from crack --json."""
    doc = json.loads(out)
    return doc["attempted"], [(m["plaintext"], m["base_word"], m["rule_id"])
                              for m in doc["matches"]]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal(command, message):
    """What run_cli returns for a run refused before any work: exit 1,
    nothing on stdout, one stderr line naming the command."""
    return 1, "", f"leetforge {command}: {message}\n"


def test_no_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_unknown_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert out == ""


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--bogus")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "COMMAND" in out
    code, _, _ = run_cli(capsys, "gen", "--help")
    assert code == 0


def test_missing_wordlist_file_is_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "-w", tmp_path / "missing.txt")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_malformed_rule_file_is_input_error(capsys, tmp_path, wordfile):
    rules = tmp_path / "rules.tsv"
    rules.write_text("X\tnot-a-pair\n")
    code, out, err = run_cli(capsys, "gen", "-w", wordfile, "-r", rules)
    assert code == 2
    assert "line 1" in err


def test_uncaseable_rule_source_is_input_error(capsys, tmp_path, wordfile):
    rules = tmp_path / "rules.tsv"
    rules.write_text("X\t\u00df>s\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "-w", wordfile, "-r", rules)
    assert code == 2
    assert out == ""
    assert "line 1" in err


def test_reserved_base_rule_id_is_input_error(capsys, tmp_path, wordfile):
    rules = tmp_path / "rules.tsv"
    rules.write_text("BASE\ta>@,o>0\n")
    prov = tmp_path / "prov.tsv"
    code, out, err = run_cli(capsys, "gen", "-w", wordfile, "-r", rules,
                             "--include-base", "--provenance", prov)
    assert code == 2
    assert out == ""
    assert "line 1" in err and "reserved" in err
    assert not prov.exists()
    code, out, _ = run_cli(capsys, "detect", "-p", "p@ssw0rd", "--dict", wordfile, "-r", rules)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag", [["-t", "2"], ["--chunk-kib", "8"]])
def test_removed_crack_knobs_are_usage_errors(capsys, tmp_path, wordfile, flag):
    hashes = tmp_path / "h.txt"
    hashes.write_text(hashlib.md5(b"dragon").hexdigest() + "\n")
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile, *flag)
    assert code == 1
    assert out == ""


def test_gen_writes_candidates_to_stdout(capsys, wordfile):
    code, out, err = run_cli(capsys, "gen", "-w", wordfile)
    assert code == 0
    lines = out.splitlines()
    assert "p@ssw0rd" in lines
    assert "dr4gon" in lines
    # stderr carries the summary, stdout only candidates
    assert "emitted" in err
    assert "emitted" not in out


def test_gen_include_base_puts_words_first(capsys, wordfile):
    code, out, _ = run_cli(capsys, "gen", "-w", wordfile, "--include-base")
    lines = out.splitlines()
    assert lines[:3] == ["password", "dragon", "jessica"]


def test_gen_deterministic_output(capsys, wordfile):
    _, first, _ = run_cli(capsys, "gen", "-w", wordfile, "--include-base")
    _, second, _ = run_cli(capsys, "gen", "-w", wordfile, "--include-base")
    assert first == second


def test_gen_output_provenance_and_stats(capsys, tmp_path, wordfile):
    out_file = tmp_path / "cands.txt"
    prov_file = tmp_path / "prov.tsv"
    stats_file = tmp_path / "stats.json"
    code, out, _ = run_cli(capsys, "gen", "-w", wordfile, "-o", out_file,
                           "--provenance", prov_file, "--stats-json", stats_file)
    assert code == 0
    assert out == ""
    cands = out_file.read_text().splitlines()
    prov = [line.split("\t") for line in prov_file.read_text().splitlines()]
    assert [p[0] for p in prov] == cands
    assert ["p@ssw0rd", "password", "D1"] in prov
    stats = json.loads(stats_file.read_text())
    assert stats["emitted"] == len(cands)
    assert stats["by_arity"]["base"] == 0


def test_gen_files_match_reference_on_non_ascii_rules(capsys, tmp_path):
    # byte-table rules (ASCII) mixed with str-table rules: a non-ASCII source,
    # case-insensitive, and non-ASCII replacements, one of them case-sensitive
    rule_text = ("A\ta>4\nSE\ts>$,e>3\nAE\t\u00e4>a\nEU\te>\u20ac\tcs\n"
                 "OE\to>\u00f6\nUE\t\u00fc>u,s>5\n")
    rs = leetforge.parse_rules(rule_text)
    assert {r.byte_table is None for r in rs} == {False, True}
    words = ["Passwort", "K\u00e4se", "Kase", "\u00c4RGER", "stra\u00dfe", "\u00d6l",
             "caf\u00e9", "SeeSaw", "M\u00fcsli", "B\u00dcSSE", "kaese"]
    word_file, rule_file = tmp_path / "words.txt", tmp_path / "mixed.rules"
    word_file.write_bytes("".join(w + "\n" for w in words).encode("utf-8"))
    rule_file.write_bytes(rule_text.encode("utf-8"))
    out_file, prov_file = tmp_path / "cands.txt", tmp_path / "prov.tsv"
    code, out, _ = run_cli(capsys, "gen", "-w", word_file, "-r", rule_file, "--include-base",
                           "-o", out_file, "--provenance", prov_file)
    assert (code, out) == (0, "")
    records, _ = generate_reference(words, rs, include_base=True)
    assert any(not c.isascii() for c, _, _ in records)
    assert out_file.read_bytes() == "".join(f"{c}\n" for c, _, _ in records).encode("utf-8")
    assert prov_file.read_bytes() == "".join(
        f"{c}\t{base}\t{rule_id}\n" for c, base, rule_id in records).encode("utf-8")


@pytest.mark.parametrize("n_words", [0, 1, cli._WRITE_BATCH - 1, cli._WRITE_BATCH,
                                     cli._WRITE_BATCH + 1, 2 * cli._WRITE_BATCH + 1])
def test_gen_outputs_are_the_records_one_per_line_at_batch_boundaries(capsys, tmp_path,
                                                                      n_words):
    words = [f"pass{i}" for i in range(n_words)]
    word_file = tmp_path / "words.txt"
    word_file.write_text("".join(w + "\n" for w in words))
    records = list(leetforge.generate(leetforge.WordList.from_words(words), leetforge.RuleSet(()),
                                      include_base=True))
    assert len(records) == n_words
    want_out = b"".join(c + b"\n" for c, _, _ in records)
    want_prov = b"".join(b"%s\t%s\t%s\n" % (c, base.encode(), rule_id.encode())
                         for c, base, rule_id in records)
    out_file, prov_file = tmp_path / "cands.txt", tmp_path / "prov.tsv"
    argv = ("gen", "-w", word_file, "-r", "none", "--include-base", "--provenance", prov_file)
    assert run_cli(capsys, *argv, "-o", out_file) == (
        0, "", f"emitted {n_words} candidates (0 duplicates suppressed)\n")
    assert out_file.read_bytes() == want_out
    assert prov_file.read_bytes() == want_prov
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.encode()) == (0, want_out)
    assert prov_file.read_bytes() == want_prov


def test_gen_files_match_reference_over_several_batches(capsys, tmp_path):
    words = [f"{stem}{i}" for i in range(90) for stem in ("password", "Dragon", "secret")]
    word_file = tmp_path / "words.txt"
    word_file.write_text("".join(w + "\n" for w in words))
    out_file, prov_file = tmp_path / "cands.txt", tmp_path / "prov.tsv"
    code, out, _ = run_cli(capsys, "gen", "-w", word_file, "--include-base",
                           "-o", out_file, "--provenance", prov_file)
    assert (code, out) == (0, "")
    records, _ = generate_reference(words, leetforge.builtin_rules(), include_base=True)
    assert len(records) > 3 * cli._WRITE_BATCH
    assert out_file.read_text() == "".join(f"{c}\n" for c, _, _ in records)
    assert prov_file.read_text() == "".join(
        f"{c}\t{base}\t{rule_id}\n" for c, base, rule_id in records)


@pytest.mark.parametrize("first,second", [("-o", "--provenance"), ("-o", "--stats-json"),
                                          ("--provenance", "--stats-json")])
def test_gen_refuses_two_outputs_to_one_file(capsys, tmp_path, wordfile, first, second):
    target = tmp_path / "out.txt"
    # the second flag names the file through another spelling of its path
    assert run_cli(capsys, "gen", "-w", wordfile, "--include-base",
                   first, target, second, tmp_path / "." / "out.txt") == refusal(
        "gen", f"{first} and {second} name the same file; give each its own path")
    assert not target.exists()


def test_gen_stdout_output_does_not_clash_with_a_file_named_dash(capsys, monkeypatch,
                                                                 tmp_path, wordfile):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "gen", "-w", wordfile, "-o", "-", "--provenance", "-")
    assert code == 0
    assert [line.split("\t")[0] for line in (tmp_path / "-").read_text().splitlines()] \
        == out.splitlines()


def test_gen_provenance_refuses_word_with_tab(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("password\npass\tword\ndrag\ton\n")
    out_file, prov_file = tmp_path / "cands.txt", tmp_path / "prov.tsv"
    code, out, err = run_cli(capsys, "gen", "-w", words, "-o", out_file,
                             "--provenance", prov_file)
    assert code == 2
    assert out == ""
    # the message names the first word that holds a TAB
    assert err == ("leetforge: error: word 'pass\\tword' contains a TAB, "
                   "which --provenance uses as its field separator\n")
    assert not out_file.exists() and not prov_file.exists()
    # without --provenance the word is an ordinary candidate
    code, out, _ = run_cli(capsys, "gen", "-w", words, "--include-base")
    assert code == 0
    assert "pass\tword\n" in out


def test_gen_into_closed_pipe_exits_quietly(tmp_path):
    # `leetforge gen ... | head -1`: the reader leaves after one line while most
    # of the output (far more than one pipe buffer) is still unwritten.
    words = tmp_path / "w.txt"
    words.write_text("".join(f"password{i}\n" for i in range(5000)))
    proc = subprocess.Popen([sys.executable, "-m", "leetforge.cli", "gen", "-w", str(words)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.strip()
    assert proc.returncode == 0
    assert err == b""


def test_gen_counts_the_builtin_mangles_of_pass(capsys, pass_files):
    """gen counts the builtin mangles of pass: 14 of its 15 suppressed copies
    are duals and triads that repeat S5, S36 or S39, and T11 repeats T10."""
    words, _, _ = pass_files
    stats, prov = words.parent / "s.json", words.parent / "prov.tsv"
    assert run_cli(capsys, "gen", "-w", words, "--stats-json", stats)[0] == 0
    assert gen_stats(stats) == (14, 15, {"base": 0, "single": 13, "dual": 0, "triad": 1})
    assert run_cli(capsys, "gen", "-w", words, "--no-dedup", "--provenance", prov)[0] == 0
    first, repeats = {}, {}
    for line in prov.read_text().splitlines():
        candidate, base, rule_id = line.split("\t")
        assert base == "pass"
        if candidate in first:
            repeats[rule_id] = first[candidate]
        else:
            first[candidate] = rule_id
    assert (len(first), len(repeats)) == (14, 15)
    assert repeats == {**dict.fromkeys(["D1", "D2", "D3", "D4", "T1", "T2", "T3", "T4", "T5"],
                                       "S5"),
                       "T8": "S39", "T9": "S39", "T11": "T10",
                       "T13": "S36", "T14": "S36", "T15": "S36"}


def test_gen_counts_what_a_pair_sharing_a_fold_key_emits_and_suppresses(capsys, pass_files):
    """pass and p@ss share a fold key and so one dedup set: gen counts what
    the pair emits and suppresses."""
    _, pair, _ = pass_files
    stats = pair.parent / "pair.json"
    assert run_cli(capsys, "gen", "-w", pair, "--include-base", "--stats-json", stats)[0] == 0
    assert gen_stats(stats) == (22, 24, {"base": 2, "single": 19, "dual": 0, "triad": 1})


def test_gen_opens_with_the_base_words_under_rules_as_under_none(capsys, pass_files):
    """gen under the builtin rules opens with the two lines gen -r none
    writes for the pair, since one loop streams the base words with or
    without rules."""
    _, pair, _ = pass_files
    code, out, _ = run_cli(capsys, "gen", "-w", pair, "--include-base")
    assert (code, out.splitlines()[:2]) == (0, PAIR.splitlines())


def test_gen_dedups_in_a_per_word_set_where_a_block_leaves_a_witness_out(capsys, tmp_path):
    """Where blocks leave a witness out, gen equals --no-dedup with repeats
    dropped. SHARED_RULES over ?a, whose fold key is its own: R1-R24 each
    repeat R0's ?@; the plans count 22 of these copies, and ?a's per-word
    set catches the 2 whose witness their block left out. The builtin rules
    plus X and Y over WIDE_WORDS leave witnesses out too, but their one set
    hit is Jaqk's Y mangle 7@q6, in the set that jaqk and Jaqk share by fold
    key; the per-word sets of wasp and quake catch nothing."""
    cases = (("shared", "?a\n", SHARED_RULES,
              (2, 24, {"base": 1, "single": 0, "dual": 1, "triad": 0})),
             ("wide", WIDE_WORDS, WIDE_RULES,
              (44, 54, {"base": 4, "single": 32, "dual": 1, "triad": 7})))
    for name, word_text, rule_text, counts in cases:
        words, rules, stats = (tmp_path / f"{name}.txt", tmp_path / f"{name}.rules",
                               tmp_path / f"{name}.json")
        words.write_text(word_text)
        rules.write_text(rule_text)
        argv = ("gen", "-w", words, "-r", rules, "--include-base")
        code, out, _ = run_cli(capsys, *argv, "--stats-json", stats)
        _, every, _ = run_cli(capsys, *argv, "--no-dedup")
        assert (code, out) == (0, "".join(f"{c}\n" for c in dict.fromkeys(every.splitlines())))
        assert gen_stats(stats) == counts


def test_gen_writes_3000_words_alike_to_every_output(capsys, tmp_path):
    """gen writes its records in batches; over 3,000 words (many batches) the
    candidates in the provenance file equal the -o file, stdout equals it
    too, and it has one line per emitted record."""
    words = tmp_path / "big.txt"
    words.write_text(BIG_WORDS)
    out_file, prov, stats = tmp_path / "big.out", tmp_path / "big.tsv", tmp_path / "big.json"
    assert run_cli(capsys, "gen", "-w", words, "--include-base", "-o", out_file,
                   "--provenance", prov, "--stats-json", stats)[:2] == (0, "")
    candidates = out_file.read_text()
    assert "".join(line.split("\t")[0] + "\n"
                   for line in prov.read_text().splitlines()) == candidates
    assert run_cli(capsys, "gen", "-w", words, "--include-base")[:2] == (0, candidates)
    assert candidates.count("\n") == gen_stats(stats)[0]


def test_crack_prints_the_mangle_it_recovers(capsys, pass_files):
    """crack prints the mangle it recovers."""
    words, _, hashes = pass_files
    assert run_cli(capsys, "crack", "--hashes", hashes, "-w", words)[:2] == (
        0, f"{P_AT_SS_MD5}:p@ss\n")


def test_crack_over_the_pair_matches_its_base_word_once(capsys, pass_files):
    """crack over the pair attempts the 22 candidates gen emits and matches
    p@ss once, as the base word (the mangle of pass repeats it)."""
    _, pair, hashes = pass_files
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", pair, "--json")
    assert (code, *crack_matches(out)) == (0, 22, [("p@ss", "p@ss", "BASE")])


def test_crack_end_to_end(capsys, tmp_path, wordfile):
    hashes = tmp_path / "hashes.txt"
    target = hashlib.md5(b"p@ssw0rd").hexdigest()
    decoy = hashlib.md5(b"unreachable").hexdigest()
    hashes.write_text(f"{target}\n{decoy}\n")
    pot = tmp_path / "out.pot"
    code, out, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile,
                             "--potfile", pot)
    assert code == 0
    assert out == f"{target}:p@ssw0rd\n"
    assert pot.read_text() == f"{target}:p@ssw0rd\n"
    assert "recovered 1" in err


_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@_DEV_FULL
def test_crack_prints_its_recoveries_when_the_potfile_write_fails(capsys, tmp_path, wordfile):
    # /dev/full: every write fails as on a full disk, after all the work is done
    hashes = tmp_path / "hashes.txt"
    target = hashlib.md5(b"p@ssw0rd").hexdigest()
    hashes.write_text(target + "\n")
    code, out, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile,
                             "--potfile", "/dev/full")
    assert (code, out) == (2, f"{target}:p@ssw0rd\n")
    assert err.startswith("leetforge: error: ") and os.strerror(errno.ENOSPC) in err


@pytest.mark.parametrize("count,potfile,code", [
    (2000, "p.pot", 0),
    pytest.param(2000, "/dev/full", 2, marks=_DEV_FULL),
    pytest.param(1, "/dev/full", 2, marks=_DEV_FULL),
], ids=["written", "write-fails", "write-fails-output-buffered"])
def test_crack_potfile_when_stdout_is_closed(tmp_path, count, potfile, code):
    # `leetforge crack ... --potfile FILE | true`: the reader is gone before the
    # first recovery is printed. The potfile is still written, and a failed write
    # still exits 2, whether the recoveries overflow stdout's buffer or wait in it.
    words = [f"word{i}" for i in range(count)]
    wordlist, hashes = tmp_path / "w.txt", tmp_path / "h.txt"
    pot = tmp_path / potfile  # /dev/full, being absolute, stays itself
    wordlist.write_text("".join(w + "\n" for w in words))
    hashes.write_text("".join(hashlib.md5(w.encode()).hexdigest() + "\n" for w in words))
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as into any pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "leetforge.cli", "crack", "--hashes",
                               str(hashes), "-w", str(wordlist), "-r", "none",
                               "--potfile", str(pot)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.decode().startswith("leetforge: error: ")
        assert os.strerror(errno.ENOSPC) in proc.stderr.decode()
    else:
        assert pot.read_bytes() == "".join(sorted(
            f"{hashlib.md5(w.encode()).hexdigest()}:{w}\n" for w in words)).encode()


def test_crack_no_dedup_prints_each_recovery_once(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("pass\n")
    target = hashlib.md5(b"p@ss").hexdigest()
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(target + "\n")
    pot = tmp_path / "out.pot"
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", words,
                           "--no-dedup", "--potfile", pot)
    assert code == 0
    assert out.encode("utf-8") == pot.read_bytes() == f"{target}:p@ss\n".encode()
    # --json keeps every match, each with the rule that made it
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", words,
                           "--no-dedup", "--json")
    matches = json.loads(out)["matches"]
    assert len(matches) > 1
    assert len({m["rule_id"] for m in matches}) == len(matches)
    assert {(m["plaintext"], m["base_word"]) for m in matches} == {("p@ss", "pass")}

def test_crack_json_summary(capsys, tmp_path, wordfile):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hashlib.md5(b"dragon").hexdigest() + "\n")
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile,
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["recovered_new"] == 1
    assert doc["matches"][0]["plaintext"] == "dragon"
    assert doc["matches"][0]["rule_id"] == "BASE"


def test_crack_rules_none_tries_base_words_only(capsys, tmp_path, wordfile):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hashlib.md5(b"p@ssw0rd").hexdigest() + "\n")
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile,
                           "-r", "none")
    assert code == 0
    assert out == ""


def test_crack_rules_none_ignores_strict_multi_and_no_dedup(capsys, tmp_path):
    wordlist, hashes = tmp_path / "w.txt", tmp_path / "h.txt"
    wordlist.write_text("pass\np@ss\nPass\ncaf\u00e9\n", encoding="utf-8")
    hashes.write_text("".join(hashlib.md5(w.encode()).hexdigest() + "\n"
                              for w in ("p@ss", "caf\u00e9", "p@55")))
    runs = []
    for options in ([], ["--strict-multi"], ["--no-dedup"], ["--strict-multi", "--no-dedup"]):
        pot = tmp_path / f"{len(runs)}.pot"
        code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordlist,
                               "-r", "none", "--json", "--potfile", pot, *options)
        assert code == 0
        doc = json.loads(out)
        del doc["elapsed_seconds"], doc["throughput"]
        runs.append((doc, pot.read_text(encoding="utf-8")))
    assert runs[0][0]["attempted"] == 4
    assert sorted(m["plaintext"] for m in runs[0][0]["matches"]) == ["caf\u00e9", "p@ss"]
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("command", ["crack", "bench"])
def test_crack_rules_none_patterns_only_is_usage_error(capsys, tmp_path, wordfile, command):
    """crack and bench refuse --patterns-only with no rules (exit 1)."""
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hashlib.md5(b"dragon").hexdigest() + "\n")
    pot = tmp_path / "out.pot"
    assert run_cli(capsys, command, "--hashes", hashes, "-w", wordfile,
                   "-r", "none", "--patterns-only", "--potfile", pot) == refusal(
        command, "--patterns-only needs rules to mangle with (-r none gives none)")
    assert not pot.exists()


def test_crack_malformed_hashes_is_input_error(capsys, tmp_path, wordfile):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text("zz\n")
    code, _, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile)
    assert code == 2
    assert "line 1" in err


def test_crack_digest_with_inner_whitespace_is_input_error(capsys, tmp_path, wordfile):
    """crack refuses (exit 2, nothing on stdout) a 33-character digest line
    that skipping its space would decode to 16 bytes."""
    hashes = tmp_path / "hashes.txt"
    for line, message in [("0011 2233445566778899aabbccdd ee", "whitespace inside the digest"),
                          ("0011 2233445566778899aabbccddeeff",
                           "expected 32 hex characters, got 33")]:
        hashes.write_text(hashlib.md5(b"dragon").hexdigest() + "\n" + line + "\n")
        code, out, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile)
        assert code == 2
        assert out == ""
        assert f"line 2: {message}" in err


def test_crack_help_names_rules_none(capsys):
    for command in ("gen", "crack", "detect", "bench", "export-rules"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "'none' for no rules; ./none names a file called none" in " ".join(out.split())


def test_rules_none_is_an_empty_rule_set_in_every_command(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("w.txt").write_text("dragon\npassword\ndragon\n")
    code, out, _ = run_cli(capsys, "gen", "-w", "w.txt", "-r", "none", "--include-base")
    assert (code, out) == (0, "dragon\npassword\n")
    code, out, _ = run_cli(capsys, "detect", "-p", "password", "-p", "p@ssw0rd",
                           "--dict", "w.txt", "-r", "none")
    assert code == 0
    assert [json.loads(line)["findings"] for line in out.splitlines()] == \
        [[{"base_word": "password", "rule_id": "BASE"}], []]
    assert run_cli(capsys, "export-rules", "-r", "none")[:2] == (0, "")
    Path("h.txt").write_text(hashlib.md5(b"dragon").hexdigest() + "\n"
                             + hashlib.md5(b"dr4gon").hexdigest() + "\n")
    code, out, _ = run_cli(capsys, "bench", "-w", "w.txt", "--hashes", "h.txt", "-r", "none")
    assert code == 0
    doc = json.loads(out)
    assert (doc["baseline_recovered"], doc["pattern_recovered"]) == (1, 1)
    assert doc["uplift_percent"] == "0.0"


def test_rules_none_streams_the_pairs_two_base_words(capsys, pass_files):
    """With -r none crack, gen and bench stream the pair's two base words,
    dedup nothing and recover p@ss as the base word."""
    _, pair, hashes = pass_files
    code, out, _ = run_cli(capsys, "crack", "--hashes", hashes, "-w", pair, "-r", "none", "--json")
    assert (code, *crack_matches(out)) == (0, 2, [("p@ss", "p@ss", "BASE")])
    stats = pair.parent / "none-gen.json"
    assert run_cli(capsys, "gen", "-w", pair, "-r", "none", "--include-base",
                   "--stats-json", stats)[:2] == (0, PAIR)
    assert gen_stats(stats) == (2, 0, {"base": 2, "single": 0, "dual": 0, "triad": 0})
    code, out, _ = run_cli(capsys, "bench", "-w", pair, "--hashes", hashes, "-r", "none")
    doc = json.loads(out)
    assert (code, doc["baseline_recovered"], doc["pattern_recovered"]) == (0, 1, 1)


def test_rules_none_does_not_read_a_file_called_none(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("w.txt").write_text("dragon\n")
    Path("none").write_text("X\to>0\n")
    code, out, _ = run_cli(capsys, "gen", "-w", "w.txt", "-r", "none", "--include-base")
    assert (code, out) == (0, "dragon\n")
    code, out, _ = run_cli(capsys, "gen", "-w", "w.txt", "-r", "./none", "--include-base")
    assert (code, out) == (0, "dragon\ndrag0n\n")


@pytest.mark.parametrize("command", ["crack", "bench"])
@pytest.mark.parametrize("text", ["", "# comments only\n"])
def test_crack_patterns_only_with_empty_rule_file_is_usage_error(capsys, tmp_path,
                                                                  text, command):
    rules = tmp_path / "empty.rules"
    rules.write_text(text)
    # neither the digest list nor the word list exists: the refusal comes
    # before either is read
    assert run_cli(capsys, command, "--hashes", tmp_path / "missing.txt",
                   "-w", tmp_path / "missing.words", "-r", rules, "--patterns-only") == refusal(
        command, f"--patterns-only needs rules to mangle with (-r {rules} gives none)")


@pytest.mark.parametrize("input_kind", ["digest list", "rule file"])
def test_invalid_utf8_input_is_input_error_with_line(capsys, tmp_path, wordfile, input_kind):
    bad = tmp_path / "bad.txt"
    if input_kind == "digest list":
        bad.write_bytes(hashlib.md5(b"dragon").hexdigest().encode() + b"\n\xff\n")
        argv = ["crack", "--hashes", bad, "-w", wordfile]
    else:
        bad.write_bytes(b"A\ta>@\n# caf\xe9\n")
        argv = ["gen", "-w", wordfile, "-r", bad]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{input_kind}, line 2: invalid UTF-8" in err


def test_detect_emits_jsonl(capsys, wordfile):
    code, out, _ = run_cli(capsys, "detect", "-p", "p@ssw0rd", "-p", "zzz",
                           "--dict", wordfile)
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 2
    assert docs[0]["is_pattern_based"] is True
    assert {"base_word": "password", "rule_id": "D1"} in docs[0]["findings"]
    assert docs[1]["is_pattern_based"] is False


def test_detect_traces_the_mangle_back_to_its_word_and_rule(capsys, pass_files):
    """detect traces the mangle back to its word and rule."""
    words, _, _ = pass_files
    code, out, _ = run_cli(capsys, "detect", "--dict", words, "-p", "p@ss")
    [doc] = map(json.loads, out.splitlines())
    assert (code, doc["is_pattern_based"]) == (0, True)
    assert {"base_word": "pass", "rule_id": "S5"} in doc["findings"]


def test_detect_keeps_the_passwords_case_in_the_base(capsys, monkeypatch, pass_files):
    """detect keeps the password's case in the base: P@SS -> PaSS."""
    words, _, _ = pass_files
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"p@ss\nP@SS\n")))
    code, out, _ = run_cli(capsys, "detect", "--dict", words, "--stdin")
    [_, doc] = map(json.loads, out.splitlines())
    assert code == 0
    assert {"base_word": "PaSS", "rule_id": "S5"} in doc["findings"]


@pytest.mark.parametrize("rule,word,password,base", [
    ("A>4", "pass", "p4ss", "pAss"),
    ("a>A,A>b,o>0", "ao", "A0", "ao"),
], ids=["cs", "chained-cs"])
def test_detect_searches_the_base_of_a_cs_rule(capsys, tmp_path, rule, word, password, base):
    """For the cs rule A>4, detect searches the base p4ss -> pAss and, for
    the chained cs rule a>A,A>b,o>0, whose A stops the shared base Ao (it
    re-applies to b0), searches A0 -> ao."""
    rules, words = tmp_path / "cs.rules", tmp_path / "words.txt"
    rules.write_text(f"X\t{rule}\tcs\n")
    words.write_text(word + "\n")
    code, out, _ = run_cli(capsys, "detect", "--dict", words, "-r", rules, "-p", password)
    [doc] = map(json.loads, out.splitlines())
    assert (code, doc["findings"]) == (0, [{"base_word": base, "rule_id": "X"}])


def test_detect_reapplies_an_ascii_rule_to_a_non_ascii_base(capsys, tmp_path):
    """detect re-applies the ASCII rule a>@ to the UTF-8 bytes of a
    non-ASCII base (c@fé -> café)."""
    words = tmp_path / "cafe.txt"
    words.write_text("caf\u00e9\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "detect", "--dict", words, "-p", "c@f\u00e9")
    [doc] = map(json.loads, out.splitlines())
    assert code == 0
    assert {"base_word": "caf\u00e9", "rule_id": "S5"} in doc["findings"]


def test_detect_without_passwords_is_usage_error(capsys, wordfile):
    """detect refuses a run with no passwords (exit 1, nothing on stdout)."""
    assert run_cli(capsys, "detect", "--dict", wordfile) == refusal(
        "detect", "no passwords given (use --password or --stdin)")


def test_detect_checks_for_passwords_before_reading_inputs(capsys, tmp_path):
    assert run_cli(capsys, "detect", "--dict", tmp_path / "missing.txt") == refusal(
        "detect", "no passwords given (use --password or --stdin)")


def test_detect_empty_stdin_audits_nothing(capsys, monkeypatch, wordfile):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
    code, out, err = run_cli(capsys, "detect", "--dict", wordfile, "--stdin")
    assert code == 0
    assert out == err == ""

def test_detect_stdin_decodes_utf8_and_strips_crlf(capsys, monkeypatch, tmp_path):
    words = tmp_path / "words.txt"
    words.write_bytes("p\u00e4ssword\n".encode("utf-8"))
    # stdin's text layer as in a Latin-1 locale: the bytes must still read as UTF-8
    data = "p\u00e4ssw0rd\r\n \r\n\r\nzzz\r\n".encode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1",
                                                       newline="\n"))
    code, out, _ = run_cli(capsys, "detect", "--dict", words, "--stdin")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["password"] for d in docs] == ["p\u00e4ssw0rd", "zzz"]
    assert {"base_word": "p\u00e4ssword", "rule_id": "S28"} in docs[0]["findings"]


def test_detect_stdin_invalid_utf8_is_input_error(wordfile):
    # `printf 'p@ssw0rd\np\xffw\n' | leetforge detect --stdin`, through a real pipe:
    # the line before the bad one is audited, then the run stops
    proc = subprocess.run([sys.executable, "-m", "leetforge.cli", "detect", "--dict",
                           str(wordfile), "--stdin"], input=b"p@ssw0rd\np\xffw\n",
                          capture_output=True, env=cli_env(), timeout=60)
    assert proc.returncode == 2
    assert [json.loads(line)["password"] for line in proc.stdout.splitlines()] == ["p@ssw0rd"]
    assert b"stdin, line 2: invalid UTF-8" in proc.stderr


def test_detect_stdin_output_does_not_depend_on_pipe_writes(wordfile):
    # the same bytes through a real pipe, once in one write and once a line at a
    # time (the bad line written only after the good one's JSON came out)
    argv = [sys.executable, "-m", "leetforge.cli", "detect", "--dict", str(wordfile), "--stdin"]
    good, bad = b"p@ssw0rd\n", b"p\xffw\n"
    whole = subprocess.run(argv, input=good + bad, capture_output=True, env=cli_env(),
                           timeout=60)
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env())
    try:
        proc.stdin.write(good)
        proc.stdin.flush()
        first = []
        reader = threading.Thread(target=lambda: first.append(proc.stdout.readline()))
        reader.start()
        reader.join(timeout=60)
        assert not reader.is_alive(), "no output before stdin closed"
        proc.stdin.write(bad)
        proc.stdin.close()
        assert proc.wait(timeout=60) == whole.returncode == 2
        assert first[0] + proc.stdout.read() == whole.stdout
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()


def test_detect_stdin_streams_each_line(wordfile):
    # the first JSON line comes out while stdin is still open
    proc = subprocess.Popen([sys.executable, "-m", "leetforge.cli", "detect", "--dict",
                             str(wordfile), "--stdin"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    try:
        proc.stdin.write(b"p@ssw0rd\n")
        proc.stdin.flush()
        first = []
        reader = threading.Thread(target=lambda: first.append(proc.stdout.readline()))
        reader.start()
        reader.join(timeout=60)
        assert not reader.is_alive(), "no output before stdin closed"
        assert json.loads(first[0])["password"] == "p@ssw0rd"
        proc.stdin.write(b"zzz\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert json.loads(proc.stdout.read())["password"] == "zzz"
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()


class _Pieces(io.RawIOBase):
    """A byte stream whose reads return the given pieces one by one."""

    def __init__(self, pieces):
        self._pieces = list(pieces)

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self._pieces:
            return 0
        piece = self._pieces.pop(0)
        buffer[:len(piece)] = piece
        return len(piece)


def test_detect_stdin_lines_split_across_reads(capsys, monkeypatch, wordfile):
    # a line split between reads is one password; the BOM is dropped only at
    # the start of the stream; line numbers count across reads
    pieces = [b"\xef\xbb\xbfp@ss", b"w0rd\r\n\xef\xbb\xbfzz", b"z\n \n", b"dr4gon\np\xff\n"]
    stdin = io.TextIOWrapper(io.BufferedReader(_Pieces(pieces)), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "detect", "--dict", wordfile, "--stdin")
    assert code == 2
    assert "stdin, line 5: invalid UTF-8" in err
    # every line before the bad one was audited, also the one that arrived with it
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["password"] for d in docs] == ["p@ssw0rd", "\ufeffzzz", "dr4gon"]


def test_export_rules_builtin(capsys):
    code, out, _ = run_cli(capsys, "export-rules")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 67
    assert lines[0] == "sa0 sA0"


def test_removed_export_builtin_flag_is_usage_error(capsys, tmp_path):
    # the default already exports the builtin set; the flag used to override -r
    rules = tmp_path / "custom.rules"
    rules.write_text("X\tk>x\n")
    code, out, _ = run_cli(capsys, "export-rules", "-r", rules, "--builtin")
    assert code == 1
    assert out == ""


def test_export_rules_native_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "export-rules", "--format", "native")
    assert code == 0
    assert len(out.splitlines()) == 67
    rules_file = tmp_path / "rules.tsv"
    rules_file.write_text(out)
    code2, out2, _ = run_cli(capsys, "export-rules", "-r", rules_file,
                             "--format", "native")
    assert code2 == 0
    assert out2 == out


@pytest.mark.parametrize("bad, message", [
    ("C\ta>b,b>a\n", "rule 'C': pairs a>b,b>a chain into a cycle; no token order replays them"),
    ("E\t\u00e9>e\n", "rule 'E': character '\u00e9' has no hashcat token form"),
], ids=["cycle", "non-ascii"])
def test_export_rules_refuses_what_hashcat_cannot_replay(capsys, tmp_path, bad, message):
    # a cycle or a character outside printable ASCII fails the whole export
    # with exit 2, so no line of it is written; the native format keeps both
    rules = tmp_path / "bad.rules"
    rules.write_bytes(("S5\ta>@\n" + bad).encode("utf-8"))
    assert run_cli(capsys, "export-rules", "-r", rules) == (2, "", f"leetforge: error: {message}\n")
    code, out, err = run_cli(capsys, "export-rules", "-r", rules, "--format", "native")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == rules.read_bytes()


def test_rule_file_with_line_separator_chars_replays_byte_for_byte(capsys, tmp_path):
    # str.splitlines breaks a line at each of these; a rule file line ends at \n only
    seps = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    text = "".join(f"X{i}\ta>{sep}\nY{i}\t{sep}>b\tcs\n" for i, sep in enumerate(seps))
    rules = tmp_path / "seps.rules"
    rules.write_bytes(text.encode("utf-8"))
    code, out, err = run_cli(capsys, "export-rules", "-r", rules, "--format", "native")
    assert code == 0, err
    assert out.encode("utf-8") == rules.read_bytes()


def test_stats_table_and_json(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x\ny\n")
    b.write_text("y\nz\n")
    code, out, _ = run_cli(capsys, "stats", "-w", a, "-w", b)
    assert code == 0
    assert "a.txt" in out and "4" in out and "3" in out
    code, out, _ = run_cli(capsys, "stats", "-w", a, "-w", b, "--json")
    doc = json.loads(out)
    assert doc["raw_total"] == 4
    assert doc["unique_words"] == 3
    assert doc["sources"][0] == {"name": str(a), "words": 2}


@pytest.mark.parametrize("data,counts", [
    (b"pass\n", (1, 1, 1)),
    (b"pass\r\np@ss\r\r\na\rb\n\r\npass\n\n", (4, 4, 3)),
], ids=["word", "carriage-returns"])
def test_stats_counts_the_words(capsys, tmp_path, data, counts):
    r"""stats counts the word, and strips trailing CRs (CRLF, a doubled CR, a
    CR-only line) but keeps an inner one (a\rb is its own word)."""
    words = tmp_path / "words.txt"
    words.write_bytes(data)
    code, out, _ = run_cli(capsys, "stats", "-w", words, "--json")
    doc = json.loads(out)
    assert (code, (doc["sources"][0]["words"], doc["raw_total"], doc["unique_words"])) == (
        0, counts)


def test_same_named_word_lists_keep_their_paths(capsys, tmp_path):
    a = tmp_path / "a" / "words.txt"
    b = tmp_path / "b" / "words.txt"
    for path in (a, b):
        path.parent.mkdir()
    a.write_text("x\n")
    b.write_text("y\nz\n")
    code, out, _ = run_cli(capsys, "stats", "-w", a, "-w", b, "--json")
    assert code == 0
    assert json.loads(out)["sources"] == [{"name": str(a), "words": 1},
                                          {"name": str(b), "words": 2}]
    b.write_bytes(b"y\n\xff\n")
    code, out, err = run_cli(capsys, "stats", "-w", a, "-w", b)
    assert code == 2
    assert f"{b}, line 2: invalid UTF-8" in err


def _bench_inputs(tmp_path, n_words, n_plain, n_mangled):
    """A planted_corpus word list and digest list as files, and its planted words."""
    words, hash_text, plain, mangled = planted_corpus(n_words, n_plain, n_mangled)
    wordlist, hashes = tmp_path / "w.txt", tmp_path / "h.txt"
    wordlist.write_text("\n".join(words) + "\n")
    hashes.write_text(hash_text)
    return wordlist, hashes, plain, mangled


def test_bench_end_to_end(capsys, tmp_path):
    wordlist, hashes, _, _ = _bench_inputs(tmp_path, 100, 10, 10)
    report_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "bench", "-w", wordlist, "--hashes", hashes,
                             "--json", report_file, "--table")
    assert code == 0
    doc = json.loads(out)
    assert doc["baseline_recovered"] == 10
    assert doc["pattern_recovered"] == 20
    assert doc["uplift_percent"] == "100.0"
    assert "threads" not in doc["options"]
    assert json.loads(report_file.read_text()) == doc
    assert "uplift" in err


def test_bench_finds_the_mangle_only_in_the_pattern_phase(capsys, pass_files):
    """bench finds the mangle crack recovers only in the pattern phase."""
    words, _, hashes = pass_files
    code, out, _ = run_cli(capsys, "bench", "-w", words, "--hashes", hashes)
    doc = json.loads(out)
    assert (code, doc["baseline_recovered"], doc["pattern_recovered"]) == (0, 0, 1)


def test_bench_potfile_holds_the_pattern_phase(capsys, tmp_path):
    wordlist, hashes, plain, mangled = _bench_inputs(tmp_path, 40, 8, 8)
    pot = tmp_path / "bench.pot"
    code, out, _ = run_cli(capsys, "bench", "-w", wordlist, "--hashes", hashes,
                           "--potfile", pot)
    assert code == 0 and json.loads(out)["pattern_recovered"] == 16
    assert pot.read_text() == "".join(sorted(
        f"{hashlib.md5(w.encode()).hexdigest()}:{w}\n" for w in plain + mangled))


def test_bench_pattern_phase_recovers_the_baseline_and_more(capsys, tmp_path):
    wordlist, hashes, _, _ = _bench_inputs(tmp_path, 120, 30, 25)
    pot = tmp_path / "pattern.pot"
    code, out, _ = run_cli(capsys, "bench", "-w", wordlist, "--hashes", hashes,
                           "--potfile", pot)
    doc = json.loads(out)
    words = wordlist.read_text().split()
    planted = {bytes.fromhex(line) for line in hashes.read_text().split()}
    baseline = {hashlib.md5(w.encode()).digest() for w in words} & planted
    recovered = {bytes.fromhex(line.split(":", 1)[0]) for line in pot.read_text().splitlines()}
    assert code == 0
    assert len(baseline) == doc["baseline_recovered"] == 30
    assert baseline < recovered
    assert doc["pattern_recovered"] == len(recovered) == 55


@_DEV_FULL
def test_bench_prints_its_report_when_the_potfile_write_fails(capsys, tmp_path):
    # /dev/full: every write fails as on a full disk, after all the work is done
    wordlist, hashes, _, _ = _bench_inputs(tmp_path, 40, 8, 8)
    code, out, err = run_cli(capsys, "bench", "-w", wordlist, "--hashes", hashes,
                             "--potfile", "/dev/full")
    assert code == 2
    assert json.loads(out)["pattern_recovered"] == 16
    assert err.startswith("leetforge: error: ") and os.strerror(errno.ENOSPC) in err


def test_bench_potfile_when_stdout_is_closed(tmp_path):
    # `leetforge bench ... --potfile FILE | true`: the potfile is still written
    wordlist, hashes, plain, mangled = _bench_inputs(tmp_path, 40, 8, 8)
    pot = tmp_path / "bench.pot"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "leetforge.cli", "bench", "--hashes",
                               str(hashes), "-w", str(wordlist), "--potfile", str(pot)],
                              stdout=write_end, stderr=subprocess.PIPE, env=cli_env(),
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(pot.read_text().splitlines()) == len(plain + mangled)


@pytest.mark.parametrize("flag,options", [("--patterns-only", {"patterns_only": True}),
                                          ("--strict-multi", {"strict_multi": True}),
                                          ("--no-dedup", {"dedup": False})])
def test_bench_flags_reach_run_benchmark(capsys, tmp_path, flag, options):
    words = tmp_path / "w.txt"
    words.write_text("pass\np4ss\ndragon\nsolo\njessica\n")
    rules = tmp_path / "r.rules"
    rules.write_text("D\ta>4,o>0\nS\ts>$\n")
    hashes = tmp_path / "h.txt"
    hashes.write_text("".join(hashlib.md5(w.encode()).hexdigest() + "\n"
                              for w in ("dragon", "p4ss", "dr4g0n", "pa$$")))
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "bench", "-w", words, "--hashes", hashes, "-r", rules,
                         flag, "--json", report_file)
    assert code == 0

    def report(**kwargs):
        doc = leetforge.run_benchmark(
            leetforge.load_wordlist_files([str(words)]), hashes.read_bytes(),
            leetforge.parse_rules(rules.read_bytes()), ruleset_name=str(rules),
            **kwargs).to_dict()
        return {k: v for k, v in doc.items()
                if k not in ("started_at", "finished_at", "throughput")}

    expected = report(**options)
    assert {k: v for k, v in json.loads(report_file.read_text()).items()
            if k in expected} == expected
    # each flag changes what is generated, so a dropped flag would show
    assert expected["candidate_count"] != report()["candidate_count"]


@pytest.mark.parametrize("spelling", ["report.json", "./report.json"])
def test_bench_refuses_json_and_potfile_to_one_file(capsys, monkeypatch, tmp_path, spelling):
    monkeypatch.chdir(tmp_path)
    # the inputs do not exist: the clash is refused before any of them is read
    assert run_cli(capsys, "bench", "-w", "missing.txt", "--hashes", "missing.hashes",
                   "--json", "report.json", "--potfile", spelling) == refusal(
        "bench", "--json and --potfile name the same file; give each its own path")
    assert not (tmp_path / "report.json").exists()



@pytest.mark.parametrize("argv,target", [
    (["crack", "--hashes", "h.txt", "-w", "w.txt", "--potfile", "./h.txt"], "h.txt"),
    (["gen", "-w", "w.txt", "-o", "./w.txt"], "w.txt"),
    (["gen", "-w", "w.txt", "-r", "r.rules", "-o", "./r.rules"], "r.rules"),
    (["bench", "-w", "w.txt", "--hashes", "h.txt", "--json", "./h.txt"], "h.txt"),
    (["gen", "-w", "w.txt", "-o", "w-link.txt"], "w.txt"),
], ids=["crack-potfile-hashes", "gen-output-wordlist", "gen-output-rules", "bench-json-hashes",
        "gen-output-hard-link-to-wordlist"])
def test_output_may_not_replace_an_input(capsys, monkeypatch, tmp_path, argv, target):
    monkeypatch.chdir(tmp_path)
    inputs = {"w.txt": b"password\n", "r.rules": b"A\ta>@\n",
              "h.txt": hashlib.md5(b"p@ssword").hexdigest().encode() + b"\n"}
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    os.link(tmp_path / "w.txt", tmp_path / "w-link.txt")
    assert run_cli(capsys, *argv) == refusal(
        argv[0], f"{argv[argv.index(target) - 1]} and {argv[-2]} name the same file; "
                 f"give each its own path")
    assert (tmp_path / target).read_bytes() == inputs[target]


_OUTPUTS = [
    ["gen", "-w", "w.txt", "-o"],
    ["gen", "-w", "w.txt", "--provenance"],
    ["gen", "-w", "w.txt", "--stats-json"],
    ["crack", "--hashes", "h.txt", "-w", "w.txt", "--potfile"],
    ["bench", "-w", "w.txt", "--hashes", "h.txt", "--json"],
    ["bench", "-w", "w.txt", "--hashes", "h.txt", "--potfile"],
]
_OUTPUT_IDS = ["gen-output", "gen-provenance", "gen-stats-json", "crack-potfile", "bench-json",
               "bench-potfile"]


@pytest.mark.parametrize("argv,message", [
    *[(argv + ["nodir/out"], f"{argv[-1]} nodir/out: directory nodir does not exist")
      for argv in _OUTPUTS],
    *[(argv + [path], f"{argv[-1]} {path} is a directory")
      for argv in _OUTPUTS for path in ("adir", ".")],
    *[(argv + [""], f"{argv[-1]}: the path is empty") for argv in _OUTPUTS],
], ids=[*_OUTPUT_IDS, *(f"{i}-is-{name}" for i in _OUTPUT_IDS for name in ("adir", "dot")),
        *(f"{i}-is-empty" for i in _OUTPUT_IDS)])
def test_output_in_a_missing_directory_is_refused_before_any_work(capsys, monkeypatch,
                                                                   tmp_path, argv, message):
    """crack refuses a potfile that is a directory (exit 1, nothing on
    stdout), as every command refuses an output it could not write. An
    empty path (an unset shell variable) is refused too, not skipped."""
    # the inputs do not exist: a check made after reading them would exit 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert run_cli(capsys, *argv) == refusal(argv[0], message)


def test_import_loads_no_dataclasses_inspect_or_datetime():
    # these cost about half of the package's import time, which every run pays
    probe = ("import sys; before = set(sys.modules); import leetforge.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "leetforge.cli" in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "datetime", "copy"}
    assert loaded & unwanted == set()

@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    words = tmp_path / "words.txt"
    words.write_bytes("stra\u00dfe\n".encode("utf-8"))
    target = "str4\u00dfe".encode("utf-8")
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hashlib.md5(target).hexdigest() + "\n")
    rules = tmp_path / "sharp.rules"
    rules.write_bytes("X\t\u00df>x\tcs\n".encode("utf-8"))
    out_file = tmp_path / "cands.txt"
    env = {**cli_env(), "PYTHONIOENCODING": encoding}

    def leetforge(*argv):
        proc = subprocess.run([sys.executable, "-m", "leetforge.cli", *map(str, argv)],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    stdout = leetforge("gen", "-w", words)
    assert leetforge("gen", "-w", words, "-o", out_file) == b""
    assert stdout == out_file.read_bytes()
    [(digest, plaintext)] = [line.split(b":", 1) for line in
                             leetforge("crack", "--hashes", hashes, "-w", words).splitlines()]
    assert hashlib.md5(plaintext).hexdigest().encode() == digest
    assert leetforge("export-rules", "-r", rules, "--format", "native") == rules.read_bytes()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out == f"leetforge {leetforge.__version__}\n"


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version = "([^"]*)"$', pyproject.read_text(encoding="utf-8"), re.M)
    assert match is not None
    assert match.group(1) == leetforge.__version__


def test_runtime_errors_exit_3(capsys, monkeypatch, tmp_path, wordfile):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hashlib.md5(b"p@ssw0rd").hexdigest() + "\n")

    def fail_with(exc):
        def crack(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "crack", crack)

    fail_with(HashStoreError("digest width 20 != 16 for md5"))
    code, out, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile)
    assert (code, out) == (3, "")
    assert err == "leetforge: error: digest width 20 != 16 for md5\n"
    fail_with(RuntimeError("worker lost"))
    code, out, err = run_cli(capsys, "crack", "--hashes", hashes, "-w", wordfile)
    assert (code, out) == (3, "")
    assert err == "leetforge: unexpected error: RuntimeError: worker lost\n"
