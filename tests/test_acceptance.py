"""Acceptance suite: one test per release criterion.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Expected values come from independently retyped fixtures and from
the reference implementations in oracles.py, never from the library itself.
"""

from __future__ import annotations

import json
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import leetforge
from leetforge import (WordList, apply_rule, audit, builtin_rules,
                       crack, generate, load_hashes, run_benchmark, uplift)
from leetforge.rules import export_hashcat
from oracles import generate_reference, md5_reference, simulate_hashcat_line
from synthetic import BIG_WORDS, PAIR, WIDE_RULES, WIDE_WORDS, cli_env, planted_corpus

RS = builtin_rules()

# Independent transcription of the canonical substitution inventory. Typed
# separately from the library tables so a typo in either side fails loudly.
EXPECTED_SINGLES = [
    ("S1", "a", "0"), ("S2", "a", "1"), ("S3", "a", "4"), ("S4", "a", "8"),
    ("S5", "a", "@"), ("S6", "b", "3"), ("S7", "b", "6"), ("S8", "b", "8"),
    ("S9", "d", "0"), ("S10", "e", "0"), ("S11", "e", "3"), ("S12", "e", "5"),
    ("S13", "e", "8"), ("S14", "f", "4"), ("S15", "g", "6"), ("S16", "g", "9"),
    ("S17", "h", "1"), ("S18", "h", "7"), ("S19", "i", "1"), ("S20", "i", "7"),
    ("S21", "i", "8"), ("S22", "i", "!"), ("S23", "l", "1"), ("S24", "l", "7"),
    ("S25", "l", ";"), ("S26", "l", "!"), ("S27", "m", ","), ("S28", "o", "0"),
    ("S29", "o", "3"), ("S30", "o", "@"), ("S31", "r", "."), ("S32", "s", "1"),
    ("S33", "s", "2"), ("S34", "s", "3"), ("S35", "s", "4"), ("S36", "s", "5"),
    ("S37", "s", "6"), ("S38", "s", "8"), ("S39", "s", "$"), ("S40", "t", "7"),
    ("S41", "t", "8"), ("S42", "v", "7"), ("S43", "z", "?"),
]
EXPECTED_DUALS = [
    ("D1", [("a", "@"), ("o", "0")]),
    ("D2", [("a", "@"), ("i", "1")]),
    ("D3", [("a", "@"), ("l", "1")]),
    ("D4", [("a", "@"), ("e", "3")]),
    ("D5", [("i", "1"), ("o", "0")]),
    ("D6", [("i", "1"), ("e", "3")]),
    ("D7", [("o", "0"), ("e", "3")]),
    ("D8", [("o", "0"), ("l", "1")]),
    ("D9", [("l", "1"), ("e", "3")]),
]
EXPECTED_TRIADS = [
    ("T1", [("a", "@"), ("o", "0"), ("i", "1")]),
    ("T2", [("a", "@"), ("o", "0"), ("l", "1")]),
    ("T3", [("a", "@"), ("o", "0"), ("e", "3")]),
    ("T4", [("a", "@"), ("l", "1"), ("e", "3")]),
    ("T5", [("a", "@"), ("i", "1"), ("e", "3")]),
    ("T6", [("i", "1"), ("o", "0"), ("e", "3")]),
    ("T7", [("l", "1"), ("o", "0"), ("e", "3")]),
    ("T8", [("s", "$"), ("l", "!"), ("o", "@")]),
    ("T9", [("s", "$"), ("i", "!"), ("o", "@")]),
    ("T10", [("s", "$"), ("l", "!"), ("a", "@")]),
    ("T11", [("s", "$"), ("i", "!"), ("a", "@")]),
    ("T12", [("b", "6"), ("g", "9"), ("l", "1")]),
    ("T13", [("b", "6"), ("g", "9"), ("s", "5")]),
    ("T14", [("g", "9"), ("l", "1"), ("s", "5")]),
    ("T15", [("b", "6"), ("l", "1"), ("s", "5")]),
]
EXPECTED_TOP5 = [("i", "1"), ("o", "0"), ("e", "3"), ("l", "1"), ("a", "@")]

# Published base/mangle example pairs; every entry is self-consistent under
# replace-all semantics (each was re-derived by hand before being frozen).
CANONICAL_EXAMPLES = [
    ("stranger", "S1", "str0nger"), ("flappy", "S1", "fl0ppy"),
    ("snatch", "S2", "sn1tch"),
    ("dragon", "S3", "dr4gon"), ("brandon", "S3", "br4ndon"),
    ("creative", "S4", "cre8tive"), ("SKATER", "S4", "SK8TER"),
    ("Dragon", "S5", "Dr@gon"), ("theater", "S5", "the@ter"),
    ("numbers", "S6", "num3ers"),
    ("rabbit", "S7", "ra66it"),
    ("rebecca", "S8", "re8ecca"),
    ("maverick", "S12", "mav5rick"),
    ("dayless", "S13", "dayl8ss"),
    ("california", "S14", "cali4ornia"), ("thefts", "S14", "the4ts"),
    ("maggie", "S15", "ma66ie"), ("tigger", "S15", "ti66er"),
    ("tigger", "S16", "ti99er"),
    ("mohamed", "S18", "mo7amed"),
    ("trinity", "S19", "tr1n1ty"),
    ("princess", "S20", "pr7ncess"),
    ("skier", "S21", "sk8er"),
    ("jessica", "S22", "jess!ca"),
    ("melissa", "S24", "me7issa"),
    ("chelsea", "S25", "che;sea"), ("hollywood", "S25", "ho;;ywood"),
    ("voley", "S26", "vo!ey"),
    ("james", "S27", "ja,es"),
    ("people", "S28", "pe0ple"), ("victoria", "S28", "vict0ria"),
    ("choose", "S29", "ch33se"),
    ("password", "S30", "passw@rd"),
    ("stroh", "S31", "st.oh"),
    ("password", "S33", "pa22word"),
    ("password", "S34", "pa33word"),
    ("cassie", "S36", "ca55ie"), ("monster", "S36", "mon5ter"),
    ("password", "S37", "pa66word"),
    ("password", "S38", "pa88word"),
    ("jessica", "S39", "je$$ica"), ("Password", "S39", "Pa$$word"),
    ("Matthew", "S40", "Ma77hew"),
    ("Seven", "S42", "Se7en"),
    ("gonzalo", "S43", "gon?alo"),
    # examples quoted for the five most common substitutions
    ("monika", "S19", "mon1ka"), ("cookies", "S19", "cook1es"),
    ("falling", "S19", "fall1ng"),
    ("veronica", "S28", "ver0nica"), ("memories", "S28", "mem0ries"),
    ("haters", "S11", "hat3rs"), ("spiderman", "S11", "spid3rman"),
    ("stella", "S11", "st3lla"),
    ("carlos", "S23", "car1os"),
    ("tiffany", "S5", "tiff@ny"), ("sparky", "S5", "sp@rky"),
]


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {detail}")


def test_builtin_rule_inventory():
    """Every builtin rule matches the retyped inventory, pair by pair."""
    start = time.perf_counter()
    assert len(RS) == 67
    for rule, (rid, src, rep) in zip(RS.singles, EXPECTED_SINGLES):
        assert rule.id == rid
        assert [(p.source, p.replacement) for p in rule.pairs] == [(src, rep)]
        assert rule.case_insensitive
    assert len(RS.singles) == len(EXPECTED_SINGLES) == 43
    for group, expected in ((RS.duals, EXPECTED_DUALS), (RS.triads, EXPECTED_TRIADS)):
        assert len(group) == len(expected)
        for rule, (rid, pairs) in zip(group, expected):
            assert rule.id == rid
            assert [(p.source, p.replacement) for p in rule.pairs] == pairs
            assert rule.case_insensitive
    assert [(r.pairs[0].source, r.pairs[0].replacement) for r in RS.top5] == EXPECTED_TOP5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("rule-inventory", f"67 rules verified in {elapsed * 1000:.0f} ms")


def test_canonical_substitution_examples():
    """apply_rule reproduces every self-consistent published example exactly."""
    start = time.perf_counter()
    for base, rule_id, expected in CANONICAL_EXAMPLES:
        got = apply_rule(base, RS.by_id(rule_id))
        assert got == expected, f"{rule_id}({base!r}) -> {got!r}, want {expected!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("substitution-examples",
            f"{len(CANONICAL_EXAMPLES)} examples replayed in {elapsed * 1000:.0f} ms")


def test_generate_equals_brute_force():
    """Streamed candidates match the nested-loop reference on 100 random wordlists."""
    start = time.perf_counter()
    rng = random.Random(0xACCE97)
    alphabet = string.ascii_lowercase + string.ascii_uppercase + "0123456789@$!;,.?"
    for trial in range(100):
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                 for _ in range(rng.randint(1, 50))]
        wl = WordList.from_words(words)
        include_base = trial % 2 == 0
        strict = trial % 3 == 0
        stream = generate(wl, RS, include_base=include_base, strict_multi=strict)
        got = [cand for cand, _, _ in stream]
        records, _ = generate_reference(wl.words, RS, include_base=include_base,
                                        strict_multi=strict)
        expected = {candidate.encode("utf-8", "surrogatepass") for candidate, _, _ in records}
        assert len(got) == len(set(got)), "dedup violated"
        assert set(got) == expected
        assert stream.stats.emitted == len(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("generator-oracle", f"100 wordlists cross-checked in {elapsed:.2f} s")


def test_benchmark_synthetic_ground_truth():
    """1000 words with 100 plain + 100 mangled plants: 100 / 200 / +100.0%."""
    start = time.perf_counter()
    words, hash_text, _, _ = planted_corpus(
        1000, 100, 100, digest_fn=lambda s: md5_reference(s.encode("utf-8")))
    report = run_benchmark(WordList.from_words(words), hash_text, RS)
    assert report.baseline_recovered == 100
    assert report.pattern_recovered == 200
    assert report.uplift_percent == 100.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("synthetic-benchmark",
            f"100 baseline / 200 pattern / +100.0% in {elapsed:.2f} s")


def test_uplift_rounding():
    """The published recovery counts give exactly +75.6%."""
    assert uplift(17210, 30215) == 75.6
    assert uplift(100, 100) == 0.0
    assert uplift(10, 18) == 80.0
    _report("uplift-arithmetic", "uplift(17210, 30215) == 75.6")


def test_audit_detects_every_mangle():
    """10,000 random (word, rule) pairs: audit always finds the exact base."""
    start = time.perf_counter()
    rng = random.Random(0x10EE7)
    pool = ["".join(rng.choice(string.ascii_lowercase)
                    for _ in range(rng.randint(3, 12)))
            for _ in range(2000)]
    dictionary = WordList.from_words(pool)
    words = dictionary.words
    checked = 0
    while checked < 10_000:
        word = words[rng.randrange(len(words))]
        rule = RS[rng.randrange(len(RS))]
        mangled = apply_rule(word, rule)
        if mangled is None:
            continue
        result = audit(mangled, RS, dictionary)
        assert (word, rule.id) in result.findings, \
            f"audit missed {word!r} under {rule.id}"
        assert result.is_pattern_based
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("audit-roundtrip", f"{checked} mangles inverted in {elapsed:.2f} s")


def test_hashcat_export_equivalence():
    """Simulated hashcat substitute tokens equal apply_rule on 1000 words x 67 rules."""
    start = time.perf_counter()
    rng = random.Random(0xE9B07)
    printable = "".join(chr(c) for c in range(0x21, 0x7F))
    words = ["".join(rng.choice(printable) for _ in range(rng.randint(1, 16)))
             for _ in range(1000)]
    lines = export_hashcat(RS).splitlines()
    assert len(lines) == len(RS)
    for word in words:
        for rule, line in zip(RS, lines):
            expected = apply_rule(word, rule) or word
            assert simulate_hashcat_line(line, word) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("hashcat-export", f"67,000 token replays matched in {elapsed:.2f} s")


def test_determinism(tmp_path):
    """gen, crack and detect write byte-identical output under two string hash seeds.

    So do gen's records over the pair pass and p@ss, which share one dedup
    set; over the builtin rules plus X and Y, where wasp and quake dedup in a
    per-word set; and over 3,000 words, written in many batches.
    """
    start = time.perf_counter()
    words, hash_text, _, _ = planted_corpus(3000, 300, 300)
    # case variants, shared mangles and non-ASCII words give dedup work to do
    words += ["password", "Password", "p@ssword", "pa55word", "caf\u00e9", "Stra\u00dfe",
              "pass", "ao"]
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("\n".join(words) + "\n", encoding="utf-8")
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(hash_text + md5_reference(b"p@ssw0rd").hex() + "\n")
    # a cs rule and a chained one send detect to the base search
    rules = tmp_path / "detect.rules"
    rules.write_text("cs\tA>4\tcs\nchain\ta>A,A>b,o>0\tcs\nat\ta>@,s>$\n", encoding="utf-8")
    passwords = "".join(pw + "\n" for pw in
                        ["p4ss", "P4SS", "A0", "b0", "p@$$", "p@ssw0rd", "PA$$WORD",
                         "$tr@\u00dfe", "caf\u00e9", "4bc", words[0], "0" + words[1][1:]])
    pair, wide, wide_rules, big = (tmp_path / name for name in
                                   ("pair.txt", "wide.txt", "wide.rules", "big.txt"))
    for path, text in ((pair, PAIR), (wide, WIDE_WORDS), (wide_rules, WIDE_RULES),
                       (big, BIG_WORDS)):
        path.write_text(text)
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = {**cli_env(), "PYTHONHASHSEED": seed}
        stdout = []
        for argv, stdin in ((["gen", "-w", wordlist, "--include-base",
                              "--provenance", out / "prov.tsv"], None),
                            (["gen", "-w", pair, "--include-base",
                              "--provenance", out / "pair.tsv"], None),
                            (["gen", "-w", wide, "-r", wide_rules, "--include-base",
                              "--provenance", out / "wide.tsv"], None),
                            (["gen", "-w", big, "--include-base",
                              "--provenance", out / "big.tsv"], None),
                            (["crack", "--hashes", hashes, "-w", wordlist,
                              "--potfile", out / "out.pot"], None),
                            (["detect", "--dict", wordlist, "-r", rules, "--stdin"],
                             passwords.encode("utf-8"))):
            proc = subprocess.run([sys.executable, "-m", "leetforge.cli", *map(str, argv)],
                                  env=env, input=stdin, capture_output=True, check=True)
            stdout.append(proc.stdout)
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert set(files) == {"prov.tsv", "out.pot", "pair.tsv", "wide.tsv", "big.tsv"}
        runs.append((stdout, files))
    assert runs[0] == runs[1]
    potfile = runs[0][1]["out.pot"].decode("utf-8").splitlines()
    assert len(potfile) == 601   # 300 plain + 300 mangled plants + p@ssw0rd
    detected = [json.loads(line) for line in runs[0][0][-1].decode("utf-8").splitlines()]
    assert len(detected) == 12
    assert {"base_word": "pAss", "rule_id": "cs"} in detected[0]["findings"]
    assert {"base_word": "ao", "rule_id": "chain"} in detected[2]["findings"]
    assert {"base_word": "stra\u00dfe", "rule_id": "at"} in detected[7]["findings"]
    elapsed = time.perf_counter() - start
    _report("determinism", f"gen, crack and detect byte-identical under PYTHONHASHSEED "
                           f"1 and 2 in {elapsed:.2f} s")


def test_runtime_is_stdlib_only():
    """Importing leetforge and its CLI loads nothing from outside the stdlib.

    -I -S leaves out site-packages, the user site and PYTHON* variables.
    """
    src = str(Path(leetforge.__file__).resolve().parents[1])
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import leetforge, leetforge.cli; "
              "print(*sorted({name.partition('.')[0] for name in sys.modules}))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script, src],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "leetforge" in loaded
    assert loaded - {"__main__", "leetforge"} - sys.stdlib_module_names == set()
    _report("stdlib-only", f"{len(loaded)} top-level modules loaded, all from the stdlib")


def test_throughput_informational():
    """Reports measured MD5 matching throughput; informational, never a gate.

    Candidates are materialized up front so the timed figure is hashing and
    digest lookup, not wordlist mangling.
    """
    words, hash_text, _, _ = planted_corpus(25_000, 100, 100)
    wl = WordList.from_words(words)
    hs = load_hashes(hash_text)
    records = list(generate(wl, RS, include_base=True))
    result = crack(hs, records)
    assert result.throughput > 0
    _report("throughput",
            f"{result.throughput:,.0f} MD5 candidates/s over {result.attempted} "
            f"candidates (informational)")
