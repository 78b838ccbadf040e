"""The benchmark workloads: seeded inputs, the timed calls, and checkers.

Each workload has:

* prepare(seed, workdir, scale) writes the input files and returns
  (spec, oracle). The spec names the files and fixed parameters the timed
  process needs; the oracle holds the expected results, computed here with
  the reference code in oracle.py, once per seed and outside any timing.
  scale shrinks the inputs for the self-tests.
* setup(lf, spec, tr) does what a command does before its first candidate or
  password: build the rule set and load the inputs through the public loaders.
* run(lf, state, tr) does the work and returns (output, items), where items
  counts the candidates or passwords processed.
* check(output, oracle) compares the output with the oracle and returns a dict
  with attempted (results checked), failed (results that are wrong) and
  mismatched (results that differ from the oracle in any way).
* instrument(lf, tr) wraps the bindings one layer uses to call another, so a
  traced run sees the calls that happen inside leetforge, and spans names
  every span a traced pass must record.

Only the generated files reach leetforge. `tr` is tracing.NULL or a
tracing.Tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import string
import sys
import time
from pathlib import Path

import oracle

LETTERS = string.ascii_lowercase


def corpus_words(rng: random.Random, n: int) -> list[str]:
    """Random lowercase words of length 5-10; every 5th gets a 0-99 suffix."""
    words = []
    for i in range(n):
        word = "".join(rng.choices(LETTERS, k=rng.randint(5, 10)))
        if i % 5 == 4:
            word += str(rng.randint(0, 99))
        words.append(word)
    return words


def unique_words(rng: random.Random, n: int, exclude=frozenset()) -> list[str]:
    """n distinct corpus-shaped words, none of them in exclude."""
    out: dict[str, None] = {}
    while len(out) < n:
        for word in corpus_words(rng, n - len(out)):
            if word not in exclude:
                out[word] = None
    return list(out)[:n]


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def random_mangle(rng: random.Random, word: str) -> tuple[str, str] | None:
    """(rule id, candidate) for a random builtin rule that changes word."""
    options = list(oracle.mangles_of(word))
    return rng.choice(options) if options else None


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


class BenchUplift:
    """run_benchmark with the builtin rules, like `leetforge bench`."""

    spans = ("harness.import", "rules.builtin_rules", "corpus.load_wordlist_files",
             "harness.read_hashes", "bench.run_benchmark", "hashstore.load_hashes",
             "generator.base_candidates", "generator.generate", "cracker.crack",
             "generator.iter")
    WORDS, PLANTED, DECOYS, RANDOM_DIGESTS, DUPLICATES = 9000, 300, 300, 3000, 50

    def prepare(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = random.Random(f"bench-uplift:{seed}")
        words = corpus_words(rng, max(20, int(self.WORDS * scale)))
        uniq = list(dict.fromkeys(words))
        wordset = set(uniq)
        mangles = {out for w in uniq for _, out in oracle.mangles_of(w)}
        n = max(2, int(self.PLANTED * scale))
        planted_base = rng.sample(uniq, n)
        planted_mangled: list[str] = []
        while len(planted_mangled) < n:
            picked = random_mangle(rng, rng.choice(uniq))
            if picked is not None:
                planted_mangled.append(picked[1])
        decoys = unique_words(rng, max(2, int(self.DECOYS * scale)), wordset | mangles)
        lines = [md5_hex(p) for p in planted_base + planted_mangled + decoys]
        lines += [rng.randbytes(16).hex() for _ in range(int(self.RANDOM_DIGESTS * scale))]
        lines += rng.sample(lines, max(1, int(self.DUPLICATES * scale)))
        lines = [h.upper() if rng.random() < 0.1 else h for h in lines]
        rng.shuffle(lines)
        write_lines(workdir / "words.txt", words)
        write_lines(workdir / "hashes.txt", lines)
        plain = set(planted_base) | set(planted_mangled)
        spec = {"words": str(workdir / "words.txt"), "hashes": str(workdir / "hashes.txt"),
                "threads": min(2, os.cpu_count() or 1)}
        expected = {
            "wordlist_size": len(uniq),
            "candidate_count": len(wordset | mangles),
            "hash_raw": len(lines),
            "hash_unique": len({h.lower() for h in lines}),
            "baseline_recovered": len(plain & wordset),
            "pattern_recovered": len(plain & (wordset | mangles)),
        }
        return spec, expected

    def instrument(self, lf, tr) -> None:
        tr.wrap(lf.bench, "load_hashes", "hashstore.load_hashes")
        tr.wrap(lf.bench, "crack", "cracker.crack")
        tr.wrap(lf.bench, "generate", "generator.generate", stream=True)
        tr.wrap(lf.bench, "base_candidates", "generator.base_candidates", stream=True)

    def setup(self, lf, spec, tr):
        rs = tr.call("rules.builtin_rules", lf.builtin_rules)
        wl = tr.call("corpus.load_wordlist_files", lf.load_wordlist_files, [spec["words"]])
        hash_bytes = tr.call("harness.read_hashes", Path(spec["hashes"]).read_bytes)
        return rs, wl, hash_bytes, spec["threads"]

    def run(self, lf, state, tr):
        rs, wl, hash_bytes, threads = state
        report = tr.call("bench.run_benchmark", lf.run_benchmark, wl, hash_bytes, rs,
                         threads=threads)
        json.dumps(report.to_dict(), indent=2)   # the report `leetforge bench` prints
        output = {k: getattr(report, k) for k in (
            "wordlist_size", "candidate_count", "hash_raw", "hash_unique",
            "baseline_recovered", "pattern_recovered", "uplift_percent")}
        return output, report.wordlist_size + report.candidate_count

    def check(self, output, expected):
        failed = sum(output[k] != v for k, v in expected.items())
        if not oracle.uplift_matches(output["uplift_percent"], expected["baseline_recovered"],
                                     expected["pattern_recovered"]):
            failed += 1
        return {"attempted": len(expected) + 1, "failed": failed, "mismatched": failed}


class DictPass:
    """A plain dictionary crack, the calls `leetforge crack -r none -t 1 --potfile` makes."""

    spans = ("harness.import", "rules.builtin_rules", "harness.read_hashes",
             "hashstore.load_hashes", "corpus.load_wordlist_files",
             "generator.base_candidates", "generator.iter", "cracker.crack",
             "hashstore.format_potfile", "harness.write_potfile")
    POOL, OVERLAP, PLANTED, DECOYS = 150000, 30000, 1500, 1500

    def prepare(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = random.Random(f"dict-pass:{seed}")
        pool_size = max(30, int(self.POOL * scale))
        pool = unique_words(rng, pool_size)
        half = (pool_size + int(self.OVERLAP * scale)) // 2
        source_a, source_b = pool[:half], pool[pool_size - half:]
        rng.shuffle(source_b)
        source_b += rng.sample(source_b, len(source_b) // 50)   # repeats within one source
        union = set(pool)
        n = max(2, int(self.PLANTED * scale))
        planted = rng.sample(pool, n)
        decoys = unique_words(rng, max(2, int(self.DECOYS * scale)), union)
        # Mangles of dictionary words: a pass without rules must not recover them.
        while len(decoys) < 2 * max(2, int(self.DECOYS * scale)):
            picked = random_mangle(rng, rng.choice(pool))
            if picked is not None and picked[1] not in union:
                decoys.append(picked[1])
        lines = [md5_hex(p) for p in planted + decoys]
        lines += [rng.randbytes(16).hex() for _ in range(max(0, pool_size - len(lines)))]
        rng.shuffle(lines)
        write_lines(workdir / "a.txt", source_a)
        write_lines(workdir / "b.txt", source_b)
        write_lines(workdir / "hashes.txt", lines)
        spec = {"sources": [str(workdir / "a.txt"), str(workdir / "b.txt")],
                "hashes": str(workdir / "hashes.txt"), "potfile": str(workdir / "cracked.pot")}
        expected = {"attempted": len(union), "planted": {md5_hex(p): p for p in planted}}
        return spec, expected

    def instrument(self, lf, tr) -> None:
        pass   # every layer boundary is a call the workload makes itself

    def setup(self, lf, spec, tr):
        tr.call("rules.builtin_rules", lf.builtin_rules)
        hash_bytes = tr.call("harness.read_hashes", Path(spec["hashes"]).read_bytes)
        store = tr.call("hashstore.load_hashes", lf.load_hashes, hash_bytes, "md5")
        wl = tr.call("corpus.load_wordlist_files", lf.load_wordlist_files, spec["sources"])
        return store, wl, spec["potfile"]

    def run(self, lf, state, tr):
        store, wl, potfile = state
        candidates = tr.iterate(tr.call("generator.base_candidates", lf.base_candidates, wl))
        result = tr.call("cracker.crack", lf.crack, store, candidates, algorithm="md5",
                         threads=1, chunk_bytes=lf.DEFAULT_CHUNK_BYTES)
        text = tr.call("hashstore.format_potfile", lf.format_potfile, store)
        tr.call("harness.write_potfile", Path(potfile).write_text, text, encoding="utf-8")
        output = {"attempted": result.attempted, "recovered_new": result.recovered_new,
                  "potfile": potfile}
        return output, result.attempted

    def check(self, output, expected):
        planted = expected["planted"]
        recovered: dict[str, str] = {}
        bad_lines = 0
        for line in Path(output["potfile"]).read_text(encoding="utf-8").splitlines():
            digest, sep, plain = line.partition(":")
            if not sep or oracle.md5_reference(plain.encode("utf-8")).hex() != digest or \
                    digest in recovered:
                bad_lines += 1
            recovered[digest] = plain
        wrong = sum(1 for d, p in recovered.items() if planted.get(d) != p)
        missing = sum(1 for d in planted if d not in recovered)
        counts = (output["attempted"] != expected["attempted"]) + \
            (output["recovered_new"] != len(planted))
        failed = bad_lines + wrong + missing + counts
        attempted = len(planted.keys() | recovered.keys()) + 2
        return {"attempted": attempted, "failed": failed, "mismatched": failed}


_EMITTED = re.compile(r"emitted (\d+) candidates")


class GenProvenance:
    """`leetforge gen --include-base --provenance` run in-process, writing files."""

    spans = ("harness.import", "rules.builtin_rules", "cli.main",
             "corpus.load_wordlist_files", "generator.generate", "generator.iter")
    WORDS = 12000

    def prepare(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = random.Random(f"gen-provenance:{seed}")
        words = corpus_words(rng, max(20, int(self.WORDS * scale)))
        # Some capitalised words, so case-insensitive matching is exercised.
        words = [w.capitalize() if i % 7 == 3 else w for i, w in enumerate(words)]
        write_lines(workdir / "words.txt", words)
        records = oracle.expected_gen(words)
        write_lines(workdir / "expected.tsv", ("\t".join(r) for r in records))
        spec = {"words": str(workdir / "words.txt"), "output": str(workdir / "out.txt"),
                "provenance": str(workdir / "prov.tsv")}
        expected = {"records": str(workdir / "expected.tsv"), "emitted": len(records)}
        return spec, expected

    def instrument(self, lf, tr) -> None:
        tr.wrap(lf.cli, "load_wordlist_files", "corpus.load_wordlist_files")
        tr.wrap(lf.cli, "builtin_rules", "rules.builtin_rules")
        tr.wrap(lf.cli, "generate", "generator.generate", stream=True)

    def setup(self, lf, spec, tr):
        # The word list is loaded inside cli.main, so only the import and the
        # rule set build happen before the command starts.
        tr.call("rules.builtin_rules", lf.builtin_rules)
        return spec

    def run(self, lf, spec, tr):
        argv = ["gen", "-w", spec["words"], "--include-base",
                "--provenance", spec["provenance"], "-o", spec["output"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = tr.call("cli.main", lf.cli.main, argv)
        found = _EMITTED.search(err.getvalue())
        emitted = int(found.group(1)) if found else 0
        output = {"exit_code": code, "emitted": emitted, "output": spec["output"],
                  "provenance": spec["provenance"],
                  "cli_files": [spec["output"], spec["provenance"]]}
        return output, emitted

    def check(self, output, expected):
        want = Path(expected["records"]).read_text(encoding="utf-8").splitlines()
        got = Path(output["provenance"]).read_text(encoding="utf-8").splitlines()
        cands = Path(output["output"]).read_text(encoding="utf-8").splitlines()
        failed = (output["exit_code"] != 0) + (output["emitted"] != len(got))
        failed += abs(len(cands) - len(got))
        failed += sum(1 for c, line in zip(cands, got) if line.split("\t", 1)[0] != c)
        if got != want:
            # Count each kind of difference: duplicate candidates, records the
            # reference mangle does not reproduce, records never emitted and,
            # when only the order is wrong, the misplaced records.
            wrong = len(got) - len(set(got)) + len(set(want) - set(got))
            wrong += sum(1 for line in got if not _replays(line))
            failed += wrong or sum(1 for a, b in zip(got, want) if a != b)
        return {"attempted": max(len(want), len(got)), "failed": failed, "mismatched": failed}


def _replays(line: str) -> bool:
    """A provenance record whose candidate the reference mangle reproduces."""
    fields = line.split("\t")
    if len(fields) != 3:
        return False
    cand, base, rule_id = fields
    if rule_id == oracle.BASE_RULE_ID:
        return cand == base
    char_map = oracle.RULE_BY_ID.get(rule_id)
    return char_map is not None and oracle.mangle(base, char_map) == cand


class _TracedDictionary:
    """Stands in for the audit dictionary and times its lookups."""

    def __init__(self, wordlist, tr):
        self._wordlist = wordlist
        self._tr = tr

    def __getattr__(self, attr):
        # Other attributes go to the word list, so only missing_spans decides
        # whether a layer went silent.
        return getattr(self._wordlist, attr)

    def contains_casefold(self, word):
        return self._tr.call("corpus.contains_casefold", self._wordlist.contains_casefold, word)


class AuditMixed:
    """audit() plus to_dict() over a mixed password stream, like `leetforge detect`."""

    spans = ("harness.import", "rules.builtin_rules", "corpus.load_wordlist_files",
             "harness.read_passwords", "detector.audit", "detector.deleet",
             "corpus.contains_casefold")
    WORDS, PASSWORDS = 20000, 8000
    # Shares of the password stream; the remainder is non-pattern strings.
    MANGLED, BASE_HAS_REPLACEMENT, VERBATIM, LONG_RUNS = 0.40, 0.15, 0.20, 0.05

    def prepare(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = random.Random(f"audit-mixed:{seed}")
        words = unique_words(rng, max(20, int(self.WORDS * scale)))
        n = max(20, int(self.PASSWORDS * scale))
        passwords: list[str] = []
        while len(passwords) < int(n * self.MANGLED):
            picked = random_mangle(rng, rng.choice(words))
            if picked is not None:
                passwords.append(picked[1])
        # Bases that already contain one of the rule's replacement characters
        # (admin1 -> adm1n1): the rule's output keeps the original character.
        with_digits = [w for w in words if any(c.isdigit() for c in w)]
        while len(passwords) < int(n * (self.MANGLED + self.BASE_HAS_REPLACEMENT)):
            word = rng.choice(with_digits)
            options = [out for rule_id, out in oracle.mangles_of(word)
                       if set(oracle.RULE_BY_ID[rule_id].values()) & set(word)]
            if options:
                passwords.append(rng.choice(options))
        passwords += rng.sample(words, int(n * self.VERBATIM))
        runs = int(n * self.LONG_RUNS)
        for _ in range(runs):
            length = rng.randint(16, 40)
            passwords.append("1" * length if rng.random() < 0.5
                             else "".join(rng.choices("10@3!$", k=length)))
        symbols = LETTERS + string.digits + "!@#$%&*?"
        while len(passwords) < n:
            passwords.append("".join(rng.choices(symbols, k=rng.randint(6, 14))))
        rng.shuffle(passwords)
        write_lines(workdir / "dict.txt", words)
        write_lines(workdir / "passwords.txt", passwords)
        index: dict[str, list[tuple[str, str]]] = {}
        for word in words:
            for rule_id, out in oracle.mangles_of(word):
                index.setdefault(out, []).append((word, rule_id))
        folded = {w.casefold() for w in words}
        expected, gaps = [], []
        for pw in passwords:
            found = set(index.get(pw, ()))
            if pw.casefold() in folded:
                found.add((pw, oracle.BASE_RULE_ID))
            expected.append(sorted(found))
            gaps.append(sorted(f for f in found if oracle.base_holds_replacement(*f)))
        spec = {"dict": str(workdir / "dict.txt"), "passwords": str(workdir / "passwords.txt")}
        return spec, {"findings": expected, "known_gaps": gaps}

    def instrument(self, lf, tr) -> None:
        tr.wrap(lf.detector, "deleet", "detector.deleet")

    def setup(self, lf, spec, tr):
        rs = tr.call("rules.builtin_rules", lf.builtin_rules)
        dictionary = tr.call("corpus.load_wordlist_files", lf.load_wordlist_files,
                             [spec["dict"]])
        text = tr.call("harness.read_passwords", Path(spec["passwords"]).read_text,
                       encoding="utf-8")
        passwords = [line.rstrip("\r") for line in text.split("\n") if line.strip()]
        if tr.enabled:
            dictionary = _TracedDictionary(dictionary, tr)
        return rs, dictionary, passwords

    def run(self, lf, state, tr):
        rs, dictionary, passwords = state
        audit = lf.audit

        def one(pw):
            return audit(pw, rs, dictionary).to_dict()

        results = []
        latencies = []
        clock = time.perf_counter
        if tr.enabled:
            for pw in passwords:
                results.append(tr.call("detector.audit", one, pw))
        else:
            for pw in passwords:
                t0 = clock()
                results.append(one(pw))
                latencies.append(clock() - t0)
        return {"results": results, "latencies": latencies}, len(passwords)

    def check(self, output, expected):
        # A password fails when audit reports a finding not in the index, or
        # misses one outside the seed's known gap (bases that already hold
        # one of the rule's replacement characters). Every miss, known gap
        # or not, counts in mismatched and missed.
        wrong = mismatched = missed = findings = 0
        for got_doc, want, gaps in zip(output["results"], expected["findings"],
                                       expected["known_gaps"]):
            got = {(f["base_word"], f["rule_id"]) for f in got_doc["findings"]}
            want = {tuple(f) for f in want}
            findings += len(got)
            missed += len(want - got)
            wrong += bool(got - want) or bool(want - got - {tuple(f) for f in gaps})
            mismatched += got != want
        short = abs(len(output["results"]) - len(expected["findings"]))
        return {"attempted": len(expected["findings"]), "failed": wrong + short,
                "mismatched": mismatched + short, "missed": missed, "findings": findings}


WORKLOADS = {
    "bench-uplift": BenchUplift(),
    "dict-pass": DictPass(),
    "gen-provenance": GenProvenance(),
    "audit-mixed": AuditMixed(),
}

def import_program(workload: str):
    """Import leetforge, and its CLI module for the workload that drives the CLI."""
    lf = importlib.import_module("leetforge")
    if workload == "gen-provenance":
        importlib.import_module("leetforge.cli")
    return lf


def write_inputs(name: str, seed: int, workdir: Path, src: str) -> None:
    """Write a workload's inputs, spec.json and oracle.json into workdir."""
    spec, expected = WORKLOADS[name].prepare(seed, workdir)
    spec.update(workload=name, src=src)
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (workdir / "oracle.json").write_text(json.dumps(expected), encoding="utf-8")


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED WORKDIR SRC
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4])
