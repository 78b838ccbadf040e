"""Digest computation and the matching engine."""

from __future__ import annotations

import hashlib
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

import leetforge
from leetforge import (AlgorithmMismatchError, CandidateStream, HashStoreError, RuleSet,
                       UnknownAlgorithmError, WordList, base_candidates, builtin_rules,
                       crack, digest_of, format_potfile, generate, load_hashes)
from leetforge.cracker import _CONSTRUCTORS
from oracles import md5_reference
from synthetic import planted_corpus, random_custom_rules

RS = builtin_rules()


def test_digest_of_empty_string_vector():
    assert digest_of("").hex() == "d41d8cd98f00b204e9800998ecf8427e"
    assert digest_of("") == md5_reference(b"")


def test_digest_of_agrees_with_reference_md5():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(0, 200)
        data = bytes(rng.randrange(256) for _ in range(n))
        assert digest_of(data) == md5_reference(data)
    assert digest_of("a") == md5_reference(b"a")
    assert digest_of("café") == md5_reference("café".encode("utf-8"))


def test_md5_matches_reference_at_padding_edges():
    # 55 bytes is the longest input whose length fits in the final block
    for n in (0, 55, 56, 63, 64, 65):
        data = bytes(range(n))
        assert digest_of(data) == md5_reference(data), n
        assert _CONSTRUCTORS["md5"](data).digest() == md5_reference(data), n


def test_sha_digests_match_hashlib():
    for data in (b"", b"p@ssw0rd", "caf\u00e9".encode(), bytes(range(65)), b"x" * 4096):
        assert digest_of(data, "sha1") == hashlib.sha1(data).digest()
        assert digest_of(data, "sha256") == hashlib.sha256(data).digest()


def test_md5_uses_builtin_module_when_importable():
    builtin = pytest.importorskip("_md5")
    assert _CONSTRUCTORS["md5"] is builtin.md5
    assert _CONSTRUCTORS["sha1"] is hashlib.sha1
    assert _CONSTRUCTORS["sha256"] is hashlib.sha256


_FALLBACK_SCRIPT = """
import hashlib, json, sys
sys.modules["_md5"] = None
from leetforge import WordList, builtin_rules, crack, digest_of, generate, load_hashes
from leetforge.cracker import _CONSTRUCTORS
assert _CONSTRUCTORS["md5"] is hashlib.md5
inputs = json.loads(sys.argv[1])
digests = {alg: [digest_of(w, alg).hex() for w in inputs] for alg in ("md5", "sha1", "sha256")}
result = crack(load_hashes(sys.argv[2]), generate(WordList.from_words(inputs), builtin_rules()))
print(json.dumps({"digests": digests, "matches": result.to_dict()["matches"],
                  "attempted": result.attempted, "recovered_new": result.recovered_new}))
"""


def test_hashlib_fallback_gives_identical_digests_and_crack_result():
    inputs = ["password", "dragon", "caf\u00e9", "x" * 64]
    hash_text = "".join(digest_of(p).hex() + "\n" for p in ("p@ssw0rd", "dr4gon", "c@f\u00e9"))
    src = str(Path(leetforge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FALLBACK_SCRIPT, json.dumps(inputs), hash_text],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    fallback = json.loads(out.stdout)
    result = crack(load_hashes(hash_text), generate(WordList.from_words(inputs), RS))
    assert result.recovered_new == 3
    assert fallback == {
        "digests": {alg: [digest_of(w, alg).hex() for w in inputs]
                    for alg in ("md5", "sha1", "sha256")},
        "matches": result.to_dict()["matches"],
        "attempted": result.attempted, "recovered_new": result.recovered_new}


def test_lone_surrogate_hashes_as_surrogatepass_bytes():
    word = "pass\udc80word"
    data = "p@ss\udc80word".encode("utf-8", "surrogatepass")
    assert digest_of("p@ss\udc80word") == md5_reference(data)
    hs = load_hashes(md5_reference(data).hex() + "\n")
    result = crack(hs, generate(WordList.from_words([word]), RS))
    assert [(m.plaintext, m.base_word) for m in result.matches] == [("p@ss\udc80word", word)]
    assert result.recovered_new == 1
    assert hs.recovered[md5_reference(data)] == "p@ss\udc80word"


def test_digest_of_is_deterministic_and_checked():
    assert digest_of("x") == digest_of("x")
    assert len(digest_of("x", "sha1")) == 20
    assert len(digest_of("x", "sha256")) == 32
    with pytest.raises(UnknownAlgorithmError):
        digest_of("x", "md4")


def test_crack_recovers_planted_pattern():
    hs = load_hashes(digest_of("p@ssw0rd").hex() + "\n")
    wl = WordList.from_words(["password"])
    result = crack(hs, generate(wl, RS))
    assert result.recovered_new == 1
    assert len(result.matches) == 1
    m = result.matches[0]
    assert (m.plaintext, m.base_word, m.rule_id) == ("p@ssw0rd", "password", "D1")
    assert m.digest == md5_reference(b"p@ssw0rd")
    assert m.hex() == m.digest.hex()
    assert hs.recovered[m.digest] == "p@ssw0rd"


def test_crack_empty_stream():
    hs = load_hashes(digest_of("x").hex() + "\n")
    result = crack(hs, iter([]))
    assert result.attempted == 0
    assert result.recovered_new == 0
    assert result.matches == []


def test_crack_counts_attempts_including_duplicates():
    hs = load_hashes(digest_of("aa").hex() + "\n")
    recs = [(b"aa", "aa", "BASE")] * 5
    result = crack(hs, iter(recs))
    assert result.attempted == 5
    assert len(result.matches) == 5
    assert result.recovered_new == 1  # same digest only counts once
    assert {m.plaintext for m in result.matches} == {"aa"}


def test_crack_hashes_each_candidate_once(monkeypatch):
    # every hit is recorded with the digest crack computed, never hashed again
    calls = []
    md5 = _CONSTRUCTORS["md5"]
    monkeypatch.setitem(_CONSTRUCTORS, "md5", lambda data: calls.append(data) or md5(data))
    words, hash_text, _, _ = planted_corpus(200, 40, 40)
    hs = load_hashes(hash_text)
    result = crack(hs, generate(WordList.from_words(words), RS,
                                include_base=True, dedup=False))
    assert result.recovered_new == 80
    assert len(result.matches) > 80   # dedup off: some digests are hit more than once
    assert len(calls) == result.attempted


def test_mark_recovered_keeps_its_checks_after_crack():
    words, hash_text, plain, _ = planted_corpus(50, 10, 10)
    hs = load_hashes(hash_text)
    crack(hs, generate(WordList.from_words(words), RS, include_base=True))
    assert len(hs.recovered) == 20
    with pytest.raises(HashStoreError, match="does not hash"):
        hs.mark_recovered(digest_of(plain[0]), plain[1])
    with pytest.raises(HashStoreError, match="not in the store"):
        hs.mark_recovered(digest_of("absent"), "absent")
    assert hs.mark_recovered(digest_of(plain[0]), plain[0]) is False


def test_crack_rejects_algorithm_mismatch():
    hs = load_hashes(digest_of("x").hex() + "\n")
    with pytest.raises(AlgorithmMismatchError):
        crack(hs, iter([]), algorithm="sha1")


def test_crack_matches_sorted_by_digest():
    words = [f"w{i}" for i in range(50)]
    hs = load_hashes("".join(digest_of(w).hex() + "\n" for w in words))
    result = crack(hs, base_candidates(WordList.from_words(words)))
    hexes = [m.digest.hex() for m in result.matches]
    assert hexes == sorted(hexes)
    assert result.recovered_new == 50


def test_crack_is_exhaustive_against_oracle():
    rng = random.Random(22)
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
             for _ in range(300)]
    wl = WordList.from_words(words)
    # plant a mix of reachable and unreachable digests
    planted = [digest_of(w) for w in wl.words[::3]]
    planted += [digest_of(w.upper() + "!") for w in wl.words[::7]]
    hs = load_hashes("".join(d.hex() + "\n" for d in planted))
    result = crack(hs, base_candidates(wl))
    expected = {digest_of(w) for w in wl.words} & set(planted)
    assert {m.digest for m in result.matches} == expected
    assert result.recovered_new == len(expected)
    assert result.attempted == len(wl)
    for m in result.matches:
        assert md5_reference(m.plaintext.encode()) == m.digest


def test_crack_second_run_recovers_nothing_new():
    words, hash_text, _, _ = planted_corpus(50, 10, 10)
    hs = load_hashes(hash_text)
    wl = WordList.from_words(words)
    first = crack(hs, generate(wl, RS, include_base=True))
    assert first.recovered_new == 20
    second = crack(hs, generate(wl, RS, include_base=True))
    assert second.recovered_new == 0
    # matches still reported even though already recovered
    assert len(second.matches) == len(first.matches)


def test_crack_baseline_vs_pattern_counts():
    words, hash_text, _, _ = planted_corpus(200, 40, 40)
    wl = WordList.from_words(words)
    baseline = crack(load_hashes(hash_text), base_candidates(wl))
    assert baseline.recovered_new == 40
    pattern = crack(load_hashes(hash_text), generate(wl, RS, include_base=True))
    assert pattern.recovered_new == 80


def test_crack_reports_throughput():
    words, hash_text, _, _ = planted_corpus(100, 10, 10)
    wl = WordList.from_words(words)
    r = crack(load_hashes(hash_text), base_candidates(wl))
    assert r.elapsed > 0
    assert r.throughput > 0
    d = r.to_dict()
    assert d["attempted"] == r.attempted
    assert isinstance(d["matches"], list)


def _planted_store(rng, wl, rs):
    """A store holding about a third of the distinct candidates generate can
    emit for wl under rs (base words included), plus random digests."""
    cands = sorted({c for c, _, _ in generate(wl, rs, include_base=True, dedup=False)})
    planted = [digest_of(c) for c in rng.sample(cands, len(cands) // 3)]
    planted += [rng.randbytes(16) for _ in range(20)]
    return load_hashes("".join(d.hex() + "\n" for d in planted))


def _fused_cases():
    """(words, rule set) pairs: the builtin rules, and random custom sets over
    words from their pool's characters; each list holds a non-ASCII word and
    one with a lone surrogate."""
    rng = random.Random(26)
    words = ["password", "dragon", "leet", "Sass", "admin1", "caf\u00e9", "p\udc80ss"]
    words += ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8)))
              for _ in range(40)]
    yield words, RS
    chars = "abiAB1@xyz\u00e9\u00c9\u20ac\u01c5\u00df\u1e9e\u0130\ufb01"
    for _ in range(24):
        rs = random_custom_rules(rng, rng.randint(1, 6))
        words = ["".join(rng.choices(chars, k=rng.randint(1, 5))) for _ in range(20)]
        yield words + ["a\udc80b", "\u00e9a"], rs


def test_crack_over_a_fresh_stream_equals_crack_over_its_records(monkeypatch):
    # a stream from generate hands crack only its hits, hashed in the
    # generator's loop; everything crack reports is as over the plain records
    fused = []
    hits = CandidateStream._hits
    monkeypatch.setattr(CandidateStream, "_hits",
                        lambda self, *a: fused.append(hits(self, *a)) or fused[-1])
    rng = random.Random(2026)
    runs = recovering = 0
    for words, rs in _fused_cases():
        wl = WordList.from_words(words)
        hs0 = _planted_store(rng, wl, rs)
        for include_base in (False, True):
            for strict_multi in (False, True):
                for dedup in (False, True):
                    opts = dict(include_base=include_base, strict_multi=strict_multi,
                                dedup=dedup)
                    hs, ref_hs = hs0.fresh(), hs0.fresh()
                    stream, ref_stream = generate(wl, rs, **opts), generate(wl, rs, **opts)
                    got = crack(hs, stream)
                    assert fused.pop() is not None
                    want = crack(ref_hs, list(ref_stream))
                    assert got.matches == want.matches, (rs, opts)
                    assert got.attempted == want.attempted == stream.stats.emitted
                    assert got.recovered_new == want.recovered_new
                    assert format_potfile(hs) == format_potfile(ref_hs)
                    assert stream.stats == ref_stream.stats
                    runs += 1
                    recovering += bool(got.matches)
    assert runs == 25 * 8
    assert recovering > 150


def test_crack_over_a_started_stream_hashes_the_rest():
    words, hash_text, _, _ = planted_corpus(200, 40, 40)
    wl = WordList.from_words(words)
    stream = generate(wl, RS, include_base=True)
    first = next(iter(stream))
    hs, ref_hs = load_hashes(hash_text), load_hashes(hash_text)
    got = crack(hs, stream)
    records = list(generate(wl, RS, include_base=True))
    assert records[0] == first
    want = crack(ref_hs, records[1:])
    assert got.matches == want.matches
    assert got.attempted == want.attempted == stream.stats.emitted - 1
    assert got.recovered_new == want.recovered_new == 79   # the first word was planted
    assert format_potfile(hs) == format_potfile(ref_hs)


class _Proxy:
    """Shaped like a timing wrapper: iterates the stream, forwards attributes."""

    def __init__(self, stream):
        self._stream = stream
        self.records = 0

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        for record in self._stream:
            self.records += 1
            yield record


def test_crack_over_a_proxy_of_a_stream_hashes_each_record():
    words, hash_text, _, _ = planted_corpus(200, 40, 40)
    wl = WordList.from_words(words)
    proxy = _Proxy(generate(wl, RS, include_base=True))
    hs, ref_hs = load_hashes(hash_text), load_hashes(hash_text)
    got = crack(hs, proxy)
    want = crack(ref_hs, generate(wl, RS, include_base=True))
    assert proxy.records == got.attempted == proxy.stats.emitted == 800
    assert (got.matches, got.attempted, got.recovered_new) == (
        want.matches, want.attempted, want.recovered_new)
    assert format_potfile(hs) == format_potfile(ref_hs)


def test_generate_records_do_not_depend_on_the_hit_branch():
    # the same loop with every candidate a hit yields gen's records in order,
    # each with its digest
    md5 = _CONSTRUCTORS["md5"]
    for words, rs in _fused_cases():
        wl = WordList.from_words(words)
        for include_base in (False, True):
            records = list(generate(wl, rs, include_base=include_base))
            assert all(len(r) == 3 for r in records)
            every = frozenset(md5(c).digest() for c, _, _ in records)
            hits = list(generate(wl, rs, include_base=include_base)._hits(every, md5))
            assert [h[:3] for h in hits] == records
            assert [h[3] for h in hits] == [md5(c).digest() for c, _, _ in records]


def _base_case():
    """A word list with case variants, a non-ASCII letter and a lone
    surrogate, and a store holding a third of its words plus random digests."""
    rng = random.Random(27)
    words = ["Pass", "pass", "PASS", "caf\u00e9", "CAF\u00c9", "p\udc80ss", "\u00df"]
    words += ["".join(rng.choices(string.ascii_letters, k=rng.randint(3, 8)))
              for _ in range(60)]
    wl = WordList.from_words(words)
    planted = [digest_of(w) for w in words[::3] + ["p\udc80ss"]]
    planted += [rng.randbytes(16) for _ in range(20)]
    return wl, load_hashes("".join(d.hex() + "\n" for d in planted))


_BASE_STREAMS = {"base_candidates": base_candidates,
                 "generate": lambda wl: generate(wl, RuleSet(()), include_base=True)}


@pytest.mark.parametrize("make", _BASE_STREAMS.values(), ids=_BASE_STREAMS)
def test_crack_over_the_base_stream_equals_crack_over_its_words(monkeypatch, make):
    # the base words alone are a fresh stream from generate, so crack matches
    # them in the generator's loop; everything it reports is as over the records
    fused = []
    hits = CandidateStream._hits
    monkeypatch.setattr(CandidateStream, "_hits",
                        lambda self, *a: fused.append(hits(self, *a)) or fused[-1])
    wl, hs0 = _base_case()
    hs, ref_hs = hs0.fresh(), hs0.fresh()
    stream = make(wl)
    got = crack(hs, stream)
    assert len(fused) == 1 and fused[0] is not None
    records = list(make(wl))
    assert records == [(w.encode("utf-8", "surrogatepass"), w, "BASE") for w in wl.words]
    want = crack(ref_hs, records)
    assert got.matches == want.matches
    assert got.attempted == want.attempted == len(wl)
    assert got.recovered_new == want.recovered_new == 24
    assert format_potfile(hs) == format_potfile(ref_hs)
    assert stream.stats.by_arity == {"base": len(wl), "single": 0, "dual": 0, "triad": 0}
    assert stream.stats.suppressed_duplicates == 0


@pytest.mark.parametrize("make", _BASE_STREAMS.values(), ids=_BASE_STREAMS)
def test_crack_over_a_started_or_wrapped_base_stream_hashes_each_record(make):
    wl, hs0 = _base_case()
    want = crack(hs0.fresh(), list(make(wl)))
    proxy = _Proxy(make(wl))
    hs = hs0.fresh()
    got = crack(hs, proxy)
    assert proxy.records == got.attempted == len(wl)
    assert (got.matches, got.recovered_new) == (want.matches, want.recovered_new)
    stream = make(wl)
    first = next(iter(stream))
    got = crack(hs0.fresh(), stream)
    assert got.attempted == len(wl) - 1
    assert got.matches == [m for m in want.matches if m.base_word != first[1]]
