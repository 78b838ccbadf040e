"""Digest computation and the matching engine."""

from __future__ import annotations

import random
import string

import pytest

from leetforge import (AlgorithmMismatchError, GenOptions, UnknownAlgorithmError,
                       WordList, base_candidates, builtin_rules, crack,
                       digest_of, generate, load_hashes)
from leetforge.generator import CandidateRecord
from oracles import md5_reference
from synthetic import planted_corpus

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
    assert hs.recovered[m.digest] == "p@ssw0rd"


def test_crack_empty_stream():
    hs = load_hashes(digest_of("x").hex() + "\n")
    result = crack(hs, iter([]))
    assert result.attempted == 0
    assert result.recovered_new == 0
    assert result.matches == []


def test_crack_counts_attempts_including_duplicates():
    hs = load_hashes(digest_of("aa").hex() + "\n")
    recs = [CandidateRecord("aa", "aa", "BASE")] * 5
    result = crack(hs, iter(recs), chunk_bytes=4)
    assert result.attempted == 5
    assert len(result.matches) == 5
    assert result.recovered_new == 1  # same digest only counts once


def test_crack_rejects_algorithm_mismatch():
    hs = load_hashes(digest_of("x").hex() + "\n")
    with pytest.raises(AlgorithmMismatchError):
        crack(hs, iter([]), algorithm="sha1")


def test_crack_matches_sorted_by_digest():
    words = [f"w{i}" for i in range(50)]
    hs = load_hashes("".join(digest_of(w).hex() + "\n" for w in words))
    result = crack(hs, base_candidates(WordList.from_words(words)), chunk_bytes=16)
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
    result = crack(hs, base_candidates(wl), chunk_bytes=64)
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
    first = crack(hs, generate(wl, RS, GenOptions(include_base=True)))
    assert first.recovered_new == 20
    second = crack(hs, generate(wl, RS, GenOptions(include_base=True)))
    assert second.recovered_new == 0
    # matches still reported even though already recovered
    assert len(second.matches) == len(first.matches)


def test_crack_baseline_vs_pattern_counts():
    words, hash_text, _, _ = planted_corpus(200, 40, 40)
    wl = WordList.from_words(words)
    baseline = crack(load_hashes(hash_text), base_candidates(wl))
    assert baseline.recovered_new == 40
    pattern = crack(load_hashes(hash_text), generate(wl, RS, GenOptions(include_base=True)))
    assert pattern.recovered_new == 80


def test_crack_thread_counts_agree_quick():
    words, hash_text, _, _ = planted_corpus(300, 60, 60)
    wl = WordList.from_words(words)
    results = []
    for threads in (1, 4):
        hs = load_hashes(hash_text)
        r = crack(hs, generate(wl, RS, GenOptions(include_base=True)),
                  threads=threads, chunk_bytes=512)
        results.append((r.attempted, r.recovered_new, r.matches))
    assert results[0] == results[1]


def test_crack_reports_throughput():
    words, hash_text, _, _ = planted_corpus(100, 10, 10)
    wl = WordList.from_words(words)
    r = crack(load_hashes(hash_text), base_candidates(wl))
    assert r.elapsed > 0
    assert r.throughput > 0
    d = r.to_dict()
    assert d["attempted"] == r.attempted
    assert isinstance(d["matches"], list)
