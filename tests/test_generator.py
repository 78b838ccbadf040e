"""Rule application and candidate stream semantics."""

from __future__ import annotations

import collections
import itertools
import random
import string
import tracemalloc

from leetforge import (BASE_RULE_ID, CharPair, ReplacementRule, RuleSet,
                       WordList, apply_rule, base_candidates, builtin_rules, generate,
                       parse_rules)
from leetforge.generator import CandidateRecord
from oracles import generate_reference, mangle_reference
from synthetic import random_custom_rules

RS = builtin_rules()


def _records(wl, rs, **options):
    stream = generate(wl, rs, **options)
    return list(stream), stream.stats


def _encoded(candidate):
    """A reference candidate as generate() carries it: UTF-8 bytes, surrogatepass."""
    return candidate.encode("utf-8", "surrogatepass")


def test_apply_known_substitutions():
    assert apply_rule("jessica", RS.by_id("S39")) == "je$$ica"
    assert apply_rule("dragon", RS.by_id("S3")) == "dr4gon"
    assert apply_rule("people", RS.by_id("S28")) == "pe0ple"
    assert apply_rule("tiffany", RS.by_id("S5")) == "tiff@ny"


def test_apply_is_case_insensitive_on_sources():
    assert apply_rule("SKATER", RS.by_id("S4")) == "SK8TER"
    assert apply_rule("Password", RS.by_id("S39")) == "Pa$$word"
    sensitive = parse_rules("X\ta>8\tcs\n")[0]
    assert apply_rule("SKATER", sensitive) is None
    assert apply_rule("Skater", sensitive) == "Sk8ter"


def test_apply_returns_none_when_unchanged():
    assert apply_rule("qwerty", RS.by_id("S3")) is None
    assert apply_rule("", RS.by_id("S3")) is None


def test_apply_dual_replaces_all_of_both():
    assert apply_rule("password", RS.by_id("D1")) == "p@ssw0rd"
    # only one of the two sources present still changes the word by default
    assert apply_rule("pass", RS.by_id("D1")) == "p@ss"


def test_strict_multi_requires_every_source():
    d1 = RS.by_id("D1")
    assert apply_rule("pass", d1, strict_multi=True) is None
    assert apply_rule("password", d1, strict_multi=True) == "p@ssw0rd"
    # singles are unaffected by the flag
    assert apply_rule("pass", RS.by_id("S5"), strict_multi=True) == "p@ss"
    # case-insensitive presence check
    assert apply_rule("PASSword", d1, strict_multi=True) == "P@SSw0rd"


def test_pairs_apply_simultaneously_not_sequentially():
    # a>s then s>$ applied in sequence would give "$$"; simultaneous gives "s$"
    rule = parse_rules("X\ta>s,s>$\n")[0]
    assert apply_rule("as", rule) == "s$"


def test_apply_preserves_length():
    rng = random.Random(7)
    for _ in range(500):
        word = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 14)))
        rule = RS[rng.randrange(len(RS))]
        out = apply_rule(word, rule)
        if out is not None:
            assert len(out) == len(word)


def test_apply_removes_every_source_occurrence():
    rng = random.Random(8)
    for _ in range(500):
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 14)))
        rule = RS[rng.randrange(len(RS))]
        out = apply_rule(word, rule)
        if out is None:
            continue
        for p in rule.pairs:
            assert p.source not in out
            assert p.source.upper() not in out


def test_apply_is_idempotent_for_builtin_rules():
    rng = random.Random(9)
    for _ in range(500):
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 14)))
        rule = RS[rng.randrange(len(RS))]
        out = apply_rule(word, rule)
        if out is not None:
            assert apply_rule(out, rule) is None


def test_generate_word_major_rule_order():
    wl = WordList.from_words(["ana"])
    rs = parse_rules("A\ta>0\nB\ta>1\n")
    records, stats = _records(wl, rs)
    assert [r.candidate for r in records] == [b"0n0", b"1n1"]
    assert [r.rule_id for r in records] == ["A", "B"]
    assert records[0].base_word == "ana"
    assert stats.emitted == 2


def test_generate_base_words_stream_first_and_win_dedup():
    wl = WordList.from_words(["loss", "l0ss"])
    rs = parse_rules("O\to>0\n")
    records, stats = _records(wl, rs, include_base=True)
    assert [(r.candidate, r.rule_id) for r in records] == \
        [(b"loss", BASE_RULE_ID), (b"l0ss", BASE_RULE_ID)]
    assert {type(r) for r in records} == {CandidateRecord}
    assert [(r, type(r)) for r in base_candidates(wl)] == [(r, CandidateRecord) for r in records]
    # the mangled loss->l0ss lost to the base word l0ss
    assert stats.suppressed_duplicates == 1
    assert stats.emitted == 2
    assert stats.by_arity["base"] == 2
    assert stats.by_arity["single"] == 0


def test_generate_dedup_keeps_first_provenance():
    # S5 and D1 both map "pass" to "p@ss"; S5 comes first in rule order
    wl = WordList.from_words(["pass"])
    records, _ = _records(wl, RS)
    byc = {}
    for r in records:
        assert r.candidate not in byc
        byc[r.candidate] = r
    assert byc[b"p@ss"].rule_id == "S5"


def test_generate_no_dedup_counts_everything():
    wl = WordList.from_words(["pass"])
    records, stats = _records(wl, RS, dedup=False)
    assert stats.suppressed_duplicates == 0
    cands = [r.candidate for r in records]
    assert cands.count(b"p@ss") > 1
    assert stats.emitted == len(cands)


def test_generate_dedup_memory_does_not_grow_with_unshared_words():
    # no builtin rule touches these letters, so every word's fold key is its own
    # and its mangles dedup in the per-word set, which each next word empties
    n = 2000
    prefixes = itertools.islice(itertools.product("cjknpquwxy", repeat=7), n)
    wl = WordList.from_words("".join(p) + "salute" for p in prefixes)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stream = generate(wl, RS)
        collections.deque(stream, maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.stats.emitted == 31 * n
    # ~110 B per word with the per-word set emptied, ~2,500 B if it kept growing
    assert (peak - start) / n < 500


def test_generate_deterministic():
    wl = WordList.from_words(["password", "dragon", "jessica"])
    a, _ = _records(wl, RS, include_base=True)
    b, _ = _records(wl, RS, include_base=True)
    assert a == b


def test_generate_emission_bound_and_stats():
    rng = random.Random(10)
    for _ in range(30):
        words = ["".join(rng.choice(string.ascii_lowercase)
                         for _ in range(rng.randint(1, 10)))
                 for _ in range(rng.randint(0, 25))]
        wl = WordList.from_words(words)
        include_base = rng.random() < 0.5
        records, stats = _records(wl, RS, include_base=include_base)
        assert stats.emitted == len(records)
        assert stats.emitted <= len(wl) * (len(RS) + (1 if include_base else 0))
        assert stats.emitted == sum(stats.by_arity.values())
        assert stats.emitted_mangled == stats.emitted - stats.by_arity["base"]
        # dedup on: all candidates distinct
        assert len({r.candidate for r in records}) == len(records)


def test_generate_matches_brute_force_small():
    rng = random.Random(11)
    alphabet = string.ascii_lowercase + string.ascii_uppercase + "019@$!"
    for _ in range(25):
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
                 for _ in range(rng.randint(1, 15))]
        wl = WordList.from_words(words)
        for include_base in (False, True):
            for strict in (False, True):
                records, stats = _records(wl, RS, include_base=include_base,
                                          strict_multi=strict)
                reference, _ = generate_reference(wl.words, RS, include_base=include_base,
                                                  strict_multi=strict)
                expected = {_encoded(candidate) for candidate, _, _ in reference}
                assert {r.candidate for r in records} == expected
                assert stats.emitted == len(expected)


def test_apply_agrees_with_reference_everywhere():
    rng = random.Random(12)
    alphabet = string.ascii_letters + "0123456789@$!;,.?"
    for _ in range(2000):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        rule = RS[rng.randrange(len(RS))]
        strict = rng.random() < 0.5
        assert apply_rule(word, rule, strict) == mangle_reference(word, rule, strict)


def _random_mixed_rules(rng, n):
    """n rules mixing ASCII and non-ASCII pairs, case-insensitive and cs."""
    sources = "aeiosAEIOS" + "\u00e9\u00e4\u00c9\u00f1\u0131"   # é ä É ñ ı (ı swapcases to I)
    replacements = "0134@$" + "\u00e4\u00e9\u20ac"
    rules = []
    while len(rules) < n:
        try:
            pairs = tuple(CharPair(s, rng.choice(replacements))
                          for s in rng.sample(sources, rng.randint(1, 3)))
            rules.append(ReplacementRule(f"U{len(rules)}", pairs,
                                         case_insensitive=rng.random() < 0.6))
        except ValueError:   # source == replacement, or a repeated source
            continue
    return RuleSet(tuple(rules))


def _assert_matches_ordered_reference(wl, rs):
    """Records and GenStats equal generate_reference's under all 8 option combinations."""
    for include_base, strict, dedup in itertools.product((False, True), repeat=3):
        records, stats = _records(wl, rs, include_base=include_base, strict_multi=strict,
                                  dedup=dedup)
        expected, counts = generate_reference(wl.words, rs, include_base=include_base,
                                              strict_multi=strict, dedup=dedup)
        assert [tuple(r) for r in records] == \
            [(_encoded(c), base, rule_id) for c, base, rule_id in expected]
        assert stats.to_dict() == counts


def test_generate_matches_ordered_reference_on_mixed_rules():
    rng = random.Random(14)
    alphabet = "aeiosAEIOS" + "xyz" + "\u00e9\u00c9\u00e4\u00c4\u00f1\u0131" + "03@" + "\U0001f600"
    paths = set()
    for _ in range(40):
        rs = _random_mixed_rules(rng, rng.randint(1, 8))
        paths |= {r.byte_table is None for r in rs}
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 20))]
        words.append("s\udc80e")   # a lone surrogate, as WordList.from_words allows
        _assert_matches_ordered_reference(WordList.from_words(words), rs)
    assert paths == {False, True}   # both the byte-table and the str branch ran


# Words that share a fold key and so can emit each other or a common candidate:
# case variants and a builtin mangle of one word (pass/p4ss, beta/b3ta), a base
# that another word mangles into (abl -> ab1 under l>1), two words whose
# mangles meet (ab1 and abl both -> 4b1 under a>4,l>1), and casefolds longer
# than one character (ß/ss, ẞ, İ/i, ﬁ/fi).
COLLIDING = ["pass", "Pass", "PASS", "p4ss", "p@ss", "beta", "b3ta", "BETA",
             "ab1", "abl", "ABL", "4bl", "stra\u00dfe", "strasse", "STRASSE",
             "\u1e9e", "ss", "\u0130b", "ib", "i\u0307b", "\ufb01", "fi", "FI"]


def test_generate_matches_ordered_reference_on_colliding_words():
    rng = random.Random(15)
    named = parse_rules("L\tl>1\nA\ta>4\nAL\ta>4,l>1\nS\ts>\u00df\tcs\n"
                        "SHARP\t\u00df>s\tcs\nDOT\t\u0130>i\tcs\nLIG\tf>\ufb01\tcs\n")
    rule_sets = [RS, named]
    rule_sets += [_random_mixed_rules(rng, rng.randint(1, 8)) for _ in range(15)]
    rule_sets += [random_custom_rules(rng, rng.randint(1, 6)) for _ in range(15)]
    shared_words = unshared_words = 0
    for rs in rule_sets:
        chars = sorted({c for r in rs for p in r.pairs
                        for c in (p.source, p.source.swapcase(), p.replacement)})
        # unshared words around the planted ones, so both dedup sets are used
        words = COLLIDING + ["".join(rng.choice(chars + ["x", "y"])
                                     for _ in range(rng.randint(1, 6))) for _ in range(20)]
        rng.shuffle(words)
        wl = WordList.from_words(words)
        keys = [w.casefold().translate(rs.fold) for w in wl.words]
        shared = sum(keys.count(k) > 1 for k in keys)
        shared_words += shared
        unshared_words += len(keys) - shared
        _assert_matches_ordered_reference(wl, rs)
    assert shared_words > 10 * len(rule_sets) and unshared_words > 10 * len(rule_sets)


def test_empty_wordlist_generates_nothing():
    records, stats = _records(WordList.from_words([]), RS, include_base=True)
    assert records == []
    assert stats.emitted == 0
