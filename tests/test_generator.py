"""Rule application and candidate stream semantics."""

from __future__ import annotations

import collections
import itertools
import random
import string
import tracemalloc

import pytest

from leetforge import (BASE_RULE_ID, CharPair, GenStats, ReplacementRule, RuleSet,
                       WordList, apply_rule, base_candidates, builtin_rules, generate,
                       parse_rules)
from leetforge import generator
from leetforge.generator import _class_bits, _plan_blocks
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
    assert records == [(b"0n0", "ana", "A"), (b"1n1", "ana", "B")]
    assert stats.emitted == 2


def test_generate_base_words_stream_first_and_win_dedup():
    wl = WordList.from_words(["loss", "l0ss"])
    rs = parse_rules("O\to>0\n")
    records, stats = _records(wl, rs, include_base=True)
    assert [(cand, rule_id) for cand, _, rule_id in records] == \
        [(b"loss", BASE_RULE_ID), (b"l0ss", BASE_RULE_ID)]
    assert {type(r) for r in records} == {tuple}
    assert [(r, type(r)) for r in base_candidates(wl)] == [(r, tuple) for r in records]
    # the mangled loss->l0ss lost to the base word l0ss
    assert stats.suppressed_duplicates == 1
    assert stats.emitted == 2
    assert stats.by_arity["base"] == 2
    assert stats.by_arity["single"] == 0


def test_generate_suppresses_a_repeated_base_word():
    # a WordList built directly may repeat a word: under rules its base
    # record streams (base words are not checked, see below), but its 29 raw
    # mangles (14 emitted, 15 copies) are suppressed, so past the repeat's
    # base record the records are the deduplicated list's
    twice, stats = _records(WordList(("pass", "pass"), (("memory", 2),)), RS, include_base=True)
    once, once_stats = _records(WordList(("pass",), (("memory", 1),)), RS, include_base=True)
    assert once[0] == (b"pass", "pass", BASE_RULE_ID)
    assert twice == once[:1] * 2 + once[1:]
    assert stats.by_arity == {**once_stats.by_arity, "base": 2}
    assert stats.suppressed_duplicates == once_stats.suppressed_duplicates + 29 == 44


def test_generate_with_no_rules_streams_a_repeated_base_word():
    # with no rules nothing is deduplicated: a WordList's words are distinct
    # by contract, so a list built with a repeat streams it, as
    # base_candidates always did (and as generate does under rules, above)
    wl = WordList(("pass", "Pass", "pass"), (("memory", 3),))
    records, stats = _records(wl, RuleSet(()), include_base=True)
    assert records == [(b"pass", "pass", "BASE"), (b"Pass", "Pass", "BASE"),
                       (b"pass", "pass", "BASE")]
    assert list(base_candidates(wl)) == records
    assert (stats.by_arity["base"], stats.suppressed_duplicates) == (3, 0)


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("include_base", [True, False])
def test_generate_with_no_rules_builds_no_sets_and_runs_no_mangle_pass(
        monkeypatch, include_base, dedup):
    def refuse(*args):
        raise AssertionError("not before the base words")

    for name in ("_dedup_sets", "_class_bits", "_plan_blocks"):
        monkeypatch.setattr(generator, name, refuse)
    wl = WordList.from_words(["pass", "Pass", "caf\u00e9", "p\udc80ss"])
    records, stats = _records(wl, RuleSet(()), include_base=include_base, dedup=dedup)
    if include_base:
        assert records == [(w.encode("utf-8", "surrogatepass"), w, "BASE") for w in wl]
        assert stats == GenStats(0, {"base": 4, "single": 0, "dual": 0, "triad": 0})
    else:
        assert records == []
        assert stats == GenStats()
    # under rules the same base loop runs first: the sets and the plans are
    # built only at the step after the last base record
    stream = generate(wl, RS, include_base=include_base, dedup=dedup)
    steps = iter(stream)
    assert list(itertools.islice(steps, len(records))) == records
    with pytest.raises(AssertionError, match="not before the base words"):
        next(steps)
    assert stream.stats == stats


def test_generate_dedup_keeps_first_provenance():
    # S5 and D1 both map "pass" to "p@ss"; S5 comes first in rule order
    wl = WordList.from_words(["pass"])
    records, _ = _records(wl, RS)
    byc = {}
    for cand, _, rule_id in records:
        assert cand not in byc
        byc[cand] = rule_id
    assert byc[b"p@ss"] == "S5"


def test_generate_no_dedup_counts_everything():
    wl = WordList.from_words(["pass"])
    records, stats = _records(wl, RS, dedup=False)
    assert stats.suppressed_duplicates == 0
    cands = [cand for cand, _, _ in records]
    assert cands.count(b"p@ss") > 1
    assert stats.emitted == len(cands)


def test_generate_dedup_memory_does_not_grow_with_unshared_words():
    # no builtin rule touches these letters, so every word's fold key is its
    # own and its mangles dedup in no set at all: the plans prove its copies
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
    # ~120 B per word, held by the fold keys; ~2,500 B if one set kept them all
    assert (peak - start) / n < 500


def test_generate_plan_memory_does_not_grow_with_unshared_words():
    # each word holds a random set of the 16 letters the builtin rules
    # replace, so the first n words reach nearly every class key of every
    # block; plans kept per key, not per word, then grow by nothing much
    # across 10x as many words, traced from word n on
    n = 500
    rng = random.Random(16)
    prefixes = itertools.islice(itertools.product("cjknpquwxy", repeat=7), 11 * n)
    wl = WordList.from_words(
        "".join(p) + "a" + "".join(c for c in "bdefghilmorstvz" if rng.random() < 0.5)
        for p in prefixes)
    start_at, stop_at = wl.words[n], wl.words[-1]
    grown = None
    try:
        for _, base, _ in generate(wl, RS):
            if base == start_at and not tracemalloc.is_tracing():
                tracemalloc.start()
            elif base == stop_at and grown is None:
                grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # ~0.3 B per word; ~430 B with a plan kept for every word's whole key
    assert grown / (10 * n) < 16


@pytest.mark.parametrize("include_base", [False, True])
def test_generate_dedup_sets_are_freed_after_their_last_word(include_base):
    # each word and its capitalised twin, next to it, share a fold key and so
    # a dedup set; the set goes once the twin has run its rules, so retained
    # memory grows by nothing much across 10x as many words, traced from
    # word n on
    n = 500
    prefixes = itertools.islice(itertools.product("cjknpquwxy", repeat=7), 11 * n // 2)
    wl = WordList.from_words(w for p in prefixes
                             for w in ("".join(p) + "salute", "".join(p).capitalize() + "salute"))
    start_at, stop_at = wl.words[n], wl.words[-1]
    grown = None
    try:
        for _, base, rule_id in generate(wl, RS, include_base=include_base):
            if rule_id == BASE_RULE_ID:
                continue
            if base == start_at and not tracemalloc.is_tracing():
                tracemalloc.start()
            elif base == stop_at and grown is None:
                grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # ~0 B per word; ~2,500 B with each set kept to the end of the stream
    assert grown / (10 * n) < 16


def test_generate_deterministic():
    wl = WordList.from_words(["password", "dragon", "jessica"])
    a, _ = _records(wl, RS, include_base=True)
    b, _ = _records(wl, RS, include_base=True)
    assert a == b


def test_gen_stats_start_at_zero_with_a_dict_of_their_own():
    a, b = GenStats(), GenStats()
    a.by_arity["single"] += 1
    a.suppressed_duplicates += 1
    assert b == GenStats(0, {"base": 0, "single": 0, "dual": 0, "triad": 0})
    assert a.to_dict() == {"emitted": 1, "emitted_mangled": 1, "suppressed_duplicates": 1,
                           "by_arity": {"base": 0, "single": 1, "dual": 0, "triad": 0}}


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
        assert len({cand for cand, _, _ in records}) == len(records)


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
                assert {cand for cand, _, _ in records} == expected
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


def test_generate_keeps_pairs_with_one_replacement_apart_under_strict_multi():
    # o and é turn into the same $, but under strict_multi a word needs a
    # source of each pair: o and é must not count as one character class
    rs = parse_rules("U\to>$,\u00e9>$\n")
    wl = WordList.from_words(["zoo", "zoo\u00e9"])
    records, stats = _records(wl, rs, strict_multi=True)
    assert records == [(_encoded("z$$$"), "zoo\u00e9", "U")]
    assert stats.to_dict() == generate_reference(wl.words, rs, strict_multi=True)[1]


def test_generate_character_that_maps_to_itself_changes_nothing():
    # case-insensitive \u00c9>\u00e9 also maps \u00e9 to itself: \u00e9 must not share
    # \u00c9's class, or a word holding only \u00e9 would emit itself
    rs = parse_rules("E\t\u00c9>\u00e9\n")
    wl = WordList.from_words(["x\u00e9", "x\u00c9"])
    records, _ = _records(wl, rs)
    assert records == [(_encoded("x\u00e9"), "x\u00c9", "E")]
    _assert_matches_ordered_reference(wl, rs)


def test_generate_copy_of_a_rule_claiming_classes_outside_its_block():
    # A, D and G claim 8 character classes, so I starts a new block and A2
    # joins it. A2 copies A on a word without b or c, but A claims b and c:
    # on "ab" A gives "12" and A2 "1b". So A is a witness of the later block
    # and the block's plans look at b and c too. No word shares its fold key,
    # so no word dedups in a set: A2's copies on "xa", "yA" and "ia" are
    # counted by the plans alone.
    rs = parse_rules("A\ta>1,b>2,c>3\nD\td>4,e>5,f>6\nG\tg>7,h>8\nI\ti>9\nA2\ta>1\n")
    wl = WordList.from_words(["xa", "ab", "yA", "cab", "ia"])
    keys = [w.casefold().translate(rs.fold) for w in wl.words]
    assert len(set(keys)) == len(keys)
    _assert_matches_ordered_reference(wl, rs)
    records, stats = _records(wl, rs)
    assert (b"1b", "ab", "A2") in records
    assert stats.suppressed_duplicates == 3


# 11 source letters, each with two replacements of its own, so that rule sets
# claim more than 8 character classes and fold keys stay apart
_TWIN_SOURCES = "abcdefghijk"
_TWIN_REPLACEMENTS = "0123456789!#$%&*+=?@^~"


def _twin_rules(rng, n):
    """n rules whose pairs come from a pool of 22, so that many rules share a
    change with an earlier one."""
    rules = []
    for i in range(n):
        pairs = tuple(CharPair(s, _TWIN_REPLACEMENTS[2 * _TWIN_SOURCES.index(s)
                                                     + rng.randint(0, 1)])
                      for s in rng.sample(_TWIN_SOURCES, rng.randint(1, 3)))
        rules.append(ReplacementRule(f"W{i}", pairs, case_insensitive=rng.random() < 0.7))
    return RuleSet(tuple(rules))


def test_generate_plans_are_exact_within_a_word():
    # A word whose fold key no other word shares dedups in no set where its
    # plans prove every copy, so they must suppress each copy within it, also
    # of an earlier rule that claims classes outside the copying rule's
    # block. Rule sets of 8-16 rules over 11 letters cut into 2 or more
    # blocks of at most 8 classes, and many blocks have a witness that claims
    # a class none of their rules claims. Where a witness does not fit in 8
    # classes, the blocks that miss it or hold it keep a dedup set: most
    # blocks here do, and some need none.
    rng = random.Random(21)
    alphabet = _TWIN_SOURCES + _TWIN_SOURCES.upper() + "0!@xy"
    cut = outside = unshared = with_set = without_set = 0
    for _ in range(60):
        rs = _twin_rules(rng, rng.randint(8, 16))
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                 for _ in range(25)]
        words += [w.swapcase() for w in words[:3]]   # some words share a key
        wl = WordList.from_words(words)
        _assert_matches_ordered_reference(wl, rs)
        keys = collections.Counter(w.casefold().translate(rs.fold) for w in wl.words)
        unshared += sum(n == 1 for n in keys.values())
        blocks = _plan_blocks(rs, _class_bits(rs), False, True)
        cut += len(blocks) > 1
        for plans, mask, needs_set in blocks:
            assert mask.bit_count() <= 8
            # one rule claims at most 3 pairs x 2 cases, so it always fits a block
            assert all(claim.bit_count() <= 6 for (claim, *_), _ in plans.entries)
            with_set += needs_set
            without_set += not needs_set
            claimed = 0
            for (claim, *_), record in plans.entries:
                if record is not None:
                    claimed |= claim
            outside += any(record is None and claim & ~claimed
                           for (claim, *_), record in plans.entries)
    assert cut > 55 and outside > 50 and unshared > 60 * 20
    assert with_set > 120 and without_set > 30


def test_generate_rules_sharing_one_pair_keep_blocks_of_8_classes():
    # Every rule shares a>@ with all earlier ones, so from R7 on a rule's
    # witnesses claim more than 8 classes. The blocks are cut on the rules'
    # own classes, the witnesses that do not fit are left out, and every
    # block dedups in a set the words whose fold key is their own.
    letters = "bcdefghijklmnopqrstuvwxyz"
    rs = parse_rules("".join(f"R{i}\ta>@,{c}>{i % 10}\n" for i, c in enumerate(letters)))
    blocks = _plan_blocks(rs, _class_bits(rs), False, True)
    assert [(mask.bit_count(), needs_set) for _, mask, needs_set in blocks] == \
        [(8, True), (8, True), (8, True), (8, True)]
    rng = random.Random(25)
    alphabet = "a" + letters + "A@0x"
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
             for _ in range(40)]
    wl = WordList.from_words(words + ["a", "A", "@", "ab", "aB", "?a"])
    _assert_matches_ordered_reference(wl, rs)
    # R1..R24 each repeat R0's "?@" on "?a", whose fold key is its own, with
    # no plan to prove it
    records, _ = _records(WordList.from_words(["?a"]), rs)
    assert records == [(b"?@", "?a", "R0")]


def test_empty_wordlist_generates_nothing():
    records, stats = _records(WordList.from_words([]), RS, include_base=True)
    assert records == []
    assert stats.emitted == 0
