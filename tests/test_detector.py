"""De-leet inversion and dictionary-backed auditing."""

from __future__ import annotations

import json
import random
import string
import sys

from leetforge import (CharPair, ReplacementRule, RuleSet, WordList, apply_rule, audit,
                       builtin_rules, deleet, detector, generate, parse_rules,
                       serialize_rules)
from oracles import audit_reference
from synthetic import case_noise, random_custom_rules

RS = builtin_rules()
TOP5 = RS.top5


def test_deleet_finds_single_substitution():
    findings = deleet("tiff@ny", TOP5, WordList.from_words(["tiffany"]))
    assert ("tiffany", "S5") in findings


def test_deleet_finds_o_to_zero():
    findings = deleet("pe0ple", TOP5, WordList.from_words(["people"]))
    assert ("people", "S28") in findings


def test_deleet_plain_word_yields_nothing():
    assert deleet("abcdef", RS, WordList.from_words(["abcdef", "ABCDEF"])) == []


def test_deleet_rejects_leftover_source_chars():
    # "a@b" still contains an 'a' the rule would have replaced, so no base
    # maps to it: "aab" re-applies to "@@b" != "a@b".
    rule = parse_rules("X\ta>@\n")
    dictionary = WordList.from_words(["aab", "ab"])
    assert deleet("a@b", rule, dictionary) == []
    assert deleet("@b", rule, dictionary) == [("ab", "X")]


def test_deleet_at_most_one_finding_per_rule():
    # the three spellings share one casefold, so each rule finds one base
    dictionary = WordList.from_words(["password", "Password", "PASSWORD"])
    findings = deleet("p@ssw0rd", RS, dictionary)
    ids = [rule_id for _, rule_id in findings]
    assert len(ids) == len(set(ids))
    assert len(findings) <= len(RS)
    assert ("password", "D1") in findings


def test_deleet_orders_a_shared_bucket_by_rule_then_word():
    # ba and ab share a fold key, so one bucket holds both, in dictionary order
    rs = parse_rules("P\ta>1,b>1\nQ\ta>1,b>1,c>2\n")
    dictionary = WordList.from_words(["ba", "ab"])
    assert dictionary.fold_index(rs.fold) == {"11": ["ba", "ab"]}
    assert deleet("11", rs, dictionary) == [("ba", "P"), ("ab", "P"), ("ba", "Q"), ("ab", "Q")]


def test_deleet_reconstructs_lowercase_sources():
    # the replacement digit maps back to a lowercase letter, and the
    # case-insensitive re-application still verifies
    findings = deleet("SK8TER", RS, WordList.from_words(["skater"]))
    assert ("SKaTER", "S4") in findings


def test_deleet_inverts_case_sensitive_uppercase_source():
    rs = parse_rules("X\tA>4\tcs\n")
    assert apply_rule("ABC", rs.by_id("X")) == "4BC"
    dictionary = WordList.from_words(["ABC"])
    assert deleet("4BC", rs, dictionary) == [("ABC", "X")]
    assert audit("4BC", rs, dictionary).findings == (("ABC", "X"),)
    # the lowercase "abc" is the dictionary word too, but "a" is not a source
    assert deleet("4bc", rs, dictionary) == [("Abc", "X")]


def test_deleet_rebuilds_the_base_where_the_password_holds_a_remapped_replacement():
    # The per-rule base of A0 is ao: the A comes from a. The shared base keeps
    # the password's A where the casefolds agree and would give Ao, which
    # re-applies to b0, since the rule also turns A into b; A is a stop
    # character of the rule, so _search_base builds ao.
    rs = parse_rules("X\ta>A,A>b,o>0\tcs\n")
    [(i, stops)] = detector._inverse(rs)[2][frozenset({"0o"})]
    assert i == 0 and "A" in stops
    assert apply_rule("ao", rs[0]) == "A0" and apply_rule("Ao", rs[0]) == "b0"
    assert deleet("A0", rs, WordList.from_words(["ao"])) == [("ao", "X")]


def test_deleet_inverts_titlecase_sources():
    # titlecase letters swap case to themselves and lowercase to another letter
    titlecase = [c for c in map(chr, range(sys.maxunicode + 1))
                 if c.swapcase() == c and c.lower() != c]
    assert {"\u01c5", "\u01c8", "\u1f88"} <= set(titlecase)   # ǅ ǈ ᾈ
    for source in titlecase:
        for flag in ("", "\tcs"):
            rs = parse_rules(f"X\t{source}>x{flag}\n")
            word = source + "a" + source.lower()
            mangled = apply_rule(word, rs.by_id("X"))
            assert mangled == "xa" + source.lower()
            dictionary = WordList.from_words([word])
            assert deleet(mangled, rs, dictionary) == [(word, "X")]
            assert audit(mangled, rs, dictionary).findings == ((word, "X"),)
            assert _audit_as_reference(mangled, rs, [word]) == 1


def _audit_as_reference(pw, rs, words):
    """Check audit and deleet against audit_reference; return the finding count."""
    want = audit_reference(pw, rs, words)
    dictionary = WordList.from_words(words)
    assert audit(pw, rs, dictionary).findings == tuple(want)
    got = deleet(pw, rs, dictionary)
    assert sorted(got, key=lambda f: (f[1], f[0])) == [f for f in want if f[1] != "BASE"]
    return len(want)


def test_deleet_and_audit_match_unscreened_reference():
    rng = random.Random(33)
    named = parse_rules("chain\ta>b,b>c\nshared\ta>1,i>1\nupper\tA>4,B>8\tcs\n"
                        "fold\tA>a\nwide\t\u00e9>\u20ac,\u00c9>e\tcs\n"
                        "sharp\t\u00df>s\tcs\ndotted\t\u0130>1\tcs\nlig\t\ufb01>f\tcs\n"
                        "micro\t\u00b5>1,\u03bc>1\tcs\n")
    found = 0
    for rs in [RS, named] + [random_custom_rules(rng, rng.randint(1, 6)) for _ in range(300)]:
        # words and passwords from the rules' own characters, plus forward mangles
        chars = sorted({c for r in rs for p in r.pairs
                        for c in (p.source, p.source.swapcase(), p.replacement)} | {"x"})
        words = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 5)))
                 for _ in range(12)]
        for _ in range(25):
            pw = "".join(rng.choice(chars) for _ in range(rng.randint(1, 5)))
            found += _audit_as_reference(pw, rs, words)
            mangled = apply_rule(case_noise(rng, rng.choice(words)), rs[rng.randrange(len(rs))])
            if mangled is not None:
                found += _audit_as_reference(mangled, rs, words)
    assert found > 5000
    assert deleet("cb", named, WordList.from_words(["BA"])) == [("ba", "chain")]
    assert deleet("ab", named, WordList.from_words(["ab"])) == [("Ab", "fold")]
    # µ (U+00B5) casefolds to μ (U+03BC) and ranks before it as a preimage of
    # 1, so the shared base μa verifies but is not the reported base
    assert deleet("1a", named, WordList.from_words(["\u03bca"])) == [("\u00b5a", "micro")]
    # ASCII rules re-applied through their byte tables to bases holding a
    # lone surrogate or a multi-byte character
    for pw, base, rule_id in [("\ud800p@ss", "\ud800pass", "S5"), ("c@f\u00e9", "caf\u00e9", "S5"),
                              ("p\u00e455", "p\u00e4ss", "S36")]:
        assert RS.by_id(rule_id).byte_table is not None
        assert (base, rule_id) in audit(pw, RS, WordList.from_words([base])).findings
        assert _audit_as_reference(pw, RS, [base]) >= 1


def _case_only(pw, findings):
    """The findings, BASE aside, whose base differs from pw only in case."""
    return [f for f in findings if f[1] != "BASE" and f[0].casefold() == pw.casefold()]


def test_audit_case_only_words_match_reference():
    # A bucket word equal to the password's casefold skips the need table:
    # only rules under the password's own by_pair keys can have made it, and
    # none when the password holds no character that starts a key. Each set
    # has a rule whose key starts with a character these passwords hold.
    rng = random.Random(37)
    sets = [parse_rules("fold\tA>a\n"), parse_rules("X\ta>A,A>b,o>0\tcs\n"),
            parse_rules("T\t\u01c5>\u01c6\tcs\nS\ts>$\n"), RS]
    words = ["ab", "Ab", "boa", "ao", "BOB", "cab", "\u01c6a", "\u01c5ob", "pass", "a0b"]
    words += ["".join(rng.choices("abo\u01c6AB", k=rng.randint(1, 5))) for _ in range(30)]
    dictionary = WordList.from_words(words)
    case_only = 0
    for rs in sets:
        starts = detector._inverse(rs)[3]
        assert starts and any(set(word) & starts for word in words)
        for word in words:
            for pw in dict.fromkeys([word, word.upper(), word.title(), word.swapcase()]):
                _audit_as_reference(pw, rs, words)
                case_only += len(_case_only(pw, audit(pw, rs, dictionary).findings))
    assert case_only > 50
    assert deleet("AB", sets[0], WordList.from_words(["ab"])) == []
    assert deleet("ab", sets[0], WordList.from_words(["AB"])) == [("Ab", "fold")]
    assert deleet("\u01c6a", sets[2], WordList.from_words(["\u01c6A"])) == [("\u01c5a", "T")]


def test_audit_matches_reference_on_a_mixed_stream():
    # passwords shaped like perfbench's audit-mixed stream: mangles, bases that
    # already hold a replacement, verbatim words, case changes, runs of 1 and
    # of 10@3!$, and random strings; under the builtin rules and random sets
    rng = random.Random(38)
    found = case_only = 0
    for rs in [RS] + [random_custom_rules(rng, rng.randint(1, 6)) for _ in range(50)]:
        if rs is RS:
            letters = string.ascii_lowercase
            words = ["".join(rng.choices(letters, k=rng.randint(4, 7)))
                     + (str(rng.randint(0, 99)) if i % 4 == 3 else "") for i in range(40)]
        else:
            letters = sorted({c for r in rs for p in r.pairs
                              for c in (p.source, p.source.swapcase(), p.replacement)} | {"x"})
            words = ["".join(rng.choices(letters, k=rng.randint(1, 5))) for _ in range(12)]
        symbols = "".join(letters) + string.digits + "!@#$%&*?"
        stream = []
        for word in words:
            rule = rs[rng.randrange(len(rs))]
            stream.append(apply_rule(case_noise(rng, word), rule))
            replacements = {p.replacement for p in rule.pairs}
            if set(word) & replacements:
                stream.append(apply_rule(word, rule))
            stream += [word, word.upper(), word.title(), case_noise(rng, word)]
        for _ in range(len(words) // 4):
            stream.append("1" * rng.randint(3, 7))
            stream.append("".join(rng.choices("10@3!$", k=rng.randint(3, 6))))
            stream.append("".join(rng.choices(symbols, k=rng.randint(3, 8))))
        dictionary = WordList.from_words(words)
        for pw in filter(None, stream):
            found += _audit_as_reference(pw, rs, words)
            case_only += len(_case_only(pw, audit(pw, rs, dictionary).findings))
    assert found > 1500 and case_only > 20


def _plain(preimages, pair):
    """True when the first preimage of pair's character with pair's casefold is that casefold."""
    c, f = pair[0], pair[1:]
    return next(x for x, g in preimages[c] if g == f) == f


def test_need_table_is_bounded_by_the_rule_set():
    # keys are the non-empty subsets of each rule's fold pairs, and no audit adds one
    rng = random.Random(36)
    assert len(detector._inverse(RS)[2]) == 81
    searched = 0
    for rs in [RS] + [random_custom_rules(rng, rng.randint(1, 6)) for _ in range(300)]:
        rules, by_pair, table, starts = detector._inverse(rs)
        assert starts == {q[0] for q in by_pair}
        own = [{q for q, ids in by_pair.items() if i in ids} for i in range(len(rs))]
        assert len(table) <= sum(2 ** len(pairs) - 1 for pairs in own)
        for need, entry in table.items():
            assert need and any(need <= pairs for pairs in own)
            ids = [i for i, _ in entry]
            assert ids and ids == [i for i, pairs in enumerate(own) if need <= pairs]
            for i, stops in entry:
                _, translation, _, replacements, blocking, preimages = rules[i]
                if all(_plain(preimages, q) for q in need):
                    # the characters the rule changes: its blocking characters, and the
                    # replacements it turns into another character
                    assert stops == blocking | {
                        r for r in translation.values() if translation.get(ord(r), r) != r}
                else:
                    # a password under need holds each c of its pairs c + f, so
                    # stopping on the replacements sends the rule to _search_base
                    assert stops == replacements and {q[0] for q in need} <= stops
                    searched += 1
        size = len(table)
        chars = sorted({c for r in rs for p in r.pairs for c in (p.source, p.replacement)})
        dictionary = WordList.from_words(["".join(rng.choices(chars, k=3)) for _ in range(5)])
        for _ in range(10):
            audit("".join(rng.choices(chars, k=3)), rs, dictionary)
        assert detector._inverse(rs)[2] is table and len(table) == size
    size = len(detector._inverse(RS)[2])
    words = ["".join(rng.choices("abeilos", k=rng.randint(3, 6))) for _ in range(500)]
    dictionary = WordList.from_words(words)
    found = 0
    for _ in range(2000):
        found += len(audit("".join(rng.choices("abeilos01@3$!5", k=rng.randint(3, 6))),
                           RS, dictionary).findings)
    assert found > 100
    assert len(detector._inverse(RS)[2]) == size
    assert searched > 1000


def test_rule_screen_spares_search_where_casefold_changes_length(monkeypatch):
    # str@ße casefolds to str@sse, which lines up with no bucket word, so each
    # rule deleet tries there runs _search_base. A rule can only produce a
    # password holding one of its replacement characters and none of its
    # blocking ones; of the 67 builtin rules, 15 have a replacement in these
    # passwords, and deleet's screen on the two passes fewer.
    calls = []
    search = detector._search_base

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(detector, "_search_base", counting)
    for pw, word in [("str@\u00dfe", "strasse"), ("fu\u00dfb@ll", "fussball")]:
        assert _audit_as_reference(pw, RS, [word]) > 0
        calls.clear()
        deleet(pw, RS, WordList.from_words([word]))
        may_produce = sum(1 for r in RS if set(pw) & {p.replacement for p in r.pairs})
        assert 0 < len(calls) <= may_produce


def test_builtin_mangles_take_the_shared_base(monkeypatch):
    # Every builtin rule may take the shared base wherever a word lines up, so
    # auditing their mangles of lowercase words never runs _search_base.
    rules, _, by_need, _ = detector._inverse(RS)
    for entry in by_need.values():
        assert entry and all(stops == rules[i][4] for i, stops in entry)
    calls = []
    search = detector._search_base

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(detector, "_search_base", counting)
    rng = random.Random(35)
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))
             for _ in range(300)]
    dictionary = WordList.from_words(words)
    found = 0
    for word in words:
        for rule in RS:
            mangled = apply_rule(word, rule)
            if mangled is not None:
                findings = deleet(mangled, RS, dictionary)
                assert (word, rule.id) in findings
                found += len(findings)
    assert found > 1000
    assert calls == []


def test_inverse_tables_are_invisible_and_built_once():
    # deleet keeps its tables in the rule set's __dict__, which ==, hash,
    # repr and the rule-file format never read
    rs = parse_rules("X\ta>A,A>b,o>0\tcs\nY\ts>$\n")
    dictionary = WordList.from_words(["ao", "pass"])
    assert audit("A0", rs, dictionary).findings == (("ao", "X"),)
    assert audit("pa$$", rs, dictionary).findings == (("pass", "Y"),)
    assert audit("PASS", rs, dictionary).findings == (("PASS", "BASE"), ("PaSS", "X"))
    fresh = RuleSet(rs.rules)
    assert rs == fresh and hash(rs) == hash(fresh) and repr(rs) == repr(fresh)
    assert parse_rules(serialize_rules(rs)) == rs
    assert detector._inverse(rs) is detector._inverse(rs)


def test_deleet_verification_is_sound():
    rng = random.Random(31)
    alphabet = string.ascii_lowercase + "018@$!"
    words = ["".join(rng.choice(string.ascii_lowercase + "01") for _ in range(rng.randint(3, 6)))
             for _ in range(400)]
    dictionary = WordList.from_words(words)
    folded = {w.casefold() for w in words}
    checked = 0
    for i in range(2000):
        if i % 2:
            pw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        else:
            pw = apply_rule(rng.choice(words), RS[rng.randrange(len(RS))]) or "x"
        for base, rule_id in deleet(pw, RS, dictionary):
            assert apply_rule(base, RS.by_id(rule_id)) == pw
            assert base != pw and base.casefold() in folded
            checked += 1
    assert checked > 1000


def test_audit_finds_bases_holding_replacement_characters():
    # admin1 already holds the 1 that i>1 emits; the rules that invert only
    # i (and leave the 1 alone) find it, a rule that also inverts a or n does not
    dictionary = WordList.from_words(["admin1", "adm1n1x"])
    result = audit("adm1n1", RS, dictionary)
    assert result.findings == (("admin1", "D5"), ("admin1", "D6"),
                               ("admin1", "S19"), ("admin1", "T6"))
    assert _audit_as_reference("adm1n1", RS, ["admin1", "adm1n1x"]) == 4
    assert audit("4dm1n1", RS, dictionary).findings == ()


def test_audit_casefolds_that_change_length():
    # ß, ﬁ and İ casefold to two characters, so the base and its casefold
    # do not line up position by position with the password
    cases = [
        ("sharp\t\u00df>s\tcs\n", "stra\u00dfe", ["STRASSE"]),      # straße -> strase
        ("up\t\u1e9e>5\n", "STRA\u00dfE", ["strasse"]),              # ẞ and ß both -> 5
        ("lig\t\ufb01>f\tcs\n", "\ufb01sh", ["FISH"]),                # ﬁsh -> fsh
        ("dot\t\u0130>1\tcs\n", "\u0130stanbul", ["i\u0307stanbul"]),  # İstanbul -> 1stanbul
        ("s5\ts>5\n", "stra\u00dfe", ["strasse"]),                     # 5traße: ß stays
    ]
    for rule_text, base, words in cases:
        rs = parse_rules(rule_text)
        mangled = apply_rule(base, rs[0])
        assert mangled is not None and len(mangled) == len(base)
        assert len(mangled.casefold()) != len(words[0]) or len(base.casefold()) != len(base)
        dictionary = WordList.from_words(words)
        assert deleet(mangled, rs, dictionary) == [(base, rs[0].id)], rule_text
        assert _audit_as_reference(mangled, rs, words) >= 1
    # a bucket word whose casefold lines up but with a two-character fold elsewhere
    rs = parse_rules("sharp\t\u00df>x\tcs\n")
    assert deleet("strasxe", rs, WordList.from_words(["strassse"])) == [("strasße", "sharp")]


def test_audit_when_fold_collapses_the_alphabet():
    # a>b, b>c, ..., z>a: every letter falls in one fold class, so the index
    # keys by length only and each bucket holds every word of that length
    letters = string.ascii_lowercase
    rs = parse_rules("".join(f"R{i}\t{a}>{b}\n"
                             for i, (a, b) in enumerate(zip(letters, letters[1:] + "a"))))
    assert len(set(rs.fold.values())) == 1
    rng = random.Random(34)
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(2, 4))) for _ in range(60)]
    dictionary = WordList.from_words(words)
    assert len(dictionary.fold_index(rs.fold)) == 3
    for word in words[:30]:
        rule = rs[rng.randrange(len(rs))]
        mangled = apply_rule(word, rule)
        if mangled is None:
            continue
        assert (word, rule.id) in audit(mangled, rs, dictionary).findings
        _audit_as_reference(mangled, rs, words)


def test_fold_index_is_built_once_per_fold_and_shares_strings():
    words = ["alpha", "Alpha", "beta", "b3ta", "GAMMA"]
    dictionary = WordList.from_words(words)
    index = dictionary.fold_index(RS.fold)
    assert dictionary.fold_index(RS.fold) is index
    assert dictionary.fold_index(parse_rules("X\tq>9\n").fold) is not index
    # one word per key is a bare string, the lowercase word itself
    assert index["alpha".translate(RS.fold)] is words[0]
    assert sorted(index["beta".translate(RS.fold)]) == ["b3ta", "beta"]
    assert "gamma" in index.values()
    assert "alpha" in dictionary._casefolded and words[0] in dictionary._casefolded
    # an uppercase word's bucket holds the casefold table's own string
    gamma = next(key for key in dictionary._casefolded if key == "gamma")
    assert index["gamma".translate(RS.fold)] is gamma


def test_fold_index_with_newlines_matches_word_by_word():
    # a newline in a word or in the fold table cannot take the one-pass
    # join-and-split: each falls back to folding word by word
    rs = RuleSet((ReplacementRule("N", (CharPair("\n", "x"),)),
                  ReplacementRule("Y", (CharPair("y", "\n"),))))
    assert 10 in rs.fold or 10 in rs.fold.values()
    for words in (["a\nb", "axb", "ayb", "plain"], ["axb", "ayb", "Q"]):
        for fold in (rs.fold, RS.fold):
            dictionary = WordList.from_words(words)
            want: dict = {}
            for folded in dictionary._casefolded:
                want.setdefault(folded.translate(fold), []).append(folded)
            want = {key: held[0] if len(held) == 1 else held for key, held in want.items()}
            assert dictionary.fold_index(fold) == want


def test_audit_flags_pattern_password():
    dictionary = WordList.from_words(["password", "dragon"])
    result = audit("p@ssw0rd", RS, dictionary)
    assert result.is_pattern_based
    assert ("password", "D1") in result.findings
    assert result.password == "p@ssw0rd"


def test_audit_filters_by_dictionary():
    # without "password" in the dictionary nothing survives
    dictionary = WordList.from_words(["dragon"])
    result = audit("p@ssw0rd", RS, dictionary)
    assert not result.is_pattern_based
    assert result.findings == ()


def test_audit_random_string_not_pattern_based():
    dictionary = WordList.from_words(["password", "dragon", "jessica"])
    result = audit("xk9qv2", RS, dictionary)
    assert not result.is_pattern_based


def test_audit_flags_verbatim_dictionary_word():
    dictionary = WordList.from_words(["password"])
    result = audit("password", RS, dictionary)
    assert result.is_pattern_based
    assert ("password", "BASE") in result.findings


def test_audit_dictionary_match_is_case_insensitive():
    dictionary = WordList.from_words(["Zeit"])
    result = audit("Z3it", RS, dictionary)
    assert ("Zeit", "S11") in result.findings
    result = audit("PASSWORD", RS, WordList.from_words(["password"]))
    assert ("PASSWORD", "BASE") in result.findings


def test_audit_findings_sorted_and_unique():
    dictionary = WordList.from_words(["password"])
    findings = audit("p@ssw0rd", RS, dictionary).findings
    assert findings == tuple(sorted(set(findings), key=lambda f: (f.rule_id, f.base_word)))


def test_audit_roundtrip_sample():
    rng = random.Random(32)
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 10)))
             for _ in range(300)]
    dictionary = WordList.from_words(words)
    checked = 0
    for word in dictionary.words:
        rule = RS[rng.randrange(len(RS))]
        mangled = apply_rule(word, rule)
        if mangled is None:
            continue
        result = audit(mangled, RS, dictionary)
        assert (word, rule.id) in result.findings
        checked += 1
    assert checked > 100


def test_audit_inverts_every_generated_record_under_custom_rules():
    # forward and inverse agree: for every record generate emits, audit
    # reports its rule with a base that casefolds to its word and gives the
    # password back under apply_rule. audit takes no strict option, so under
    # strict_multi too the check is plain apply_rule: the reported base may
    # lack a source the word holds (xẞib1 -> xßiß1 under ẞ>ß,b>ß).
    rng = random.Random(2026)
    chars = "abiAB1@xyz\u00e9\u00c9\u20ac\u01c5\u00df\u1e9e\u0130\ufb01"
    checked = 0
    for _ in range(300):
        rs = random_custom_rules(rng, rng.randint(1, 6))
        wl = WordList.from_words(["".join(rng.choices(chars, k=rng.randint(1, 5)))
                                  for _ in range(12)])
        for strict_multi in (False, True):
            for cand, word, rule_id in generate(wl, rs, strict_multi=strict_multi,
                                                dedup=False):
                pw = cand.decode("utf-8", "surrogatepass")
                rule = rs.by_id(rule_id)
                assert any(r == rule_id and base.casefold() == word.casefold()
                           and apply_rule(base, rule) == pw
                           for base, r in audit(pw, rs, wl).findings), (pw, word, rule)
                checked += 1
    assert checked > 4000


def test_detection_result_json_shape():
    result = audit("p@ss", RS, WordList.from_words(["pass"]))
    doc = result.to_dict()
    assert doc["password"] == "p@ss"
    assert doc["is_pattern_based"] is True
    assert {"base_word": "pass", "rule_id": "S5"} in doc["findings"]
    # json.dumps of to_dict is byte-identical to the dict built field by field,
    # over 0, 1 and many findings and non-ASCII, astral and lone-surrogate text
    rng = random.Random(39)
    words = ["pass", "password", "caf\u00e9", "\U0001f600s", "\ud800ss", "\u00e9t\u00e9"]
    dictionary = WordList.from_words(words)
    passwords = ["xk9qv2", "", "p@ss", "PASSWORD", "p@ssw0rd", "c@f\u00e9", "\U0001f6005",
                 "\ud800$$", "\u00e9t\u00e9", '"\\\n\x00']
    passwords += [apply_rule(rng.choice(words), RS[rng.randrange(len(RS))]) or rng.choice(words)
                  for _ in range(200)]
    sizes = set()
    for pw in passwords:
        result = audit(pw, RS, dictionary)
        assert result == detector.DetectionResult(pw, result.findings)
        assert vars(result) == {"password": pw, "findings": result.findings}
        want = {"password": result.password,
                "findings": [{"base_word": f.base_word, "rule_id": f.rule_id}
                             for f in result.findings],
                "is_pattern_based": result.is_pattern_based}
        assert json.dumps(result.to_dict()) == json.dumps(want)
        sizes.add(min(len(result.findings), 2))
    assert sizes == {0, 1, 2}
