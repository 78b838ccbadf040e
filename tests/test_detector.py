"""De-leet inversion and dictionary-backed auditing."""

from __future__ import annotations

import random
import string
import sys

from leetforge import WordList, apply_rule, audit, builtin_rules, deleet, parse_rules
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
                        "sharp\t\u00df>s\tcs\ndotted\t\u0130>1\tcs\nlig\t\ufb01>f\tcs\n")
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


def test_detection_result_json_shape():
    result = audit("p@ss", RS, WordList.from_words(["pass"]))
    doc = result.to_dict()
    assert doc["password"] == "p@ss"
    assert doc["is_pattern_based"] is True
    assert {"base_word": "pass", "rule_id": "S5"} in doc["findings"]
