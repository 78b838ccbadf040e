"""De-leet inversion and dictionary-backed auditing."""

from __future__ import annotations

import random
import string
import sys

from leetforge import (CharPair, ReplacementRule, RuleSet, WordList, apply_rule, audit,
                       builtin_rules, deleet, parse_rules)
from oracles import deleet_reference

RS = builtin_rules()
TOP5 = RS.top5


def test_deleet_finds_single_substitution():
    findings = deleet("tiff@ny", TOP5)
    assert ("tiffany", "S5") in findings


def test_deleet_finds_o_to_zero():
    findings = deleet("pe0ple", TOP5)
    assert ("people", "S28") in findings


def test_deleet_plain_word_yields_nothing():
    assert deleet("abcdef", RS) == []


def test_deleet_rejects_leftover_source_chars():
    # "a@b" still contains an 'a' the rule would have replaced, so inverting
    # @->a gives "aab" which re-applies to "@@b" != "a@b": no finding.
    rule = parse_rules("X\ta>@\n")
    assert deleet("a@b", rule) == []
    assert deleet("@b", rule) == [("ab", "X")]


def test_deleet_at_most_one_finding_per_rule():
    findings = deleet("p@ssw0rd", RS)
    ids = [rule_id for _, rule_id in findings]
    assert len(ids) == len(set(ids))
    assert len(findings) <= len(RS)
    assert ("password", "D1") in findings


def test_deleet_reconstructs_lowercase_sources():
    # the replacement digit maps back to a lowercase letter, and the
    # case-insensitive re-application still verifies
    findings = deleet("SK8TER", RS)
    assert ("SKaTER", "S4") in findings


def test_deleet_inverts_case_sensitive_uppercase_source():
    rs = parse_rules("X\tA>4\tcs\n")
    assert apply_rule("ABC", rs.by_id("X")) == "4BC"
    assert deleet("4BC", rs) == [("ABC", "X")]
    assert audit("4BC", rs, WordList.from_words(["ABC"])).findings == (("ABC", "X"),)


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
            assert deleet(mangled, rs) == [(word, "X")]
            assert audit(mangled, rs, WordList.from_words([word])).findings == ((word, "X"),)


def _random_custom_rules(rng, n):
    """n rules over a small pool, so chains (a>b,b>1), shared replacements
    (a>1,i>1), case-sensitive uppercase sources, A>a, non-ASCII pairs and a
    titlecase source recur."""
    pool = "abiAB1@" + "\u00e9\u00c9\u20ac\u01c5"   # é É € ǅ
    rules = []
    while len(rules) < n:
        try:
            pairs = tuple(CharPair(*rng.sample(pool, 2)) for _ in range(rng.randint(1, 3)))
            rules.append(ReplacementRule(f"C{len(rules)}", pairs,
                                         case_insensitive=rng.random() < 0.5))
        except ValueError:   # a repeated source character
            continue
    return RuleSet(tuple(rules))


def _assert_matches_reference(pw, rs):
    want = deleet_reference(pw, rs)
    assert deleet(pw, rs) == want
    bases = [base for base, _ in want]
    expected = set(want)
    if pw.casefold() in {b.casefold() for b in bases}:
        expected.add((pw, "BASE"))
    assert audit(pw, rs, WordList.from_words(bases)).findings == tuple(
        sorted(expected, key=lambda f: (f[1], f[0])))
    return len(want)


def test_deleet_and_audit_match_unscreened_reference():
    rng = random.Random(33)
    named = parse_rules("chain\ta>b,b>c\nshared\ta>1,i>1\nupper\tA>4,B>8\tcs\n"
                        "fold\tA>a\nwide\t\u00e9>\u20ac,\u00c9>e\tcs\n")
    found = 0
    for rs in [RS, named] + [_random_custom_rules(rng, rng.randint(1, 6)) for _ in range(300)]:
        # passwords from the rules' own characters, plus forward mangles
        chars = sorted({c for r in rs for p in r.pairs
                        for c in (p.source, p.source.swapcase(), p.replacement)} | {"x"})
        for _ in range(40):
            word = "".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))
            found += _assert_matches_reference(word, rs)
            mangled = apply_rule(word, rs[rng.randrange(len(rs))])
            if mangled is not None:
                found += _assert_matches_reference(mangled, rs)
    assert found > 10000
    assert deleet("cb", named) == [("ba", "chain")]


def test_deleet_verification_is_sound():
    rng = random.Random(31)
    alphabet = string.ascii_lowercase + "018@$!"
    for _ in range(2000):
        pw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        for base, rule_id in deleet(pw, RS):
            assert apply_rule(base, RS.by_id(rule_id)) == pw
            assert base != pw


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
