"""Rule tables, the rule-file format, and hashcat export."""

from __future__ import annotations

import codecs
import itertools
import random
import string

import pytest

from leetforge import (BASE_RULE_ID, CharPair, ExportError, ReplacementRule,
                       RuleParseError, RuleSet, apply_rule, builtin_rules,
                       export_hashcat, parse_rules, serialize_rules)
from oracles import simulate_hashcat_line
from synthetic import case_noise, random_custom_rules


def test_builtin_counts():
    rs = builtin_rules()
    assert len(rs) == 67
    assert len(rs.singles) == 43
    assert len(rs.duals) == 9
    assert len(rs.triads) == 15
    assert len(rs.top5) == 5


def test_builtin_ids_in_order():
    rs = builtin_rules()
    assert [r.id for r in rs.singles] == [f"S{i}" for i in range(1, 44)]
    assert [r.id for r in rs.duals] == [f"D{i}" for i in range(1, 10)]
    assert [r.id for r in rs.triads] == [f"T{i}" for i in range(1, 16)]
    assert [r.id for r in rs] == [r.id for r in rs.singles] + \
        [r.id for r in rs.duals] + [r.id for r in rs.triads]


def test_top5_rank_order():
    top5 = builtin_rules().top5
    got = [(r.pairs[0].source, r.pairs[0].replacement) for r in top5]
    assert got == [("i", "1"), ("o", "0"), ("e", "3"), ("l", "1"), ("a", "@")]
    assert [r.id for r in top5] == ["S19", "S28", "S11", "S23", "S5"]


def test_builtin_spot_checks():
    rs = builtin_rules()
    d1 = rs.by_id("D1")
    assert [(p.source, p.replacement) for p in d1.pairs] == [("a", "@"), ("o", "0")]
    t8 = rs.by_id("T8")
    assert [(p.source, p.replacement) for p in t8.pairs] == \
        [("s", "$"), ("l", "!"), ("o", "@")]
    assert all(r.case_insensitive for r in rs)


def test_builtin_is_deterministic():
    assert builtin_rules() == builtin_rules()
    assert serialize_rules(builtin_rules()) == serialize_rules(builtin_rules())


def test_subsets_index():
    subsets = builtin_rules().subsets
    assert set(subsets) == {"singles", "duals", "triads", "top5"}
    assert len(subsets["triads"]) == 15


def test_charpair_validation():
    with pytest.raises(ValueError):
        CharPair("a", "a")
    with pytest.raises(ValueError):
        CharPair("ab", "0")
    with pytest.raises(ValueError):
        CharPair("a", "")


def test_rule_validation():
    with pytest.raises(ValueError):
        ReplacementRule("X", (CharPair("a", "@"), CharPair("a", "4")))
    # case-insensitive source collision across cases
    with pytest.raises(ValueError):
        ReplacementRule("X", (CharPair("a", "@"), CharPair("A", "4")))
    # but fine when the rule is case-sensitive
    ReplacementRule("X", (CharPair("a", "@"), CharPair("A", "4")), case_insensitive=False)
    # dotless ı swaps case to I, which i also claims
    with pytest.raises(ValueError, match="repeats"):
        ReplacementRule("X", (CharPair("i", "1"), CharPair("\u0131", "!")))
    ReplacementRule("X", (CharPair("i", "1"), CharPair("\u0131", "!")), case_insensitive=False)
    with pytest.raises(ValueError):
        ReplacementRule("X", ())
    with pytest.raises(ValueError):
        ReplacementRule("X", tuple(CharPair(c, "0") for c in "abcd"))


def test_base_rule_id_is_reserved():
    # BASE marks unmangled words in provenance and audit findings
    with pytest.raises(ValueError, match="reserved"):
        ReplacementRule(BASE_RULE_ID, (CharPair("a", "@"),))
    with pytest.raises(RuleParseError, match="line 2.*reserved"):
        parse_rules("# comment\nBASE\ta>@\n")
    assert parse_rules("base\ta>@\n")[0].id == "base"


def test_ruleset_rejects_duplicate_ids():
    r = ReplacementRule("X", (CharPair("a", "@"),))
    with pytest.raises(ValueError, match="duplicate"):
        RuleSet((r, r))


def test_parse_single_line():
    rs = parse_rules("S1\ta>0\n")
    assert len(rs) == 1
    assert rs[0].id == "S1"
    assert rs[0].pairs == (CharPair("a", "0"),)
    assert rs[0].case_insensitive


def test_parse_multi_pair_and_flags():
    rs = parse_rules("D1\ta>@,o>0\nX\ti>1\tcs\n# comment\n\n")
    assert len(rs) == 2
    assert rs[0].pairs == (CharPair("a", "@"), CharPair("o", "0"))
    assert not rs[1].case_insensitive


def test_parse_autogenerated_ids():
    rs = parse_rules("a>@\no>0\n")
    assert [r.id for r in rs] == ["R1", "R2"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(RuleParseError, match="line 1"):
        parse_rules("X\ta>@,a>4\n")
    with pytest.raises(RuleParseError, match="line 3"):
        parse_rules("A\ta>@\n# fine\nB\tbogus\n")
    with pytest.raises(RuleParseError, match="line 2"):
        parse_rules("A\ta>@\nA\to>0\n")
    with pytest.raises(RuleParseError, match="3-pair"):
        parse_rules("X\ta>@,o>0,i>1,e>3\n")
    with pytest.raises(RuleParseError, match="flag"):
        parse_rules("X\ta>@\tnope\n")
    with pytest.raises(RuleParseError):
        parse_rules("X\ta>a\n")


def test_serialize_parse_roundtrip_builtin():
    rs = builtin_rules()
    assert parse_rules(serialize_rules(rs)) == rs


def test_serialize_examples():
    rs = parse_rules("S39\ts>$\n")
    assert "s>$" in serialize_rules(rs)
    assert serialize_rules(RuleSet(())) == ""


@pytest.mark.parametrize("source", ["\u00df", "\u0130"])  # ß -> "SS", İ -> "i̇"
def test_parse_rejects_source_without_single_char_case(source):
    with pytest.raises(RuleParseError, match="line 1"):
        parse_rules(f"X\t{source}>s\n")
    rs = parse_rules(f"X\t{source}>s\tcs\n")
    assert apply_rule(f"a{source}", rs[0]) == "as"


def test_roundtrip_random_rulesets():
    rng = random.Random(0x5EED)
    symbols = "0123456789@$!;,.?#%&"
    for _ in range(200):
        rules = []
        for n in range(rng.randint(1, 12)):
            arity = rng.randint(1, 3)
            sources = rng.sample(string.ascii_lowercase, arity)
            pairs = tuple(CharPair(s, rng.choice(symbols)) for s in sources)
            rules.append(ReplacementRule(f"U{n}", pairs,
                                         case_insensitive=rng.random() < 0.7))
        rs = RuleSet(tuple(rules))
        assert parse_rules(serialize_rules(rs)) == rs


def test_parse_drops_leading_bom():
    for text in (codecs.BOM_UTF8 + b"X\ta>@\n", "\ufeffX\ta>@\n"):
        assert [r.id for r in parse_rules(text)] == ["X"]


# Characters that can break a native rule line, splitlines separators among them.
_AWKWARD = "\t\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029# ,>aAbB1@"
_IDS = ["X", "", " ", "\x85", "#c", " #c", "a#", "a\tb", "a\nb", "a\rb", "a\r", "R\u2028"]


def _replays(rule: ReplacementRule) -> bool:
    """Whether a rule's native line can read back as the rule, from the format alone."""
    text = rule.id + "".join(p.source + p.replacement for p in rule.pairs)
    if "\t" in text or "\n" in text:
        return False  # a TAB adds a field, an LF ends the line
    if not rule.id.strip() or rule.id.lstrip().startswith("#"):
        return False  # an empty id, or a comment line
    # without the cs field the line ends in the last replacement; trailing CRs are stripped
    return not (rule.case_insensitive and rule.pairs[-1].replacement == "\r")


def test_serialize_replays_or_refuses_random_rules():
    rng = random.Random(0xC0DE)
    outcomes = set()
    for _ in range(3000):
        pairs = tuple(CharPair(*rng.sample(_AWKWARD, 2)) for _ in range(rng.randint(1, 3)))
        try:
            rule = ReplacementRule(rng.choice(_IDS), pairs, case_insensitive=rng.random() < 0.5)
        except ValueError:
            continue  # a repeated source character
        rs = RuleSet((rule,))
        try:
            text = serialize_rules(rs)
        except ExportError:
            assert not _replays(rule), rule
            outcomes.add("refused")
            continue
        assert _replays(rule), rule
        assert parse_rules(text) == rs
        outcomes.add("replayed")
    assert outcomes == {"refused", "replayed"}


def test_export_case_sensitive_single():
    rs = parse_rules("X\ta>0\tcs\n")
    assert export_hashcat(rs) == "sa0\n"


def test_export_case_sensitive_dual():
    rs = parse_rules("X\ta>@,o>0\tcs\n")
    assert export_hashcat(rs) == "sa@ so0\n"


def test_export_case_insensitive_adds_upper_variant():
    rs = parse_rules("S19\ti>1\n")
    assert export_hashcat(rs) == "si1 sI1\n"


def test_export_builtin_shape():
    lines = export_hashcat(builtin_rules()).splitlines()
    assert len(lines) == 67
    for line in lines:
        assert line
        for token in line.split(" "):
            assert len(token) == 3 and token[0] == "s"


def test_export_rejects_unrepresentable():
    rs = RuleSet((ReplacementRule("X", (CharPair("a", "é"),)),))
    with pytest.raises(ExportError, match="X"):
        export_hashcat(rs)
    rs = RuleSet((ReplacementRule("X", (CharPair(" ", "_"),)),))
    with pytest.raises(ExportError):
        export_hashcat(rs)


def test_export_matches_apply_rule_quick():
    rs = builtin_rules()
    lines = export_hashcat(rs).splitlines()
    rng = random.Random(41)
    alphabet = string.ascii_letters + "0123456789@$!"
    for _ in range(300):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        for rule, line in zip(rs, lines):
            expected = apply_rule(word, rule)
            assert simulate_hashcat_line(line, word) == (expected or word)


def _replay_line(pairs, case_insensitive):
    """Substitute tokens for the pairs in the given order, one line."""
    tokens = []
    for p in pairs:
        tokens.append(f"s{p.source}{p.replacement}")
        if case_insensitive and p.source.swapcase() != p.source:
            tokens.append(f"s{p.source.swapcase()}{p.replacement}")
    return " ".join(tokens)


def test_export_orders_chained_pairs():
    rs = parse_rules("X\ta>b,b>c\n")
    line = export_hashcat(rs).rstrip("\n")
    assert line == "sbc sBc sab sAb"
    assert simulate_hashcat_line(line, "ab") == apply_rule("ab", rs[0]) == "bc"
    assert export_hashcat(parse_rules("X\ta>A\n")) == "saA sAA\n"   # a pair never waits on itself
    with pytest.raises(ExportError, match="cycle"):
        export_hashcat(parse_rules("X\ta>b,b>a\n"))
    with pytest.raises(ExportError, match="cycle"):
        export_hashcat(parse_rules("X\ta>B,b>A\n"))   # the cycle runs through the upper cases


def test_export_replays_random_chained_rules():
    # A small alphabet makes one pair's replacement another pair's source often.
    rng = random.Random(0xC4A1)
    alphabet = "abcAB01"
    exportable, refused = [], 0
    while len(exportable) < 300:
        try:
            pairs = tuple(CharPair(s, rng.choice(alphabet))
                          for s in rng.sample(alphabet, rng.randint(1, 3)))
            rule = ReplacementRule(f"U{len(exportable)}", pairs,
                                   case_insensitive=rng.random() < 0.5)
        except ValueError:   # source == replacement, or a repeated source
            continue
        try:
            export_hashcat(RuleSet((rule,)))
        except ExportError:
            refused += 1
            # refused only when no order of the pairs replays a word holding
            # every source character in both cases
            witness = "".join(sorted({c for p in pairs for c in (p.source, p.source.swapcase())}))
            expected = apply_rule(witness, rule) or witness
            for order in itertools.permutations(pairs):
                line = _replay_line(order, rule.case_insensitive)
                assert simulate_hashcat_line(line, witness) != expected
            continue
        exportable.append(rule)
    assert refused > 5
    rs = RuleSet(tuple(exportable))
    lines = export_hashcat(rs).splitlines()
    for _ in range(100):
        word = "".join(rng.choice(alphabet + "xyz") for _ in range(rng.randint(0, 10)))
        for rule, line in zip(rs, lines):
            assert simulate_hashcat_line(line, word) == (apply_rule(word, rule) or word)


def test_fold_key_is_shared_by_a_word_and_its_mangles():
    # apply_rule(b, r, strict_multi) == p implies equal fold keys for b and p:
    # audit looks bases up by this key, and generate dedups across words only
    # where two words share it.
    rng = random.Random(35)
    named = parse_rules("sharp\t\u00df>s\tcs\ndotted\t\u0130>1\tcs\nlig\t\ufb01>f\tcs\n"
                        "long\ts>\u00df\nupper\tA>4,B>8\tcs\nfold\tA>a\n")
    checked = 0
    for rs in [builtin_rules(), named] + [random_custom_rules(rng, rng.randint(1, 6))
                                          for _ in range(300)]:
        fold = rs.fold
        chars = sorted({c for r in rs for p in r.pairs
                        for c in (p.source, p.source.swapcase(), p.replacement)} | {"x"})
        for _ in range(40):
            word = case_noise(rng, "".join(rng.choice(chars) for _ in range(rng.randint(1, 6))))
            key = word.casefold().translate(fold)
            for rule, strict in itertools.product(rs, (False, True)):
                out = apply_rule(word, rule, strict)
                if out is not None:
                    assert out.casefold().translate(fold) == key, (word, rule, out)
                    checked += 1
    assert checked > 20000
