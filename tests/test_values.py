"""The public value types' contract: constructor signature, field-wise ==,
repr, and hash and immutability for the frozen ones."""

from __future__ import annotations

import inspect

import pytest

from leetforge import (BenchReport, CharPair, CrackResult, DetectionResult, Finding,
                       GenStats, Match, ReplacementRule, RuleSet, WordList)

REQUIRED = inspect.Parameter.empty
FRESH = object()   # a default that builds a new value for each instance

PAIR = CharPair("a", "@")
RULE = ReplacementRule("X", (PAIR,))
PAIR_REPR = "CharPair(source='a', replacement='@')"
RULE_REPR = f"ReplacementRule(id='X', pairs=({PAIR_REPR},), case_insensitive=True)"
REPORT_ARGS = (3, 4, 5, 6, 1, 2, 100.0, {"baseline": 1.5}, "builtin", {"dedup": True},
               "2020-01-02T03:04:05+00:00", "2020-01-02T03:04:06+00:00")

# class, its constructor's (parameter, default) in order, two sample argument
# tuples that differ in one field, and the first sample's repr
CASES = [
    (WordList, [("words", REQUIRED), ("sources", REQUIRED)],
     (("a", "b"), (("memory", 2),)), (("a",), (("memory", 2),)),
     "WordList(words=('a', 'b'), sources=(('memory', 2),))"),
    (CharPair, [("source", REQUIRED), ("replacement", REQUIRED)],
     ("a", "@"), ("a", "4"), PAIR_REPR),
    (ReplacementRule, [("id", REQUIRED), ("pairs", REQUIRED), ("case_insensitive", True)],
     ("X", (PAIR,)), ("X", (PAIR,), False), RULE_REPR),
    (RuleSet, [("rules", REQUIRED)], ((RULE,),), ((),), f"RuleSet(rules=({RULE_REPR},))"),
    (DetectionResult, [("password", REQUIRED), ("findings", REQUIRED)],
     ("p@ss", (Finding("pass", "S5"),)), ("p@ss", ()),
     "DetectionResult(password='p@ss', findings=(Finding(base_word='pass', rule_id='S5'),))"),
    (GenStats, [("suppressed_duplicates", 0), ("by_arity", FRESH)], (), (1,),
     "GenStats(suppressed_duplicates=0, "
     "by_arity={'base': 0, 'single': 0, 'dual': 0, 'triad': 0})"),
    (CrackResult, [("attempted", REQUIRED), ("recovered_new", REQUIRED),
                   ("matches", REQUIRED), ("elapsed", REQUIRED), ("throughput", REQUIRED)],
     (1, 1, [Match(b"\x01", "p", "p", "BASE")], 0.5, 2.0), (1, 0, [], 0.5, 2.0),
     "CrackResult(attempted=1, recovered_new=1, matches=[Match(digest=b'\\x01', "
     "plaintext='p', base_word='p', rule_id='BASE')], elapsed=0.5, throughput=2.0)"),
    (BenchReport, [(name, REQUIRED) for name in (
        "wordlist_size", "candidate_count", "hash_raw", "hash_unique", "baseline_recovered",
        "pattern_recovered", "uplift_percent", "throughput", "ruleset_name", "options",
        "started_at", "finished_at")],
     REPORT_ARGS, REPORT_ARGS[:6] + (None,) + REPORT_ARGS[7:],
     "BenchReport(wordlist_size=3, candidate_count=4, hash_raw=5, hash_unique=6, "
     "baseline_recovered=1, pattern_recovered=2, uplift_percent=100.0, "
     "throughput={'baseline': 1.5}, ruleset_name='builtin', options={'dedup': True}, "
     "started_at='2020-01-02T03:04:05+00:00', finished_at='2020-01-02T03:04:06+00:00')"),
]
FROZEN = {WordList, CharPair, ReplacementRule, RuleSet, DetectionResult}


@pytest.mark.parametrize("cls,params,args,other,text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, params, args, other, text):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert [name for name, _ in got] == [name for name, _ in params]
    assert cls.__match_args__ == tuple(name for name, _ in params)
    for (name, default), (_, want) in zip(got, params):
        assert default is not REQUIRED if want is FRESH else default == want, name
    value = cls(*args)
    assert repr(value) == text
    assert value == cls(*args)
    assert value != cls(*other)
    assert value.__eq__(tuple(args)) is NotImplemented
    if cls in FROZEN:
        assert hash(value) == hash(cls(*args))
        name = params[0][0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
    else:
        with pytest.raises(TypeError):
            hash(value)
