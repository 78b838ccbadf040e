"""Two-phase benchmark wiring and uplift arithmetic."""

from __future__ import annotations

import json
import re

from leetforge import (RuleSet, WordList, bench, builtin_rules, crack, parse_rules,
                       run_benchmark, uplift)
from leetforge.bench import BenchReport, format_report_table
from oracles import md5_reference
from synthetic import planted_corpus

RS = builtin_rules()


def test_uplift_values():
    assert uplift(17210, 30215) == 75.6
    assert uplift(100, 100) == 0.0
    assert uplift(10, 18) == 80.0
    assert uplift(100, 50) == -50.0
    assert uplift(0, 5) is None


def test_benchmark_synthetic_counts():
    words, hash_text, _, _ = planted_corpus(100, 10, 10)
    report = run_benchmark(WordList.from_words(words), hash_text, RS)
    assert report.wordlist_size == 100
    assert report.hash_raw == 20
    assert report.hash_unique == 20
    assert report.baseline_recovered == 10
    assert report.pattern_recovered == 20
    assert report.uplift_percent == 100.0
    assert report.options["include_base"] is True


def test_benchmark_pattern_store_shares_the_parsed_set(monkeypatch):
    stores = []

    def spy(store, candidates, **kwargs):
        stores.append(store)
        return crack(store, candidates, **kwargs)

    monkeypatch.setattr(bench, "crack", spy)
    words, hash_text, _, _ = planted_corpus(100, 10, 10)
    report = run_benchmark(WordList.from_words(words), hash_text, RS)
    baseline_store, pattern_store = stores
    assert pattern_store is not baseline_store
    assert pattern_store.digest_set is baseline_store.digest_set
    assert (report.baseline_recovered, report.pattern_recovered) == (10, 20)
    assert len(baseline_store.recovered) == 10 and len(pattern_store.recovered) == 20
    # the report hands back the pattern phase's store, outside its fields
    assert report.pattern_store is pattern_store
    assert "pattern_store" not in report.to_dict() and "pattern_store" not in repr(report)
    assert report == BenchReport(*(getattr(report, name) for name in report._fields))


def test_benchmark_patterns_only():
    words, hash_text, _, _ = planted_corpus(100, 10, 10)
    report = run_benchmark(WordList.from_words(words), hash_text, RS,
                           patterns_only=True)
    # mangles alone reach only the planted o->0 digests
    assert report.baseline_recovered == 10
    assert report.pattern_recovered == 10
    assert report.uplift_percent == 0.0
    assert report.options["include_base"] is False


def test_benchmark_empty_store_reports_absent_uplift():
    words, _, _, _ = planted_corpus(50, 5, 5)
    report = run_benchmark(WordList.from_words(words), "", RS)
    assert report.baseline_recovered == 0
    assert report.pattern_recovered == 0
    assert report.uplift_percent is None
    assert report.to_dict()["uplift_percent"] is None


def test_benchmark_is_repeatable():
    words, hash_text, _, _ = planted_corpus(80, 15, 15)
    wl = WordList.from_words(words)
    a = run_benchmark(wl, hash_text, RS)
    b = run_benchmark(wl, hash_text, RS)
    keep = ("wordlist_size", "candidate_count", "hash_raw", "hash_unique",
            "baseline_recovered", "pattern_recovered", "uplift_percent")
    assert {k: getattr(a, k) for k in keep} == {k: getattr(b, k) for k in keep}


def test_benchmark_candidate_count_matches_stream():
    words, hash_text, _, _ = planted_corpus(60, 10, 10)
    wl = WordList.from_words(words)
    report = run_benchmark(wl, hash_text, RS)
    # each word mangles to exactly three distinct forms (0/3/@ head)
    assert report.candidate_count == len(wl) * 4


def test_report_json_types():
    words, hash_text, _, _ = planted_corpus(50, 10, 5)
    report = run_benchmark(WordList.from_words(words), hash_text, RS,
                           ruleset_name="builtin")
    doc = json.loads(json.dumps(report.to_dict()))
    for key in ("wordlist_size", "candidate_count", "hash_raw", "hash_unique",
                "baseline_recovered", "pattern_recovered"):
        assert isinstance(doc[key], int)
    assert doc["uplift_percent"] == "50.0"
    assert isinstance(doc["throughput"]["baseline"], float)
    assert list(doc["options"]) == ["include_base", "strict_multi", "dedup",
                                    "patterns_only", "algorithm"]
    assert doc["ruleset_name"] == "builtin"
    assert doc["started_at"] <= doc["finished_at"]
    for key in ("started_at", "finished_at"):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", doc[key])


def test_report_dict_holds_copies_of_the_nested_dicts():
    report = run_benchmark(WordList.from_words(["pass"]), "", RS)
    doc = report.to_dict()
    doc["options"]["dedup"] = doc["throughput"]["baseline"] = "changed"
    assert report.options["dedup"] is True
    assert report.throughput["baseline"] != "changed"
    assert report.to_dict()["options"]["dedup"] is True


def test_ruleset_name_defaults_to_what_the_rule_set_is():
    wl = WordList.from_words(["pass"])
    digests = md5_reference(b"p@ss").hex() + "\n"
    for rs, name in [(RS, "builtin"), (RuleSet(tuple(RS)), "builtin"),
                     (parse_rules("X\ta>@\n"), "custom"), (RuleSet(()), "none")]:
        assert run_benchmark(wl, digests, rs).ruleset_name == name
    assert run_benchmark(wl, digests, RS, ruleset_name="mine").ruleset_name == "mine"


def test_report_satisfies_uplift_formula():
    words, hash_text, _, _ = planted_corpus(90, 20, 10)
    report = run_benchmark(WordList.from_words(words), hash_text, RS)
    assert report.uplift_percent == uplift(report.baseline_recovered,
                                           report.pattern_recovered)


def test_format_report_table():
    words, hash_text, _, _ = planted_corpus(30, 5, 5)
    report = run_benchmark(WordList.from_words(words), hash_text, RS)
    table = format_report_table(report)
    assert "uplift" in table and "100.0%" in table
