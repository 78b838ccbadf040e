"""Baseline-vs-pattern recovery benchmark and uplift arithmetic."""

from __future__ import annotations

import time

from ._value import Value
from .corpus import WordList
from .cracker import HashStore, crack, load_hashes
from .generator import base_candidates, generate
from .rules import RuleSet, builtin_rules


def uplift(baseline: int, pattern: int) -> float | None:
    """Percentage gain of pattern over baseline, one decimal; None when baseline is 0."""
    if baseline <= 0:
        return None
    return round(100.0 * (pattern - baseline) / baseline, 1)


class BenchReport(Value):
    """The counts of one run_benchmark call.

    pattern_store, set by run_benchmark, is the pattern phase's HashStore:
    its recovered entries are what `bench --potfile` writes. It is not a
    field, so to_dict(), == and repr leave it out.
    """

    pattern_store: HashStore | None = None
    _fields = ("wordlist_size", "candidate_count", "hash_raw", "hash_unique",
               "baseline_recovered", "pattern_recovered", "uplift_percent", "throughput",
               "ruleset_name", "options", "started_at", "finished_at")

    def __init__(self, wordlist_size: int, candidate_count: int, hash_raw: int,
                 hash_unique: int, baseline_recovered: int, pattern_recovered: int,
                 uplift_percent: float | None, throughput: dict[str, float],
                 ruleset_name: str, options: dict, started_at: str, finished_at: str):
        self.wordlist_size = wordlist_size
        self.candidate_count = candidate_count
        self.hash_raw = hash_raw
        self.hash_unique = hash_unique
        self.baseline_recovered = baseline_recovered
        self.pattern_recovered = pattern_recovered
        self.uplift_percent = uplift_percent
        self.throughput = throughput
        self.ruleset_name = ruleset_name
        self.options = options
        self.started_at = started_at
        self.finished_at = finished_at

    def to_dict(self) -> dict:
        """JSON form: counts stay integers, percentages become one-decimal strings.

        The nested dicts are copies, so changing the document leaves the report alone.
        """
        doc = {name: getattr(self, name) for name in self._fields}
        doc["options"] = dict(self.options)
        if self.uplift_percent is not None:
            doc["uplift_percent"] = f"{self.uplift_percent:.1f}"
        doc["throughput"] = {k: round(v, 1) for k, v in self.throughput.items()}
        return doc


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def run_benchmark(wl: WordList, hash_source: str | bytes, rs: RuleSet, *,
                  patterns_only: bool = False, strict_multi: bool = False,
                  dedup: bool = True, algorithm: str = "md5", threads: int = 1,
                  ruleset_name: str | None = None) -> BenchReport:
    """Measure pattern-rule uplift over a plain-wordlist baseline.

    The pattern phase includes the base words unless patterns_only is set, so
    by default it is a strict superset of the baseline run. strict_multi and
    dedup are passed to generate. The report's pattern_store holds the
    pattern phase's recovered entries. ruleset_name defaults to
    "builtin", "none" or "custom", as rs is the builtin set, empty or other.
    threads has no effect: perfbench/workloads.py is its only user, so it
    goes when that file stops passing it.
    """
    if ruleset_name is None:
        ruleset_name = "builtin" if rs == builtin_rules() else "custom" if rs else "none"
    started = _utcnow()
    # The digest list is parsed and checked once; each phase matches into a
    # fresh store over the same digests.
    baseline_store = load_hashes(hash_source, algorithm)
    baseline = crack(baseline_store, base_candidates(wl))
    pattern_store = baseline_store.fresh()
    stream = generate(wl, rs, include_base=not patterns_only,
                      strict_multi=strict_multi, dedup=dedup)
    pattern = crack(pattern_store, stream)
    finished = _utcnow()
    report = BenchReport(
        wordlist_size=len(wl),
        candidate_count=stream.stats.emitted,
        hash_raw=pattern_store.raw_count,
        hash_unique=pattern_store.unique_count,
        baseline_recovered=baseline.recovered_new,
        pattern_recovered=pattern.recovered_new,
        uplift_percent=uplift(baseline.recovered_new, pattern.recovered_new),
        throughput={"baseline": baseline.throughput, "pattern": pattern.throughput},
        ruleset_name=ruleset_name,
        options={"include_base": not patterns_only, "strict_multi": strict_multi,
                 "dedup": dedup, "patterns_only": patterns_only, "algorithm": algorithm},
        started_at=started,
        finished_at=finished,
    )
    report.pattern_store = pattern_store
    return report


def format_report_table(report: BenchReport) -> str:
    """Small aligned key/value rendering for terminals."""
    up = "n/a" if report.uplift_percent is None else f"{report.uplift_percent:.1f}%"
    rows = [
        ("wordlist size", f"{report.wordlist_size:,}"),
        ("candidates", f"{report.candidate_count:,}"),
        ("hashes (raw)", f"{report.hash_raw:,}"),
        ("hashes (unique)", f"{report.hash_unique:,}"),
        ("baseline recovered", f"{report.baseline_recovered:,}"),
        ("pattern recovered", f"{report.pattern_recovered:,}"),
        ("uplift", up),
        ("baseline c/s", f"{report.throughput['baseline']:,.0f}"),
        ("pattern c/s", f"{report.throughput['pattern']:,.0f}"),
    ]
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)
