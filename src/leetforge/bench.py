"""Baseline-vs-pattern recovery benchmark and uplift arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .corpus import WordList
from .cracker import CrackResult, crack
from .generator import GenOptions, base_candidates, generate
from .hashstore import HashStore, format_potfile, load_hashes
from .rules import RuleSet


def uplift(baseline: int, pattern: int) -> float | None:
    """Percentage gain of pattern over baseline, one decimal; None when baseline is 0."""
    if baseline <= 0:
        return None
    return round(100.0 * (pattern - baseline) / baseline, 1)


@dataclass
class BenchReport:
    wordlist_size: int
    candidate_count: int
    hash_raw: int
    hash_unique: int
    baseline_recovered: int
    pattern_recovered: int
    uplift_percent: float | None
    throughput: dict[str, float]
    ruleset_name: str
    options: dict
    started_at: str
    finished_at: str

    def to_dict(self) -> dict:
        """JSON form: counts stay integers, percentages become one-decimal strings."""
        return {
            "wordlist_size": self.wordlist_size,
            "candidate_count": self.candidate_count,
            "hash_raw": self.hash_raw,
            "hash_unique": self.hash_unique,
            "baseline_recovered": self.baseline_recovered,
            "pattern_recovered": self.pattern_recovered,
            "uplift_percent": None if self.uplift_percent is None
                              else f"{self.uplift_percent:.1f}",
            "throughput": {k: round(v, 1) for k, v in self.throughput.items()},
            "ruleset_name": self.ruleset_name,
            "options": self.options,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _run_phases(wl: WordList, hash_source: str | bytes, rs: RuleSet,
                gen_opts: GenOptions, algorithm: str, threads: int
                ) -> tuple[CrackResult, HashStore, CrackResult, HashStore, int]:
    """Both phases against fresh stores holding the digests of one parse.

    Phase 1 tries the plain words only; phase 2 tries the generated stream.
    Returns (baseline result, baseline store, pattern result, pattern store,
    pattern candidate count). threads has no effect.
    """
    baseline_store = load_hashes(hash_source, algorithm)
    baseline = crack(baseline_store, base_candidates(wl))
    pattern_store = HashStore(baseline_store.digest_set, algorithm,
                              raw_count=baseline_store.raw_count)
    stream = generate(wl, rs, gen_opts)
    pattern = crack(pattern_store, stream)
    return baseline, baseline_store, pattern, pattern_store, stream.stats.emitted


def run_benchmark(wl: WordList, hash_source: str | bytes, rs: RuleSet,
                  opts: GenOptions | None = None, *, patterns_only: bool = False,
                  algorithm: str = "md5", threads: int = 1,
                  ruleset_name: str = "builtin",
                  potfile_path: str | Path | None = None) -> BenchReport:
    """Measure pattern-rule uplift over a plain-wordlist baseline.

    The pattern phase includes the base words unless patterns_only is set, so
    by default it is a strict superset of the baseline run. opts contributes
    the strict_multi/dedup knobs; its include_base is overridden by the
    benchmark design. When potfile_path is given, the pattern phase's
    recovered entries are written there. threads has no effect; it is only
    echoed in the report's options.
    """
    opts = opts or GenOptions()
    gen_opts = GenOptions(include_base=not patterns_only,
                          strict_multi=opts.strict_multi, dedup=opts.dedup)
    started = _utcnow()
    baseline, _, pattern, pattern_store, candidate_count = _run_phases(
        wl, hash_source, rs, gen_opts, algorithm, threads)
    finished = _utcnow()
    if potfile_path is not None:
        Path(potfile_path).write_text(format_potfile(pattern_store), encoding="utf-8")
    return BenchReport(
        wordlist_size=len(wl),
        candidate_count=candidate_count,
        hash_raw=pattern_store.raw_count,
        hash_unique=pattern_store.unique_count,
        baseline_recovered=baseline.recovered_new,
        pattern_recovered=pattern.recovered_new,
        uplift_percent=uplift(baseline.recovered_new, pattern.recovered_new),
        throughput={"baseline": baseline.throughput, "pattern": pattern.throughput},
        ruleset_name=ruleset_name,
        options={
            "include_base": gen_opts.include_base,
            "strict_multi": gen_opts.strict_multi,
            "dedup": gen_opts.dedup,
            "patterns_only": patterns_only,
            "algorithm": algorithm,
            "threads": threads,
        },
        started_at=started,
        finished_at=finished,
    )


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
