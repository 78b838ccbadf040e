"""Candidate generation: rule application and streaming dedup."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .corpus import WordList
from .rules import BASE_RULE_ID, ReplacementRule, RuleSet


class CandidateRecord(NamedTuple):
    """A generated candidate, as UTF-8 bytes ("surrogatepass"), with its provenance."""

    candidate: bytes
    base_word: str
    rule_id: str


@dataclass
class GenStats:
    suppressed_duplicates: int = 0
    by_arity: dict[str, int] = field(default_factory=lambda: {
        "base": 0, "single": 0, "dual": 0, "triad": 0})

    @property
    def emitted(self) -> int:
        return sum(self.by_arity.values())

    @property
    def emitted_mangled(self) -> int:
        """Emitted count excluding the unmangled base words."""
        return self.emitted - self.by_arity["base"]

    def to_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "emitted_mangled": self.emitted_mangled,
            "suppressed_duplicates": self.suppressed_duplicates,
            "by_arity": dict(self.by_arity),
        }


def apply_rule(word: str, rule: ReplacementRule,
               strict_multi: bool = False) -> str | None:
    """Replace every occurrence of the rule's source characters in one pass.

    All pairs apply simultaneously to the original characters, so one pair's
    output is never re-matched by another pair. Returns None when nothing
    changed; with strict_multi, a multi-pair rule also returns None unless
    every one of its source characters occurs in the word.
    """
    if strict_multi and len(rule.pairs) > 1 and not rule.sources_present(word):
        return None
    out = word.translate(rule.translation)
    return out if out != word else None


class CandidateStream:
    """Single-use iterator of CandidateRecords; stats are final once exhausted."""

    def __init__(self, iterator: Iterator[CandidateRecord], stats: GenStats):
        self._iterator = iterator
        self.stats = stats

    def __iter__(self) -> Iterator[CandidateRecord]:
        return self._iterator


def _dedup_sets(words: tuple[str, ...], fold: dict[int, int | None],
                shared: set[bytes], own: set[bytes]) -> list[set[bytes]]:
    """For each word, the set its candidates dedup in: shared when another
    word has the same fold key, own otherwise. The keys are dropped on return."""
    keys = [word.casefold().translate(fold) for word in words]
    counts = Counter(keys)
    return [shared if counts[key] > 1 else own for key in keys]


def _candidates(wl: WordList, rs: RuleSet, include_base: bool, strict_multi: bool,
                dedup: bool, stats: GenStats) -> Iterator[CandidateRecord]:
    # Candidates and dedup keys are UTF-8 bytes ("surrogatepass" keeps lone
    # surrogates encodable); the encoding is one-to-one, so it dedups exactly
    # as the strings would, in less memory per entry. Only words that share a
    # fold key keep their candidates in `shared` (see generate); any other
    # word dedups its mangles in `own`, cleared for each word.
    shared: set[bytes] = set()
    own: set[bytes] = set()
    word_sets = (_dedup_sets(wl.words, rs.fold, shared, own) if dedup
                 else itertools.repeat(None))
    new = tuple.__new__   # builds a CandidateRecord without NamedTuple.__new__'s call overhead
    if include_base:
        for word, seen in zip(wl.words, word_sets):
            wb = word.encode("utf-8", "surrogatepass")
            if seen is shared:
                if wb in seen:
                    stats.suppressed_duplicates += 1
                    continue
                seen.add(wb)
            stats.by_arity["base"] += 1
            yield new(CandidateRecord, (wb, word, BASE_RULE_ID))
    # flattened per-rule data keeps the inner loop free of attribute lookups;
    # the last field is the rule only when strict_multi can drop its output
    compiled = [(r.id, r.arity, r.byte_table, r.translation,
                 r if strict_multi and len(r.pairs) > 1 else None) for r in rs]
    by_arity = stats.by_arity
    for word, seen in zip(wl.words, word_sets):
        if seen is own:
            own.clear()
        wb = word.encode("utf-8", "surrogatepass")
        for rule_id, arity, byte_table, table, strict_rule in compiled:
            if strict_rule is not None and not strict_rule.sources_present(word):
                continue
            if byte_table is not None:
                # ASCII pairs never touch a byte of a multi-byte UTF-8 sequence
                ob = wb.translate(byte_table)
                if ob == wb:
                    continue
            else:
                out = word.translate(table)
                if out == word:
                    continue
                ob = out.encode("utf-8", "surrogatepass")
            if seen is not None:
                if ob in seen:
                    stats.suppressed_duplicates += 1
                    continue
                seen.add(ob)
            by_arity[arity] += 1
            yield new(CandidateRecord, (ob, word, rule_id))


def generate(wl: WordList, rs: RuleSet, *, include_base: bool = False,
             strict_multi: bool = False, dedup: bool = True) -> CandidateStream:
    """Stream candidates word-major, applying rules in rule-set order.

    With include_base all base words stream ahead of the mangles, so a mangle
    colliding with any base word is the one that gets suppressed. strict_multi
    is as in apply_rule. Dedup is global across the whole stream and keeps the
    first emission's provenance.

    It stays exact without a set of every candidate. RuleSet.fold gives
    apply_rule(b, r) == p only when b and p have the same fold key,
    casefold().translate(fold); so two different words can emit one candidate
    only if their keys are equal. A mangle never equals its own word, and the
    base words are distinct. So only words whose key another word shares keep
    their candidates in one set for the whole stream; every other word dedups
    its mangles in a set of its own, emptied when the next word starts.
    """
    stats = GenStats()
    return CandidateStream(_candidates(wl, rs, include_base, strict_multi, dedup, stats), stats)


def base_candidates(wl: WordList) -> Iterator[CandidateRecord]:
    """The unmangled words as a candidate stream (rule id BASE)."""
    new = tuple.__new__
    for word in wl.words:
        yield new(CandidateRecord, (word.encode("utf-8", "surrogatepass"), word, BASE_RULE_ID))
