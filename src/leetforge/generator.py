"""Candidate generation: rule application and streaming dedup."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Collection, Iterator

from ._value import Value
from .corpus import WordList, _fold_keys
from .rules import BASE_RULE_ID, ReplacementRule, RuleSet, _claimed


CandidateRecord = tuple[bytes, str, str]  # candidate (UTF-8 bytes), base_word, rule_id


class GenStats(Value):
    """What a generate stream emitted and suppressed (final once exhausted):
    suppressed_duplicates, the candidates dedup dropped, and by_arity, the
    emitted records by kind: "base" the base words streamed (len(wl) with
    include_base, else 0), "single", "dual" and "triad" the mangles."""

    _fields = ("suppressed_duplicates", "by_arity")

    def __init__(self, suppressed_duplicates: int = 0,
                 by_arity: dict[str, int] | None = None):
        self.suppressed_duplicates = suppressed_duplicates
        self.by_arity = ({"base": 0, "single": 0, "dual": 0, "triad": 0}
                         if by_arity is None else by_arity)

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
    """Single-use iterator of CandidateRecords; stats are final once exhausted.

    crack takes a stream from generate that nobody has iterated yet through
    _hits instead: the generator then hashes each candidate after its dedup
    check and yields only the hits. The stats count every emitted candidate
    either way.
    """

    # generate's empty list, which _hits fills with (digests, hasher) for the
    # generator to read at its first step; None once the stream is iterated,
    # and for a stream built by any other caller
    _target: list | None = None

    def __init__(self, iterator: Iterator[CandidateRecord], stats: GenStats):
        self._iterator = iterator
        self.stats = stats

    def __iter__(self) -> Iterator[CandidateRecord]:
        self._target = None
        return self._iterator

    def _hits(self, digests: Collection[bytes],
              hasher: Callable[[bytes], Any]) -> Iterator[tuple[bytes, str, str, bytes]] | None:
        """The records whose candidate's digest, hasher(candidate).digest(), is
        in digests, each with that digest after its fields; None where the
        stream cannot do this, being started already or not from generate."""
        target = self._target
        if target is None:
            return None
        target += digests, hasher
        self._target = None
        return self._iterator


def _dedup_sets(words: tuple[str, ...], fold: dict[int, int | None],
                include_base: bool) -> list[set[bytes] | None]:
    """For each word, the set its candidates dedup in: one set per fold key
    that more than one word has, None for a key of one word; with
    include_base each set starts with its key's words. The keys are dropped
    on return, so each set lives only as long as the list's entries."""
    keys = _fold_keys(words, fold)
    counts = Counter(keys)
    sets: defaultdict[str, set[bytes]] = defaultdict(set)
    if include_base:
        for word, key in zip(words, keys):
            if counts[key] > 1:
                sets[key].add(word.encode("utf-8", "surrogatepass"))
    return [sets[key] if counts[key] > 1 else None for key in keys]


# A block of consecutive rules and its witnesses (see _plan_blocks) claim at
# most this many character classes (one rule claims at most 6: 3 pairs, 2
# cases each), so a block caches at most 2 ** 8 plans.
_BLOCK_CLASSES = 8


class _Plans(dict):
    """One block's plans by class key, each built on its first use.

    entries holds, in rule-set order, the facts of each rule the plans look
    at (see _plan_blocks) and its compiled record: None for an earlier rule
    that only proves copies.
    """

    def __init__(self, entries: list[tuple[tuple, tuple | None]], dedup: bool):
        super().__init__()
        self.entries = entries
        self.dedup = dedup

    def __missing__(self, key: int) -> tuple[tuple, int]:
        run, copies, images = [], 0, set()
        for (_, change, changes, pair_masks), record in self.entries:
            present = key & change
            if not present or pair_masks and not all(key & m for m in pair_masks):
                continue
            if self.dedup:
                image = (changes if present == change
                         else tuple([c for c in changes if present & c[0]]))
                if image in images:
                    copies += record is not None
                    continue
                images.add(image)
            if record is not None:
                run.append(record)
        plan = self[key] = (tuple(run), copies)
        return plan


def _class_bits(rs: RuleSet) -> dict[str, int]:
    """Each character a rule replaces, mapped to the bit of its class.

    Characters share a class when every rule treats them alike: the same
    pair of the same rules (so the same replacement), and each maps to
    itself under the same rules (under E>e, e maps to itself and E does not).
    """
    signatures: dict[str, list] = {}
    for i, rule in enumerate(rs):
        for j, p in enumerate(rule.pairs):
            for ch in _claimed(p, rule.case_insensitive):
                signatures.setdefault(ch, []).append((i, j, ch == p.replacement))
    ids: dict[tuple, int] = {}
    return {ch: 1 << ids.setdefault(tuple(sig), len(ids)) for ch, sig in signatures.items()}


def _plan_blocks(rs: RuleSet, bits: dict[str, int], strict_multi: bool,
                 dedup: bool) -> list[tuple[_Plans, int, bool]]:
    """The rule set cut into blocks: each block's plan cache, its classes, and
    whether a word whose fold key is its own needs a dedup set in the block.

    A block's plan for a word lists, in order, the block's rules that change
    a class the word holds and, with strict_multi, find a source of every
    pair. With dedup it leaves out and counts each copy: a rule that agrees,
    on every class the word holds, with an earlier rule that applies and
    whose classes lie in the block. Two rules give one output on a word
    exactly when they agree so, and then they share a change; so each earlier
    rule that shares a change with a rule of the block is a witness. Blocks
    are cut on their rules' classes, and a witness's classes join its block's
    where they fit in _BLOCK_CLASSES; a witness that does not fit is left
    out. The set is needed in each block that misses a witness, and in each
    block that holds one, for the set must have its outputs.
    """
    # per rule: (claimed classes, changed classes, (class, replacement) for
    # each changed class, claimed classes per pair when strict_multi applies)
    facts = []
    for rule in rs:
        changes: dict[int, str] = {}
        pair_masks = []
        for p in rule.pairs:
            mask = 0
            for ch in _claimed(p, rule.case_insensitive):
                mask |= bits[ch]
                if ch != p.replacement:
                    changes[bits[ch]] = p.replacement
            pair_masks.append(mask)
        strict = strict_multi and len(pair_masks) > 1
        facts.append((sum(pair_masks), sum(changes), tuple(sorted(changes.items())),
                      tuple(pair_masks) if strict else ()))
    compiled = [(r.id, r.arity, r.byte_table, r.translation) for r in rs]
    # per rule, the earlier rules that share a change with it
    twins: list[set[int]] = []
    by_change: dict[tuple[int, str], list[int]] = {}
    for i, (_, _, changes, _) in enumerate(facts):
        twins.append({j for c in changes for j in by_change.get(c, ())} if dedup else set())
        for c in changes:
            by_change.setdefault(c, []).append(i)

    cuts = []
    start = mask = 0
    for i, (claim, *_) in enumerate(facts):
        if (mask | claim).bit_count() > _BLOCK_CLASSES:
            cuts.append((start, i, mask))
            start, mask = i, 0
        mask |= claim
    if facts:
        cuts.append((start, len(facts), mask))

    found = []
    left_out: set[int] = set()
    for start, stop, mask in cuts:
        outer = sorted({j for i in range(start, stop) for j in twins[i] if j < start})
        inside = []
        for j in outer:
            if (mask | facts[j][0]).bit_count() <= _BLOCK_CLASSES:
                mask |= facts[j][0]
                inside.append(j)
            else:
                left_out.add(j)
        found.append((start, stop, mask, inside, len(inside) < len(outer)))

    blocks = []
    for start, stop, mask, inside, missing in found:
        entries = [(facts[j], None) for j in inside]
        entries += [(facts[i], compiled[i]) for i in range(start, stop)]
        # the set holds the outputs of a left-out witness, for the copies a
        # block that misses it cannot prove
        needs_set = missing or not left_out.isdisjoint(range(start, stop))
        blocks.append((_Plans(entries, dedup), mask, needs_set))
    return blocks


def _candidates(wl: WordList, rs: RuleSet, include_base: bool, strict_multi: bool,
                dedup: bool, stats: GenStats, target: list) -> Iterator[tuple]:
    # Candidates and dedup keys are UTF-8 bytes ("surrogatepass" keeps lone
    # surrogates encodable); the encoding is one-to-one, so it dedups exactly
    # as the strings would, in less memory per entry. Base words stream
    # first, unchecked; words that share a fold key dedup in one set per key,
    # seeded with their base words (see generate). The mangle loop pops each
    # word's entry, so a key's set is freed once its last word has run its
    # rules. Any other word dedups in no set where its plans prove every
    # copy, and in `own`, cleared for each word, in the blocks they do not.
    # With a target (see CandidateStream._hits), each candidate that passes
    # dedup is counted and hashed, and yielded with its digest only when the
    # digest is in the target's set.
    digests, hasher = target or (None, None)
    words = wl.words
    if include_base:
        for word in words:
            wb = word.encode("utf-8", "surrogatepass")
            if digests is None:
                yield wb, word, BASE_RULE_ID
            elif (d := hasher(wb).digest()) in digests:
                yield wb, word, BASE_RULE_ID, d
        stats.by_arity["base"] = len(words)
    if not rs:
        return
    word_sets = _dedup_sets(words, rs.fold, include_base) if dedup else [None] * len(words)
    word_sets.reverse()
    next_set = word_sets.pop
    bits = _class_bits(rs)
    class_of = bits.get
    own: set[bytes] = set()
    blocks = [(plans, mask, own if needs_set else None)
              for plans, mask, needs_set in _plan_blocks(rs, bits, strict_multi, dedup)]
    by_arity = stats.by_arity
    for word in words:
        word_set = next_set()
        if own:
            own.clear()
        wb = word.encode("utf-8", "surrogatepass")
        key = 0
        for ch in word:
            key |= class_of(ch, 0)
        for plans, mask, block_set in blocks:
            run, copies = plans[key & mask]
            if copies:
                stats.suppressed_duplicates += copies
            seen = word_set if word_set is not None else block_set
            # every rule in the plan changes the word
            for rule_id, arity, byte_table, table in run:
                if byte_table is not None:
                    # ASCII pairs never touch a byte of a multi-byte UTF-8 sequence
                    ob = wb.translate(byte_table)
                else:
                    ob = word.translate(table).encode("utf-8", "surrogatepass")
                if seen is not None:
                    if ob in seen:
                        stats.suppressed_duplicates += 1
                        continue
                    seen.add(ob)
                by_arity[arity] += 1
                if digests is None:
                    yield ob, word, rule_id
                elif (d := hasher(ob).digest()) in digests:
                    yield ob, word, rule_id, d


def generate(wl: WordList, rs: RuleSet, *, include_base: bool = False,
             strict_multi: bool = False, dedup: bool = True) -> CandidateStream:
    """Stream candidates word-major, applying rules in rule-set order.

    With include_base the base words stream first, in order and unchecked
    with or without rules, and by_arity["base"] is set to len(wl) once they
    all have; a mangle that repeats one is the one suppressed. strict_multi
    is as in apply_rule. Dedup is global across the whole stream and keeps
    the first emission's provenance.

    Most rules change a given word not at all, or exactly as an earlier rule
    does (D1 a>@,o>0 on a word with no o is S5 a>@), so each word translates
    only through a plan. Characters every rule treats alike share a class
    (a and A under the builtin rules, 16 classes in all), and a word's key is
    the set of classes it holds. Two rules give one output on a word exactly
    when they agree on the word's classes. Consecutive rules are cut into
    blocks of at most 8 classes, which also hold the classes of the earlier
    rules that share a change with a rule of the block wherever these fit;
    each block keeps one plan per key, so at most 256, built on first use:
    the rules that change the word, and the number of copies, rules that
    agree on the word's classes with an earlier rule that applies and whose
    classes lie in the block. Copies count as suppressed with no translate.
    So where every such earlier rule fits, as under the builtin rules, the
    plans suppress every copy within a word. A custom rule set can have one
    that does not fit: then a word dedups in a set of its own in the blocks
    that miss it and in the block that holds it.

    Across words it stays exact without a set of every candidate.
    RuleSet.fold gives apply_rule(b, r) == p only when b and p have the same
    fold key, casefold().translate(fold); so two different words can emit
    one candidate only if their keys are equal. A mangle never equals its own
    word. So a word whose key no other word shares needs no set beyond the
    one above. Words that share a key keep their candidates in one set per
    key, which starts with the key's base words and is dropped once the
    key's last word has run its rules. With no rules there is no set and no
    mangle pass. The base words need no check, as a WordList's words are
    distinct (every loader and WordList.from_words make them so): a list
    built with a repeat streams the repeat's base record, and under rules and
    dedup suppresses its mangles as copies of the first's.

    The stream is single-use. Iterated, it yields every record. crack instead
    hands a stream it gets before anyone iterated it the store's digest set
    and hash constructor (CandidateStream._hits); the same loop then hashes
    each candidate right after its dedup check and yields only the hits, each
    with its digest, so a miss costs no resume and no tuple. Dedup, the
    stats and the order of the hits are the same either way.
    """
    stats = GenStats()
    target: list = []
    stream = CandidateStream(
        _candidates(wl, rs, include_base, strict_multi, dedup, stats, target), stats)
    stream._target = target
    return stream


def base_candidates(wl: WordList) -> CandidateStream:
    """The unmangled words as a candidate stream (rule id BASE): generate
    with no rules and include_base, so crack matches it in the generator's
    loop as it does any fresh stream from generate."""
    return generate(wl, RuleSet(()), include_base=True)
