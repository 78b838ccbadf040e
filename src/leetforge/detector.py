"""Inverse rule application: recover base-word candidates from leet-styled passwords."""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from ._value import Frozen
from .corpus import WordList
from .rules import BASE_RULE_ID, RuleSet


class Finding(NamedTuple):
    base_word: str
    rule_id: str


class DetectionResult(Frozen):
    _fields = ("password", "findings")

    def __init__(self, password: str, findings: tuple[Finding, ...]):
        object.__setattr__(self, "password", password)
        object.__setattr__(self, "findings", findings)

    @property
    def is_pattern_based(self) -> bool:
        return bool(self.findings)

    def to_dict(self) -> dict:
        return {
            "password": self.password,
            "findings": [{"base_word": f.base_word, "rule_id": f.rule_id}
                         for f in self.findings],
            "is_pattern_based": self.is_pattern_based,
        }


def deleet(password: str, rs: RuleSet, dictionary: WordList) -> list[Finding]:
    """Every (base, rule) with apply_rule(base, rule) == password and the base
    a dictionary word (case-insensitive), one base per rule and word.

    Only the password's bucket in the dictionary's fold index (see
    RuleSet.fold) can hold a base; when it is empty no rule is tried. Where a
    bucket word and the password line up, the pairs where they differ (the
    need) pick the word's rules from RuleSet.rules_by_need: those that turn
    every differing character of the word into the password's. When there
    are any, one shared base is built for the word: the word's character
    where the casefolds differ, the password's elsewhere. A rule in the
    need's shared list takes it when the password holds none of the rule's
    stop characters: no blocking character of its inverse_screen, and none
    its merge_screen calls remapped. Every other try (a cs rule such as
    A>4, a chained one such as a>A,A>b, a word differing from the password
    only in case or not lining up with it) passes the rule's inverse_screen
    and goes to _search_base. A base counts only when re-applying the rule
    reproduces the password: through the rule's byte_table on the
    password's UTF-8 bytes (surrogatepass) when it has one, through
    str.translate otherwise. Findings come in rule order, then dictionary
    order.

    Of the bases that casefold to a word, the one reported takes at each
    position the most preferred preimage of the password's character (see
    ReplacementRule.fold_preimages), the first position deciding: the
    password's own character, then a lowercase source, then other cases.
    """
    fold = rs.fold
    folded = password.casefold()
    bucket = dictionary.fold_index(fold).get(folded.translate(fold))
    if bucket is None:
        return []
    chars = set(password)
    by_pair = rs.rules_by_fold_pair
    by_need = rs.rules_by_need
    tries = []   # (rule index, word, the shared base or None to search)
    for word in (bucket,) if isinstance(bucket, str) else bucket:
        if len(word) == len(password) == len(folded):
            need = {c + d for c, e, d in zip(password, folded, word) if e != d}
            if need:
                entry = by_need.get(frozenset(need))
                if entry is None:
                    continue
                shared, rest = entry
                # the word's character where the casefolds differ, the password's elsewhere
                merged = "".join([d if e != d else c for c, e, d in zip(password, folded, word)])
                if merged == word:
                    merged = word   # share the dictionary's string
                tries += [(i, word, merged if chars.isdisjoint(stops) else None)
                          for i, stops in shared]
                tries += [(i, word, None) for i in rest]
                continue
            # the base differs only in case, by a character the rule changes
            rules = set().union(*[by_pair.get(c + e, ()) for c, e in zip(password, folded)])
        else:
            rules = range(len(rs))
        tries += [(i, word, None) for i in rules]
    tries.sort(key=itemgetter(0))
    encoded = password.encode("utf-8", "surrogatepass")
    rules = rs.rules
    findings = []
    for i, word, base in tries:
        rule = rules[i]
        if base is None:
            replacements, blocking = rule.inverse_screen
            if chars.isdisjoint(replacements) or not chars.isdisjoint(blocking):
                continue
            base = _search_base(password, word, rule.fold_preimages)
            if base is None:
                continue
        table = rule.byte_table
        if table is None:
            reproduced = base.translate(rule.translation) == password
        else:   # ASCII pairs: one pass over the UTF-8 bytes, as generate applies them
            reproduced = base.encode("utf-8", "surrogatepass").translate(table) == encoded
        if reproduced and base != password:   # apply_rule(base, rule) == password
            findings.append(Finding(base, rule.id))
    return findings


def _search_base(password: str, word: str,
                 preimages: dict[str, tuple[tuple[str, str], ...]]) -> str | None:
    """The base deleet reports for a rule and word, or None, wherever the
    shared base does not serve: the rule may not take it (see
    ReplacementRule.merge_screen), the base may differ from the password
    only in case, or the password and word may not line up, since casefolds
    may change length (ß -> ss).

    A search over (position, offset into word, differs from the password
    yet) states; preimages holds the rule's fold_preimages, and any other
    character is its own only preimage.
    """
    n, m = len(password), len(word)
    options = [preimages.get(c) or ((c, c.casefold()),) for c in password]

    def steps(i: int, k: int, changed: bool):
        for x, f in options[i]:
            if word.startswith(f, k):
                yield x, (k + len(f), changed or x != password[i])

    # reach[i]: the states at position i that a prefix of word reaches
    reach = [{(0, False)}]
    for i in range(n):
        reach.append({s for state in reach[i] for _, s in steps(i, *state)})
    # live[i]: those from which the rest of word can be matched, with a change
    live = [reach[n] & {(m, True)}]
    for i in reversed(range(n)):
        live.append({state for state in reach[i]
                     if any(s in live[-1] for _, s in steps(i, *state))})
    live.reverse()
    if not live[0]:
        return None
    out, state = [], (0, False)
    for i in range(n):
        x, state = next((x, s) for x, s in steps(i, *state) if s in live[i + 1])
        out.append(x)
    return "".join(out)


def audit(password: str, rs: RuleSet, dictionary: WordList) -> DetectionResult:
    """deleet's findings, plus rule id BASE when the password is itself a
    dictionary word (case-insensitive).

    Findings come back unique, sorted by (rule_id, base_word).
    """
    findings = deleet(password, rs, dictionary)
    if dictionary.contains_casefold(password):
        findings.append(Finding(password, BASE_RULE_ID))
    findings.sort(key=itemgetter(1, 0))
    return DetectionResult(password, tuple(findings))
