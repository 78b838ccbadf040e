"""Inverse rule application: recover base-word candidates from leet-styled passwords."""

from __future__ import annotations

from itertools import combinations, repeat
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
        fields = self.__dict__   # written directly, as functools.cached_property does
        fields["password"] = password
        fields["findings"] = findings

    @property
    def is_pattern_based(self) -> bool:
        return bool(self.findings)

    def to_dict(self) -> dict:
        findings = self.findings
        return {
            "password": self.password,
            "findings": [{"base_word": base_word, "rule_id": rule_id}
                         for base_word, rule_id in findings],
            "is_pattern_based": bool(findings),
        }


def deleet(password: str, rs: RuleSet, dictionary: WordList) -> list[Finding]:
    """Every (base, rule) with apply_rule(base, rule) == password and the base
    a dictionary word (case-insensitive), one base per rule and word.

    Only the password's bucket in the dictionary's fold index (see
    RuleSet.fold) can hold a base; when it is empty no rule is tried. Where a
    bucket word and the password line up, the pairs where they differ (the
    need) pick the word's rules and their stop characters from _inverse's
    by_need table: those that turn every differing character of the word
    into the password's. When there are any, one shared base is built for
    the word: the word's character where the casefolds differ, the
    password's elsewhere, and encoded once. A rule takes it when the
    password holds none of its stop characters. A word equal to the
    password's casefold tries only the rules by_pair holds under the
    password's own pairs, and none when the password holds no character in
    _inverse's starts. Every other try (a cs rule such as A>4, a chained one
    such as a>A,A>b, a word differing from the password only in case or not
    lining up with it) goes to _search_base, if the password holds one of
    the rule's replacement characters and none of its blocking characters.
    A base counts only when re-applying the rule reproduces the password:
    through the rule's byte_table on the password's UTF-8 bytes
    (surrogatepass) when it has one, through str.translate otherwise.
    Findings come in rule order, then dictionary order.

    Of the bases that casefold to a word, the one reported takes at each
    position the most preferred preimage of the password's character (see
    _inverse), the first position deciding: the password's own character,
    then a lowercase source, then other cases.
    """
    fold = rs.fold
    folded = password.casefold()
    bucket = dictionary.fold_index(fold).get(folded.translate(fold))
    if bucket is None:
        return []
    chars = set(password)
    rules, by_pair, by_need, starts = _inverse(rs)
    encoded = password.encode("utf-8", "surrogatepass")
    words = (bucket,) if isinstance(bucket, str) else bucket
    findings, order = [], []   # order: each finding's rule index, for a list bucket
    for word in words:
        merged = None
        if len(word) == len(password) == len(folded):
            if word == folded:
                # the base differs only in case, by a character the rule changes
                if chars.isdisjoint(starts):
                    continue
                ids = set().union(*[by_pair.get(c + e, ()) for c, e in zip(password, folded)])
                entry = zip(sorted(ids), repeat(None))
            else:
                need = frozenset([c + d for c, e, d in zip(password, folded, word) if e != d])
                entry = by_need.get(need)
                if entry is None:
                    continue
                # the word's character where the casefolds differ, the password's elsewhere
                merged = "".join([d if e != d else c for c, e, d in zip(password, folded, word)])
                if merged == word:
                    merged = word   # share the dictionary's string
                merged_bytes = merged.encode("utf-8", "surrogatepass")
        else:
            entry = zip(range(len(rules)), repeat(None))
        for i, stops in entry:   # stops is read only where a shared base was built
            rule_id, translation, table, replacements, blocking, preimages = rules[i]
            if merged is not None and chars.isdisjoint(stops):
                base, base_bytes = merged, merged_bytes
            elif chars.isdisjoint(replacements) or not chars.isdisjoint(blocking):
                continue
            else:
                base = _search_base(password, word, preimages)
                if base is None:
                    continue
                base_bytes = None if table is None else base.encode("utf-8", "surrogatepass")
            if table is None:
                reproduced = base.translate(translation) == password
            else:   # ASCII pairs: one pass over the UTF-8 bytes, as generate applies them
                reproduced = base_bytes.translate(table) == encoded
            if reproduced and base != password:   # apply_rule(base, rule) == password
                findings.append(Finding(base, rule_id))
                order.append(i)
    if len(words) > 1 and len(findings) > 1:
        ranked = sorted(zip(order, findings), key=itemgetter(0))
        findings = [finding for _, finding in ranked]
    return findings


def _inverse(rs: RuleSet) -> tuple[tuple[tuple, ...], dict[str, frozenset[int]],
                                   dict[frozenset[str], tuple[tuple[int, frozenset[str]], ...]],
                                   frozenset[str]]:
    """(rules, by_pair, by_need, starts): deleet's tables for rs, built on the first
    call and kept in rs.__dict__, where functools.cached_property keeps its
    values; ==, hash and repr read only the fields. Threads racing on the
    first call may each build them; the results are equal.

    rules[i] is rule i's (id, translation, byte_table, replacement characters,
    blocking characters, preimages). A blocking character is one the rule
    replaces that is not also a replacement: no character turns into it, so a
    password holding it is not the rule's output. preimages maps each
    replacement character c to the characters the rule turns into c, plus c
    itself when the rule leaves c alone, each with its casefold. c itself
    comes first, then lowercase before other cases, then by code point: a
    case-insensitive pair inverts to source.lower() when it replaces that
    character, a case-sensitive or titlecase source (U+01C5, whose swapcase
    is itself) to the source as written.

    by_pair maps c + f to the indexes of the rules that turn a character
    other than c whose casefold is f into c: where a base casefolding to f
    stands under c in the password, only these rules can have made it.
    starts holds the first character of each by_pair key: a password holding
    none of them has no base that differs from it only in case.

    by_need maps a need, a non-empty set of by_pair keys, to the rules under
    every key of the need, in rule order, as (index, stop characters). When
    a rule's first preimage of c with casefold f is f for every c + f of the
    need, its own base is deleet's shared one unless the password holds a
    stop character: its stops are the characters it changes (a and b in
    a>b,b>c, a and A in a>A,A>b cs), since where the casefolds agree the
    shared base keeps the password's character. Any other rule's stops are
    its replacement characters: c is one, and a password under the need
    holds c, so deleet searches for that rule's base. Only needs some rule
    can make are keys: at most 2^k - 1 for a rule with k fold pairs (63 for
    6), 81 in all under the builtin rules, whatever the passwords audited.
    """
    tables = rs.__dict__.get("_inverse")
    if tables is not None:
        return tables
    rules, by_pair, own, plain, stops = [], {}, [], [], []
    for i, rule in enumerate(rs):
        translation = rule.translation
        sources: dict[str, list[str]] = {}
        for code, replacement in translation.items():
            sources.setdefault(replacement, []).append(chr(code))
        preimages, first = {}, {}
        for c, xs in sources.items():
            if ord(c) not in translation:
                xs.append(c)
            xs.sort(key=lambda x: (x != c, x != x.lower(), x))
            preimages[c] = tuple((x, x.casefold()) for x in xs)
            for x, f in preimages[c]:
                first.setdefault(c + f, x == f)
                if x != c:
                    by_pair.setdefault(c + f, set()).add(i)
        replacements = frozenset(p.replacement for p in rule.pairs)
        blocking = frozenset(map(chr, translation)) - replacements
        rules.append((rule.id, translation, rule.byte_table, replacements, blocking, preimages))
        own.append(list(dict.fromkeys(c + f for c, options in preimages.items()
                                      for x, f in options if x != c)))
        plain.append({q for q, is_plain in first.items() if is_plain})
        stops.append(frozenset(chr(k) for k, r in translation.items() if chr(k) != r))
    by_need = {}
    for pairs in own:
        for k in range(1, len(pairs) + 1):
            for need in map(frozenset, combinations(pairs, k)):
                if need not in by_need:
                    ids = sorted(set.intersection(*[by_pair[q] for q in need]))
                    by_need[need] = tuple((i, stops[i] if need <= plain[i] else rules[i][3])
                                          for i in ids)
    tables = (tuple(rules), {q: frozenset(ids) for q, ids in by_pair.items()}, by_need,
              frozenset(q[0] for q in by_pair))
    rs.__dict__["_inverse"] = tables
    return tables


def _search_base(password: str, word: str,
                 preimages: dict[str, tuple[tuple[str, str], ...]]) -> str | None:
    """The base deleet reports for a rule and word, or None, wherever the
    shared base does not serve: the rule may not take it (see _inverse's
    by_need), the base may differ from the password only in case, or the
    password and word may not line up, since casefolds may change length
    (ß -> ss).

    A search over (position, offset into word, differs from the password
    yet) states; preimages holds the rule's preimages from _inverse, and any
    other character is its own only preimage.
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
    if len(findings) > 1:
        findings.sort(key=itemgetter(1, 0))
    return DetectionResult(password, tuple(findings))
