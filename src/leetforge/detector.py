"""Inverse rule application: recover base-word candidates from leet-styled passwords."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus import WordList
from .generator import BASE_RULE_ID, apply_rule
from .rules import RuleSet


class Finding(NamedTuple):
    base_word: str
    rule_id: str


@dataclass(frozen=True)
class DetectionResult:
    password: str
    findings: tuple[Finding, ...]

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


def deleet(password: str, rs: RuleSet) -> list[Finding]:
    """Per-rule exact inversion under replace-all semantics.

    Each rule maps its replacement characters back to their sources (see
    inverse_translation); the reconstruction only counts when re-applying the
    rule reproduces the password exactly, which rejects passwords that still
    contain a source character the rule would have replaced. A rule is only
    tried when its inverse_screen admits the password's characters. At most
    one finding per rule; no dictionary filtering here.
    """
    chars = set(password)
    findings = []
    for rule in rs:
        replacements, blocking = rule.inverse_screen
        if chars.isdisjoint(replacements) or not chars.isdisjoint(blocking):
            continue
        base = password.translate(rule.inverse_translation)
        if base == password:
            continue
        if apply_rule(base, rule) == password:
            findings.append(Finding(base, rule.id))
    return findings


def audit(password: str, rs: RuleSet, dictionary: WordList) -> DetectionResult:
    """Keep deleet findings whose base occurs in the dictionary (case-insensitive).

    A password that is itself a dictionary word is flagged with rule id BASE.
    Findings come back unique, sorted by (rule_id, base_word).
    """
    found = set()
    if dictionary.contains_casefold(password):
        found.add(Finding(password, BASE_RULE_ID))
    for finding in deleet(password, rs):
        if dictionary.contains_casefold(finding.base_word):
            found.add(finding)
    ordered = tuple(sorted(found, key=lambda f: (f.rule_id, f.base_word)))
    return DetectionResult(password, ordered)
