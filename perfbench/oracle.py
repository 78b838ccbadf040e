"""Reference implementations the benchmark checks leetforge against.

Nothing here imports leetforge. The rule table is retyped from the paper's
substitution inventory, candidates are built char by char from dict lookups
(the library uses str.translate), and MD5 is the RFC 1321 reference in
tests/oracles.py (the library uses hashlib), so a bug shared with the library
cannot hide.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

# MD5 is the repository's RFC 1321 reference, which imports neither leetforge
# nor hashlib.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import md5_reference  # noqa: E402,F401

BASE_RULE_ID = "BASE"

# Builtin rules as (id, "<src><repl>..." pairs). Every builtin rule matches its
# sources case-insensitively.
_SINGLES = ("a0 a1 a4 a8 a@ b3 b6 b8 d0 e0 e3 e5 e8 f4 g6 g9 h1 h7 i1 i7 i8 i! "
            "l1 l7 l; l! m, o0 o3 o@ r. s1 s2 s3 s4 s5 s6 s8 s$ t7 t8 v7 z?").split()
_DUALS = "a@o0 a@i1 a@l1 a@e3 i1o0 i1e3 o0e3 o0l1 l1e3".split()
_TRIADS = ("a@o0i1 a@o0l1 a@o0e3 a@l1e3 a@i1e3 i1o0e3 l1o0e3 s$l!o@ s$i!o@ "
           "s$l!a@ s$i!a@ b6g9l1 b6g9s5 g9l1s5 b6l1s5").split()


def _char_map(pairs: str) -> dict[str, str]:
    out = {}
    for i in range(0, len(pairs), 2):
        src, repl = pairs[i], pairs[i + 1]
        out[src] = repl
        out[src.upper()] = repl
    return out


RULES: tuple[tuple[str, dict[str, str]], ...] = tuple(
    [(f"S{i}", _char_map(p)) for i, p in enumerate(_SINGLES, 1)]
    + [(f"D{i}", _char_map(p)) for i, p in enumerate(_DUALS, 1)]
    + [(f"T{i}", _char_map(p)) for i, p in enumerate(_TRIADS, 1)])
RULE_BY_ID = dict(RULES)


def mangle(word: str, char_map: dict[str, str]) -> str | None:
    """Replace every mapped character of word; None when nothing changes."""
    out = "".join([char_map.get(ch, ch) for ch in word])
    return out if out != word else None


def mangles_of(word: str):
    """(rule id, candidate) for every builtin rule that changes word, in rule order."""
    chars = set(word)
    for rule_id, char_map in RULES:
        if chars.isdisjoint(char_map):
            continue
        out = mangle(word, char_map)
        if out is not None:
            yield rule_id, out


def base_holds_replacement(base: str, rule_id: str) -> bool:
    """True when base already holds one of the rule's replacement characters
    (admin1 under i->1). Inverting such a mangle replaces those characters
    too, so the seed's audit cannot recover the base: ROADMAP item 3."""
    char_map = RULE_BY_ID.get(rule_id)
    return char_map is not None and not set(char_map.values()).isdisjoint(base)


def expected_gen(words) -> list[tuple[str, str, str]]:
    """The `gen --include-base` record stream: bases first, then mangles
    word-major in rule order, each candidate kept at its first emission."""
    seen: set[str] = set()
    records = []
    for word in dict.fromkeys(words):
        seen.add(word)
        records.append((word, word, BASE_RULE_ID))
    for word in dict.fromkeys(words):
        for rule_id, out in mangles_of(word):
            if out not in seen:
                seen.add(out)
                records.append((out, word, rule_id))
    return records


def uplift_matches(reported, baseline: int, pattern: int) -> bool:
    """True when reported is the exact uplift percentage rounded to one decimal."""
    if baseline <= 0:
        return reported is None
    if reported is None:
        return False
    exact = Fraction(100 * (pattern - baseline), baseline)
    tenths = Fraction(round(reported * 10))
    return abs(Fraction(reported) - tenths / 10) < Fraction(1, 10 ** 9) and \
        abs(tenths / 10 - exact) <= Fraction(1, 20)
