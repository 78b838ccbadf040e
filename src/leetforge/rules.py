"""Replacement rules: builtin substitution tables, a rule-file format, hashcat export.

A rule swaps letters for look-alike digits or symbols, so o>0 turns "password"
into "passw0rd". Each rule carries one to three character pairs that apply
simultaneously to every occurrence of their source letters. The builtin set
holds 43 single-pair rules (S1..S43), 9 dual-pair rules (D1..D9) and 15
triad-pair rules (T1..T15); the five most common single substitutions are
additionally exposed as the "top5" subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .corpus import read_lines
from .errors import ExportError, RuleParseError

ARITY_NAMES = {1: "single", 2: "dual", 3: "triad"}

# Flag field that marks a rule as case-sensitive in the rule-file format.
CASE_SENSITIVE_FLAG = "cs"

# Provenance rule id for unmangled words; no rule may take it.
BASE_RULE_ID = "BASE"

# Source/replacement inventory of the builtin single rules, in id order S1..S43.
_SINGLES = (
    "a0", "a1", "a4", "a8", "a@",
    "b3", "b6", "b8",
    "d0",
    "e0", "e3", "e5", "e8",
    "f4",
    "g6", "g9",
    "h1", "h7",
    "i1", "i7", "i8", "i!",
    "l1", "l7", "l;", "l!",
    "m,",
    "o0", "o3", "o@",
    "r.",
    "s1", "s2", "s3", "s4", "s5", "s6", "s8", "s$",
    "t7", "t8",
    "v7",
    "z?",
)

# D1..D9
_DUALS = (
    ("a@", "o0"), ("a@", "i1"), ("a@", "l1"), ("a@", "e3"),
    ("i1", "o0"), ("i1", "e3"),
    ("o0", "e3"), ("o0", "l1"),
    ("l1", "e3"),
)

# T1..T15
_TRIADS = (
    ("a@", "o0", "i1"), ("a@", "o0", "l1"), ("a@", "o0", "e3"),
    ("a@", "l1", "e3"), ("a@", "i1", "e3"),
    ("i1", "o0", "e3"), ("l1", "o0", "e3"),
    ("s$", "l!", "o@"), ("s$", "i!", "o@"), ("s$", "l!", "a@"), ("s$", "i!", "a@"),
    ("b6", "g9", "l1"), ("b6", "g9", "s5"), ("g9", "l1", "s5"),
    ("b6", "l1", "s5"),
)

# The five most frequent single substitutions, in rank order.
_TOP5 = ("i1", "o0", "e3", "l1", "a@")


@dataclass(frozen=True)
class CharPair:
    """One source -> replacement character swap."""

    source: str
    replacement: str

    def __post_init__(self) -> None:
        if len(self.source) != 1 or len(self.replacement) != 1:
            raise ValueError("source and replacement must be single characters")
        if self.source == self.replacement:
            raise ValueError(f"replacement must differ from source ({self.source!r})")


def _claimed(pair: CharPair, case_insensitive: bool) -> set[str]:
    """The characters a pair replaces: its source, plus the other case if insensitive."""
    return {pair.source, pair.source.swapcase()} if case_insensitive else {pair.source}


@dataclass(frozen=True)
class ReplacementRule:
    """An ordered set of 1-3 pairs applied simultaneously to a word.

    With case_insensitive (the default) both cases of each source letter are
    replaced; the replacement character itself is always emitted as given.
    """

    id: str
    pairs: tuple[CharPair, ...]
    case_insensitive: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.id == BASE_RULE_ID:
            raise ValueError(f"rule id {BASE_RULE_ID!r} is reserved for unmangled words")
        if not 1 <= len(self.pairs) <= 3:
            raise ValueError(f"rule {self.id!r} must carry 1-3 pairs, got {len(self.pairs)}")
        if self.case_insensitive:
            for p in self.pairs:
                if len(p.source.swapcase()) != 1:
                    raise ValueError(
                        f"rule {self.id!r}: source {p.source!r} swaps case to "
                        f"{p.source.swapcase()!r}, not one character; mark the rule "
                        f"{CASE_SENSITIVE_FLAG!r}")
        # No character may be claimed by two pairs: with case_insensitive
        # both i>1 and ı>! would claim "I" (ı swaps case to I).
        claimed: set[str] = set()
        for p in self.pairs:
            chars = _claimed(p, self.case_insensitive)
            if chars & claimed:
                raise ValueError(f"rule {self.id!r} repeats a source character")
            claimed |= chars

    @property
    def arity(self) -> str:
        return ARITY_NAMES[len(self.pairs)]

    @cached_property
    def translation(self) -> dict[int, str]:
        """str.translate table; covers both source cases when case-insensitive."""
        table: dict[int, str] = {}
        for p in self.pairs:
            table[ord(p.source)] = p.replacement
            if self.case_insensitive:
                table[ord(p.source.swapcase())] = p.replacement
        return table

    @cached_property
    def inverse_translation(self) -> dict[int, str]:
        """Replacement characters mapped back to their sources.

        Each maps back to source.lower() when the pair replaces that
        character, else to the source as written: a case-sensitive uppercase
        source, or a titlecase one such as U+01C5, whose swapcase is itself.
        """
        table = {}
        for p in self.pairs:
            lower = p.source.lower()
            table[ord(p.replacement)] = (
                lower if lower in _claimed(p, self.case_insensitive) else p.source)
        return table

    @cached_property
    def inverse_screen(self) -> tuple[frozenset[str], frozenset[str]]:
        """(replacement characters, blocking characters) of the rule.

        A password can be this rule's output only if it holds a replacement
        character and no blocking character: one the rule replaces that is not
        also a replacement, since inverting keeps it and re-applying changes it.
        """
        replacements = frozenset(p.replacement for p in self.pairs)
        return replacements, frozenset(map(chr, self.translation)) - replacements

    @cached_property
    def byte_table(self) -> bytes | None:
        """bytes.translate table doing translation's work on UTF-8 text.

        None when any source or replacement is non-ASCII: only ASCII pairs map
        one byte to one byte without touching multi-byte sequences.
        """
        table = bytearray(range(256))
        for code, replacement in self.translation.items():
            if code > 0x7F or ord(replacement) > 0x7F:
                return None
            table[code] = ord(replacement)
        return bytes(table)

    def sources_present(self, word: str) -> bool:
        """True when every source character occurs in word (any case if insensitive)."""
        for p in self.pairs:
            if p.source in word:
                continue
            if self.case_insensitive and p.source.swapcase() in word:
                continue
            return False
        return True


@dataclass(frozen=True)
class RuleSet:
    """Ordered, immutable collection of rules with unique ids."""

    rules: tuple[ReplacementRule, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate rule ids: {', '.join(dupes)}")

    def __iter__(self) -> Iterator[ReplacementRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, index: int) -> ReplacementRule:
        return self.rules[index]

    @cached_property
    def _by_id(self) -> dict[str, ReplacementRule]:
        return {r.id: r for r in self.rules}

    def by_id(self, rule_id: str) -> ReplacementRule:
        return self._by_id[rule_id]

    def _of_arity(self, n: int) -> "RuleSet":
        return RuleSet(tuple(r for r in self.rules if len(r.pairs) == n))

    @cached_property
    def singles(self) -> "RuleSet":
        return self._of_arity(1)

    @cached_property
    def duals(self) -> "RuleSet":
        return self._of_arity(2)

    @cached_property
    def triads(self) -> "RuleSet":
        return self._of_arity(3)

    @cached_property
    def top5(self) -> "RuleSet":
        """Single rules matching the top-5 substitutions, in rank order."""
        picked = []
        for token in _TOP5:
            for rule in self.singles:
                if (rule.pairs[0].source, rule.pairs[0].replacement) == (token[0], token[1]):
                    picked.append(rule)
                    break
        return RuleSet(tuple(picked))

    @property
    def subsets(self) -> dict[str, "RuleSet"]:
        return {"singles": self.singles, "duals": self.duals,
                "triads": self.triads, "top5": self.top5}


def _pair(token: str) -> CharPair:
    return CharPair(token[0], token[1])


@lru_cache(maxsize=1)
def builtin_rules() -> RuleSet:
    """The canonical builtin rule set: 43 singles, 9 duals, 15 triads."""
    rules = [ReplacementRule(f"S{i}", (_pair(t),)) for i, t in enumerate(_SINGLES, 1)]
    rules += [ReplacementRule(f"D{i}", tuple(_pair(t) for t in ts))
              for i, ts in enumerate(_DUALS, 1)]
    rules += [ReplacementRule(f"T{i}", tuple(_pair(t) for t in ts))
              for i, ts in enumerate(_TRIADS, 1)]
    return RuleSet(tuple(rules))


def _split_pairs(field: str, lineno: int) -> list[str]:
    # Pairs are fixed-width (3 chars) joined by single commas, so the split is
    # positional; that keeps ',' usable as a source or replacement character.
    if len(field) % 4 != 3 or any(field[i] != "," for i in range(3, len(field), 4)):
        raise RuleParseError(f"malformed pair list {field!r}", line=lineno)
    count = (len(field) + 1) // 4
    if count > 3:
        raise RuleParseError(f"{count} pairs exceed the 3-pair maximum", line=lineno)
    return [field[i:i + 3] for i in range(0, len(field), 4)]


def parse_rules(text: str | bytes) -> RuleSet:
    """Parse the line-oriented rule format.

    Lines come from read_lines, trailing CRs stripped. A rule line is
    `<ID><TAB><pair>{,<pair>}` (a pair is the three characters
    `<source>><replacement>`), optionally followed by `<TAB>cs` for a
    case-sensitive rule. '#' lines are comments and blank lines are skipped;
    a line with no TAB (no ID field) gets an id from its position, `R<n>`.
    """
    rules: list[ReplacementRule] = []
    seen_ids: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines("rule file", text), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == 1:
            rule_id, pair_field, flags = f"R{len(rules) + 1}", fields[0], ""
        elif len(fields) == 2:
            (rule_id, pair_field), flags = fields, ""
        elif len(fields) == 3:
            rule_id, pair_field, flags = fields
        else:
            raise RuleParseError(f"expected at most 3 tab-separated fields, got {len(fields)}",
                                 line=lineno)
        if not rule_id.strip():
            raise RuleParseError("empty rule id", line=lineno)
        if flags not in ("", CASE_SENSITIVE_FLAG):
            raise RuleParseError(f"unknown flag {flags!r}", line=lineno)
        if rule_id in seen_ids:
            raise RuleParseError(
                f"duplicate rule id {rule_id!r} (first used on line {seen_ids[rule_id]})",
                line=lineno)
        tokens = _split_pairs(pair_field, lineno)
        pairs = []
        for token in tokens:
            if len(token) != 3 or token[1] != ">":
                raise RuleParseError(
                    f"malformed pair {token!r} (expected '<source>><replacement>')", line=lineno)
            try:
                pairs.append(CharPair(token[0], token[2]))
            except ValueError as exc:
                raise RuleParseError(str(exc), line=lineno) from None
        try:
            rule = ReplacementRule(rule_id, tuple(pairs),
                                   case_insensitive=flags != CASE_SENSITIVE_FLAG)
        except ValueError as exc:
            raise RuleParseError(str(exc), line=lineno) from None
        seen_ids[rule_id] = lineno
        rules.append(rule)
    return RuleSet(tuple(rules))


def serialize_rules(rs: RuleSet) -> str:
    """Inverse of parse_rules: parse_rules(serialize_rules(rs)) == rs.

    Each line is parsed back as it is written; a rule it does not replay (a
    TAB, CR or LF in an id or pair, an id blank or starting with '#') raises
    ExportError.
    """
    lines = []
    for rule in rs:
        pair_field = ",".join(f"{p.source}>{p.replacement}" for p in rule.pairs)
        line = f"{rule.id}\t{pair_field}"
        if not rule.case_insensitive:
            line += f"\t{CASE_SENSITIVE_FLAG}"
        line += "\n"
        try:
            replayed = parse_rules(line).rules
        except RuleParseError:
            replayed = None
        if replayed != (rule,):
            raise ExportError(f"rule {rule.id!r}: native line {line!r} does not parse back")
        lines.append(line)
    return "".join(lines)


def _token_char_ok(ch: str) -> bool:
    # hashcat substitute tokens are 3 literal characters; anything outside
    # printable ASCII (or a space) would break the line format.
    return "!" <= ch <= "~"


def _replay_order(rule: ReplacementRule) -> list[CharPair]:
    """The rule's pairs ordered so that replaying them one after another never
    rewrites an earlier pair's replacement.

    A pair must come before every other pair whose replacement is one of its
    sources (both cases when case-insensitive). Among pairs free to go, the
    earliest in the rule goes first, so unchained rules keep their order.
    Raises ExportError when the pairs chain into a cycle such as a>b,b>a.
    """
    pending = list(rule.pairs)
    ordered: list[CharPair] = []
    while pending:
        for p in pending:
            # p may go once no other pending pair still has p's replacement as a source
            if not any(p.replacement in _claimed(q, rule.case_insensitive)
                       for q in pending if q is not p):
                break
        else:
            chain = ",".join(f"{p.source}>{p.replacement}" for p in pending)
            raise ExportError(
                f"rule {rule.id!r}: pairs {chain} chain into a cycle; "
                f"no token order replays them")
        pending.remove(p)
        ordered.append(p)
    return ordered


def export_hashcat(rs: RuleSet) -> str:
    """Render each rule as one line of hashcat substitute tokens.

    A pair x>y becomes the token `sxy`; a case-insensitive rule also emits the
    swapped-case source variant (`sxy sXy`). Tokens replay one after another,
    while apply_rule replaces all pairs at once, so a line orders its pairs to
    make the replay agree: a pair whose source is another pair's replacement
    (a>b,b>c) goes first. A rule whose pairs form a cycle (a>b,b>a) has no
    such order and raises ExportError, as does a character with no token form.
    """
    lines = []
    for rule in rs:
        tokens = []
        for p in _replay_order(rule):
            for ch in (p.source, p.replacement):
                if not _token_char_ok(ch):
                    raise ExportError(
                        f"rule {rule.id!r}: character {ch!r} has no hashcat token form")
            tokens.append(f"s{p.source}{p.replacement}")
            if rule.case_insensitive and p.source.swapcase() != p.source:
                tokens.append(f"s{p.source.swapcase()}{p.replacement}")
        lines.append(" ".join(tokens) + "\n")
    return "".join(lines)
