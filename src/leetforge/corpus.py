"""Wordlist ingestion: line normalization, first-occurrence dedup, per-source counts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import WordlistDecodeError


@dataclass(frozen=True)
class WordList:
    """Deduplicated words in first-occurrence order plus per-source raw counts."""

    words: tuple[str, ...]
    sources: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    @cached_property
    def _casefolded(self) -> frozenset[str]:
        return frozenset(w.casefold() for w in self.words)

    def contains_casefold(self, word: str) -> bool:
        return word.casefold() in self._casefolded

    @classmethod
    def from_words(cls, words: Iterable[str], source: str = "memory") -> "WordList":
        """Build a list from in-memory words under the same dedup/blank rules."""
        words = [w for w in words if w]
        return cls(tuple(dict.fromkeys(words)), ((source, len(words)),))


def read_lines(source: str, data: str | bytes) -> list[str]:
    r"""Decode bytes as UTF-8 once and split at "\n" only (not at \x0b, \x85, ...).

    A leading BOM is dropped; invalid UTF-8 raises WordlistDecodeError with the
    line number. Lines keep their CRs: each caller applies its own line rule.
    """
    if isinstance(data, bytes):
        # plain UTF-8, not utf-8-sig: a BOM decodes to U+FEFF and offsets stay byte offsets
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WordlistDecodeError(source, data.count(b"\n", 0, exc.start) + 1) from None
    return data.removeprefix("\ufeff").split("\n")


def load_wordlists(inputs: Iterable[tuple[str, str | bytes]]) -> WordList:
    """Concatenate one-word-per-line sources with cross-source first-occurrence dedup.

    Per-source raw counts are taken before dedup. Lines come from read_lines;
    trailing CRs are stripped, blank lines are skipped, and any other
    whitespace is kept verbatim.
    """
    words: dict[str, None] = {}  # insertion-ordered set: first occurrence wins
    sources: list[tuple[str, int]] = []
    for name, data in inputs:
        count = 0
        for line in read_lines(name, data):
            word = line.rstrip("\r")
            if word:
                count += 1
                words[word] = None
        sources.append((name, count))
    return WordList(tuple(words), tuple(sources))


def load_wordlist_files(paths: Iterable[str | Path]) -> WordList:
    """Load files as wordlist sources; each source is named by its path as given."""
    return load_wordlists((str(p), Path(p).read_bytes()) for p in paths)
