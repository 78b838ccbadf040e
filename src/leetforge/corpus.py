"""Wordlist ingestion: line normalization, first-occurrence dedup, per-source counts."""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Collection, Iterable, Iterator

from ._value import Frozen
from .errors import WordlistDecodeError


class WordList(Frozen):
    """Deduplicated words in first-occurrence order plus per-source raw counts.

    The constructor does not check that the words are distinct; the loaders
    and from_words make them so, and generate relies on it: it streams the
    base words as they are, a repeat included, with or without rules.
    """

    _fields = ("words", "sources")

    def __init__(self, words: tuple[str, ...], sources: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "sources", sources)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    @cached_property
    def _casefolded(self) -> dict[str, None]:
        """The words' casefolds, each once, in first-occurrence order: the one
        table that contains_casefold reads and fold_index groups."""
        return dict.fromkeys(map(_shared_casefold, self.words))

    def contains_casefold(self, word: str) -> bool:
        return word.casefold() in self._casefolded

    @cached_property
    def _fold_indexes(self) -> dict[int, tuple[dict, dict]]:
        return {}

    def fold_index(self, fold: dict[int, int | None]) -> dict[str, str | list[str]]:
        """The keys of _casefolded grouped by folded.translate(fold).

        A key with one word maps to the bare string, one with more to a list in
        first-occurrence order; either holds _casefolded's own strings. Built
        on first use for each fold table and kept, keyed by the table's
        identity (the table is kept with it, so the identity is not reused).
        """
        cached = self._fold_indexes.get(id(fold))
        if cached is None:
            casefolded = self._casefolded
            index: dict[str, str | list[str]] = {}
            for key, folded in zip(_fold_keys(casefolded, fold), casefolded):
                held = index.get(key)
                if held is None:
                    index[key] = folded
                elif isinstance(held, str):
                    index[key] = [held, folded]
                else:
                    held.append(folded)
            cached = self._fold_indexes[id(fold)] = (fold, index)
        return cached[1]

    @classmethod
    def from_words(cls, words: Iterable[str], source: str = "memory") -> "WordList":
        """Build a list from in-memory words under the same dedup/blank rules."""
        words = [w for w in words if w]
        return cls(tuple(dict.fromkeys(words)), ((source, len(words)),))


def _shared_casefold(word: str) -> str:
    """word.casefold(), or word itself when folding leaves it unchanged, so
    the cached casefolds of a mostly lowercase list share its strings."""
    folded = word.casefold()
    return word if folded == word else folded


def _fold_keys(words: Collection[str], fold: dict[int, int | None]) -> list[str]:
    """word.casefold().translate(fold) for each word, in order.

    One casefold and one translate run over the newline-joined words, split
    back at the newlines, or each word is folded on its own when a word or
    the table holds a newline (only words and rules built in code can).
    casefold maps each character on its own, never to a newline, and
    casefolds a casefold to itself, so both ways give the same keys.
    """
    joined = "\n".join(words)
    if joined.count("\n") == len(words) - 1 and 10 not in fold and 10 not in fold.values():
        return joined.casefold().translate(fold).split("\n")
    return [word.casefold().translate(fold) for word in words]


def read_lines(source: str, data: str | bytes, first_line: int = 1) -> list[str]:
    r"""Decode bytes as UTF-8 once and split at "\n" only (not at \x0b, \x85, ...).

    A leading BOM is dropped; invalid UTF-8 raises WordlistDecodeError with the
    line number. Lines keep their CRs: each caller applies its own line rule.
    data may be a later piece of a stream that starts at line first_line:
    line numbers count from there, and only the stream's start drops a BOM.
    """
    if isinstance(data, bytes):
        # plain UTF-8, not utf-8-sig: a BOM decodes to U+FEFF and offsets stay byte offsets
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WordlistDecodeError(
                source, first_line + data.count(b"\n", 0, exc.start)) from None
    if first_line == 1:
        data = data.removeprefix("\ufeff")
    return data.split("\n")


def load_wordlists(inputs: Iterable[tuple[str, str | bytes]]) -> WordList:
    """Concatenate one-word-per-line sources with cross-source first-occurrence dedup.

    Per-source raw counts are taken before dedup. Lines come from read_lines;
    trailing CRs are stripped, blank lines are skipped, and any other
    whitespace is kept verbatim. Each step is one bulk pass in C per source.
    """
    words: dict[str, None] = {}  # insertion-ordered set: first occurrence wins
    sources: list[tuple[str, int]] = []
    for name, data in inputs:
        lines = read_lines(name, data)
        if ("\r" if isinstance(data, str) else b"\r") in data:
            lines = list(map(str.rstrip, lines, repeat("\r")))
        sources.append((name, len(lines) - lines.count("")))
        words.update(zip(lines, repeat(None)))
    words.pop("", None)
    return WordList(tuple(words), tuple(sources))


def load_wordlist_files(paths: Iterable[str | Path]) -> WordList:
    """Load files as wordlist sources; each source is named by its path as given."""
    return load_wordlists((str(p), Path(p).read_bytes()) for p in paths)
