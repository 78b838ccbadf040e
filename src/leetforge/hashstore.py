"""Deduplicated digest storage with membership lookup and recovery marking."""

from __future__ import annotations

import copy
import threading
from collections.abc import Collection
from types import MappingProxyType
from typing import Iterable, Mapping

from .corpus import read_lines
from .cracker import digest_of, digest_size
from .errors import HashFormatError, HashStoreError


class HashStore:
    """A set of fixed-width raw digests plus a digest -> plaintext recovery map.

    The digest set is immutable after construction and safe to share across
    threads; mark_recovered is serialized under a lock so the first plaintext
    for a digest always wins.
    """

    def __init__(self, digests: Iterable[bytes], algorithm: str = "md5",
                 raw_count: int | None = None):
        self.algorithm = algorithm
        self.digest_width = width = digest_size(algorithm)
        if not isinstance(digests, Collection):
            digests = list(digests)   # a one-shot iterable is walked twice below
        # Widths are checked before freezing, in the caller's order: over a list
        # that is one cheap pass, where a walk in hash order is not.
        if not set(map(len, digests)) <= {width}:
            bad = next(d for d in digests if len(d) != width)
            raise HashStoreError(f"digest width {len(bad)} != {width} for {algorithm}")
        self._digests = frozenset(digests)   # a frozenset is kept, not copied
        self.raw_count = len(self._digests) if raw_count is None else raw_count
        self._recovered: dict[bytes, str] = {}
        self._lock = threading.Lock()

    def fresh(self) -> "HashStore":
        """A store over the same digests with nothing recovered.

        The digest set is shared, not copied or checked again: this store
        checked it when it was built.
        """
        store = copy.copy(self)
        store._recovered = {}
        store._lock = threading.Lock()
        return store

    @property
    def digest_set(self) -> frozenset[bytes]:
        return self._digests

    @property
    def unique_count(self) -> int:
        return len(self._digests)

    @property
    def recovered(self) -> Mapping[bytes, str]:
        return MappingProxyType(self._recovered)

    def __contains__(self, digest: bytes) -> bool:
        if len(digest) != self.digest_width:
            raise HashStoreError(
                f"digest width {len(digest)} != {self.digest_width} for {self.algorithm}")
        return digest in self._digests

    def mark_recovered(self, digest: bytes, plaintext: str) -> bool:
        """Record digest -> plaintext; True only for the first recovery of a digest."""
        if digest not in self:
            raise HashStoreError(f"digest {digest.hex()} is not in the store")
        if digest_of(plaintext, self.algorithm) != digest:
            raise HashStoreError(f"plaintext {plaintext!r} does not hash to {digest.hex()}")
        return self._record(digest, plaintext)

    def _record(self, digest: bytes, plaintext: str) -> bool:
        """mark_recovered without its checks, for a caller that has just
        hashed plaintext to this stored digest itself."""
        with self._lock:
            if digest in self._recovered:
                return False
            self._recovered[digest] = plaintext
            return True


def load_hashes(text: str | bytes, algorithm: str = "md5") -> HashStore:
    """Parse one hex digest per line (either case), dropping duplicates.

    Lines are split by read_lines, as word lists are; surrounding whitespace
    (a CR included) is stripped. raw_count keeps the number of non-blank lines
    seen; malformed lines, whitespace inside a digest included, raise
    HashFormatError with the number of the first one.
    """
    width = digest_size(algorithm)
    lines = read_lines("digest list", text)
    hexes = list(filter(None, map(str.strip, lines)))
    # Bulk passes only; when one fails, _bad_line_error walks the lines to name it.
    if set(map(len, hexes)) <= {2 * width}:
        try:
            return HashStore(map(bytes.fromhex, hexes), algorithm, raw_count=len(hexes))
        except (ValueError, HashStoreError):   # not hex; whitespace inside a digest
            pass
    raise _bad_line_error(lines, width)


def _bad_line_error(lines: list[str], width: int) -> HashFormatError:
    """The error for the first line that is not one hex digest of width bytes."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if len(line) != 2 * width:
            return HashFormatError(
                f"expected {2 * width} hex characters, got {len(line)}: {line!r}", line=lineno)
        try:
            digest = bytes.fromhex(line)
        except ValueError:
            return HashFormatError(f"not hexadecimal: {line!r}", line=lineno)
        if len(digest) != width:
            # bytes.fromhex skips whitespace between byte pairs
            return HashFormatError(f"whitespace inside the digest: {line!r}", line=lineno)
    raise AssertionError("a bulk check failed on a well-formed digest list")


def format_potfile(hs: HashStore) -> str:
    """Recovered entries as `hexdigest:plaintext` lines, sorted by digest."""
    return "".join(f"{d.hex()}:{p}\n" for d, p in sorted(hs.recovered.items()))
