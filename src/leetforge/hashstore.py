"""Deduplicated digest storage with membership lookup and recovery marking."""

from __future__ import annotations

import threading
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
        self.digest_width = digest_size(algorithm)
        digest_set = frozenset(digests)
        for d in digest_set:
            if len(d) != self.digest_width:
                raise HashStoreError(
                    f"digest width {len(d)} != {self.digest_width} for {algorithm}")
        self._digests = digest_set
        self.raw_count = len(digest_set) if raw_count is None else raw_count
        self._recovered: dict[bytes, str] = {}
        self._lock = threading.Lock()

    @property
    def digest_set(self) -> frozenset[bytes]:
        return self._digests

    @property
    def unique_count(self) -> int:
        return len(self._digests)

    @property
    def recovered(self) -> Mapping[bytes, str]:
        return MappingProxyType(self._recovered)

    @property
    def recovered_count(self) -> int:
        return len(self._recovered)

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: bytes) -> bool:
        return self.contains(digest)

    def contains(self, digest: bytes) -> bool:
        if len(digest) != self.digest_width:
            raise HashStoreError(
                f"digest width {len(digest)} != {self.digest_width} for {self.algorithm}")
        return digest in self._digests

    def mark_recovered(self, digest: bytes, plaintext: str) -> bool:
        """Record digest -> plaintext; True only for the first recovery of a digest."""
        if not self.contains(digest):
            raise HashStoreError(f"digest {digest.hex()} is not in the store")
        if digest_of(plaintext, self.algorithm) != digest:
            raise HashStoreError(f"plaintext {plaintext!r} does not hash to {digest.hex()}")
        with self._lock:
            if digest in self._recovered:
                return False
            self._recovered[digest] = plaintext
            return True


def load_hashes(text: str | bytes, algorithm: str = "md5") -> HashStore:
    """Parse one hex digest per line (either case), dropping duplicates.

    Lines are split by read_lines, as word lists are; surrounding whitespace
    (a CR included) is stripped. raw_count keeps the number of non-blank lines
    seen; malformed lines raise HashFormatError with their line number.
    """
    width = digest_size(algorithm)
    digests: set[bytes] = set()
    raw_count = 0
    for lineno, raw in enumerate(read_lines("digest list", text), 1):
        line = raw.strip()
        if not line:
            continue
        raw_count += 1
        if len(line) != 2 * width:
            raise HashFormatError(
                f"expected {2 * width} hex characters, got {len(line)}: {line!r}", line=lineno)
        try:
            digests.add(bytes.fromhex(line))
        except ValueError:
            raise HashFormatError(f"not hexadecimal: {line!r}", line=lineno) from None
    return HashStore(digests, algorithm=algorithm, raw_count=raw_count)


def format_potfile(hs: HashStore) -> str:
    """Recovered entries as `hexdigest:plaintext` lines, sorted by digest."""
    return "".join(f"{d.hex()}:{p}\n" for d, p in sorted(hs.recovered.items()))
