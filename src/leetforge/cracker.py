"""Digests, the store of digests to recover, its parser, the matcher and the
`hexdigest:plaintext` recovery line.

The matcher hashes each candidate once, in stream order, on the calling
thread, so counts, first-wins recovery and the final match list depend only
on the candidate stream. A stream from generate that nobody has iterated yet
(base_candidates, the base words alone, is one) is hashed inside the
generator's own loop, right after each candidate's dedup check, and hands
the matcher only its hits; any other input is hashed here record by record.
CPython holds the GIL while hashing inputs under 2 KiB, so worker threads
measured slower than this single loop at every count.
"""

from __future__ import annotations

import binascii
import hashlib
import threading
import time
from collections.abc import Collection
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ._value import Value
from .corpus import read_lines
from .errors import (AlgorithmMismatchError, HashFormatError, HashStoreError,
                     UnknownAlgorithmError)
from .generator import CandidateRecord, CandidateStream

ALGORITHMS = {"md5": 16, "sha1": 20, "sha256": 32}

# CPython's builtin md5 hashes a password-length input ~2x faster than
# hashlib's OpenSSL-backed one, which spends most of each call setting up a
# context. The pick is for password-length input; on 4 KiB inputs the two
# are about as fast. Builds without the builtin module fall back to hashlib.
try:
    from _md5 import md5 as _md5
except ImportError:
    _md5 = hashlib.md5
_CONSTRUCTORS = {"md5": _md5, "sha1": hashlib.sha1, "sha256": hashlib.sha256}

# Accepted by crack() and has no effect; perfbench/workloads.py is its only
# user, so it goes when that file stops passing it.
DEFAULT_CHUNK_BYTES = 64 * 1024


def digest_size(algorithm: str) -> int:
    """Digest width in bytes; raises UnknownAlgorithmError for unknown ids."""
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown digest algorithm {algorithm!r} (expected one of {sorted(ALGORITHMS)})"
        ) from None


def digest_of(plaintext: str | bytes, algorithm: str = "md5") -> bytes:
    """Raw digest of the exact bytes; str input is hashed as its UTF-8 encoding.

    Lone surrogates encode as "surrogatepass" bytes, as the generator dedups them.
    """
    digest_size(algorithm)
    data = (plaintext.encode("utf-8", "surrogatepass") if isinstance(plaintext, str)
            else plaintext)
    return _CONSTRUCTORS[algorithm](data).digest()


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

    def fresh(self) -> HashStore:
        """A store over the same digests with nothing recovered.

        The digest set is shared, not copied or checked again: this store
        checked it when it was built.
        """
        store = object.__new__(self.__class__)
        store.__dict__.update(self.__dict__)
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

    def mark_recovered(self, digest: bytes, plaintext: str | bytes) -> bool:
        """Record digest -> plaintext, decoding bytes; True only on a digest's first recovery."""
        if digest not in self:
            raise HashStoreError(f"digest {digest.hex()} is not in the store")
        if digest_of(plaintext, self.algorithm) != digest:
            raise HashStoreError(f"plaintext {plaintext!r} does not hash to {digest.hex()}")
        if isinstance(plaintext, bytes):
            plaintext = plaintext.decode("utf-8", "surrogatepass")
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
    # Bulk passes: a2b_hex refuses all but pairs of hex digits, HashStore other widths.
    try:
        return HashStore(map(binascii.a2b_hex, hexes), algorithm, raw_count=len(hexes))
    except (ValueError, HashStoreError):
        raise _bad_line_error(lines, width) from None


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


class Match(NamedTuple):
    digest: bytes
    plaintext: str
    base_word: str
    rule_id: str

    def hex(self) -> str:
        return self.digest.hex()


class CrackResult(Value):
    _fields = ("attempted", "recovered_new", "matches", "elapsed", "throughput")

    def __init__(self, attempted: int, recovered_new: int, matches: list[Match],
                 elapsed: float, throughput: float):
        self.attempted = attempted
        self.recovered_new = recovered_new
        self.matches = matches
        self.elapsed = elapsed
        self.throughput = throughput

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "recovered_new": self.recovered_new,
            "elapsed_seconds": round(self.elapsed, 6),
            "throughput": round(self.throughput, 1),
            "matches": [
                {"digest": m.digest.hex(), "plaintext": m.plaintext,
                 "base_word": m.base_word, "rule_id": m.rule_id}
                for m in self.matches
            ],
        }


def _record_hit(hs: HashStore, matches: list[Match], cand: bytes, base: str, rule_id: str,
                digest: bytes) -> bool:
    """Append the hit to matches and record it in hs, as mark_recovered would
    but without hashing cand again: the caller found digest, cand's digest,
    in the store. True only on the digest's first recovery."""
    plaintext = cand.decode("utf-8", "surrogatepass")
    matches.append(Match(digest, plaintext, base, rule_id))
    return hs._record(digest, plaintext)


def crack(hs: HashStore, candidates: Iterable[CandidateRecord],
          algorithm: str | None = None, threads: int = 1,
          chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> CrackResult:
    """Hash every candidate once, in stream order, and match it against the store.

    Candidates are hashed as bytes and only hits are decoded. A CandidateStream
    from generate that has not been iterated yet hashes its candidates in the
    generator's loop, after the dedup check, and yields crack only the hits,
    each with its digest; attempted is then the stream's stats.emitted, the
    number of records it would have yielded. base_candidates and generate
    with no rules give such a stream of the base words. Any other input (a
    list, a stream already started, or a proxy that wraps one) is iterated
    and hashed here record by record, and attempted counts the records. Hits
    are recorded as mark_recovered records them (atomic, first plaintext wins),
    without hashing them again; recovered_new counts only digests newly
    recovered by this call. Matches come back sorted by digest. threads and
    chunk_bytes have no effect: matching always runs on the calling thread.
    perfbench/workloads.py is their only user, so they go when it stops passing them.
    """
    if algorithm is None:
        algorithm = hs.algorithm
    elif algorithm != hs.algorithm:
        raise AlgorithmMismatchError(
            f"store holds {hs.algorithm} digests, requested {algorithm}")
    hasher = _CONSTRUCTORS[algorithm]
    digests = hs.digest_set

    attempted = 0
    recovered_new = 0
    matches: list[Match] = []
    start = time.perf_counter()
    # the exact type: a proxy that forwards attributes to a stream still
    # iterates it record by record, and must see every record
    hits = candidates._hits(digests, hasher) if type(candidates) is CandidateStream else None
    if hits is None:
        for attempted, (cand, base, rule_id) in enumerate(candidates, 1):
            d = hasher(cand).digest()
            if d in digests:
                recovered_new += _record_hit(hs, matches, cand, base, rule_id, d)
    else:
        for cand, base, rule_id, d in hits:
            recovered_new += _record_hit(hs, matches, cand, base, rule_id, d)
        attempted = candidates.stats.emitted
    elapsed = time.perf_counter() - start

    matches.sort()
    throughput = attempted / elapsed if elapsed > 0 else 0.0
    return CrackResult(attempted, recovered_new, matches, elapsed, throughput)
