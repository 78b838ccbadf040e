"""Digest computation and candidate-vs-store matching.

The matcher hashes each candidate in stream order on the calling thread, so
counts, first-wins recovery and the final match list depend only on the
candidate stream. CPython holds the GIL while hashing inputs under 2 KiB, so
worker threads measured slower than this single loop at every count.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import AlgorithmMismatchError, UnknownAlgorithmError
from .generator import CandidateRecord

if TYPE_CHECKING:
    from .hashstore import HashStore

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


class Match(NamedTuple):
    digest: bytes
    plaintext: str
    base_word: str
    rule_id: str

    def hex(self) -> str:
        return self.digest.hex()


@dataclass
class CrackResult:
    attempted: int
    recovered_new: int
    matches: list[Match]
    elapsed: float
    throughput: float

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


def crack(hs: "HashStore", candidates: Iterable[CandidateRecord],
          algorithm: str | None = None, threads: int = 1,
          chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> CrackResult:
    """Hash every candidate once, in stream order, and match it against the store.

    Hits are recorded as mark_recovered records them (atomic, first plaintext
    wins), without hashing them again, and recovered_new counts only digests
    newly recovered by this call. Matches come back sorted by digest.
    threads and chunk_bytes have no effect: matching always runs on the
    calling thread. perfbench/workloads.py is their only user, so they go
    when that file stops passing them.
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
    for cand, base, rule_id in candidates:
        attempted += 1
        d = hasher(cand.encode("utf-8", "surrogatepass")).digest()
        if d in digests:
            if hs._record(d, cand):   # d is cand's digest and in the store
                recovered_new += 1
            matches.append(Match(d, cand, base, rule_id))
    elapsed = time.perf_counter() - start

    matches.sort(key=lambda m: (m.digest, m.plaintext, m.base_word, m.rule_id))
    throughput = attempted / elapsed if elapsed > 0 else 0.0
    return CrackResult(attempted, recovered_new, matches, elapsed, throughput)
