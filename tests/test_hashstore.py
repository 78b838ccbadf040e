"""Digest storage: parsing, membership, first-wins recovery, potfile."""

from __future__ import annotations

import codecs
import hashlib
import random
import threading

import pytest

from leetforge import (HashFormatError, HashStore, HashStoreError,
                       UnknownAlgorithmError, digest_of, format_potfile,
                       load_hashes)

H_CAT = hashlib.md5(b"cat").hexdigest()
H_DOG = hashlib.md5(b"dog").hexdigest()


def test_load_dedups_but_counts_raw():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n{H_CAT}\n")
    assert hs.raw_count == 3
    assert hs.unique_count == 2


def test_load_accepts_either_hex_case_and_crlf():
    hs = load_hashes(f"{H_CAT.upper()}\r\n\r\n{H_DOG}\n")
    assert hs.unique_count == 2
    assert hs.raw_count == 2
    assert bytes.fromhex(H_CAT) in hs


def test_load_is_order_insensitive():
    a = load_hashes(f"{H_CAT}\n{H_DOG}\n")
    b = load_hashes(f"{H_DOG}\n{H_CAT}\n")
    assert a.digest_set == b.digest_set


def test_load_rejects_bad_lines_with_line_number():
    with pytest.raises(HashFormatError, match="line 2"):
        load_hashes(f"{H_CAT}\nnot-a-hash\n")
    with pytest.raises(HashFormatError, match="line 1"):
        load_hashes("abcd\n")  # wrong width
    with pytest.raises(HashFormatError, match="line 1"):
        load_hashes("g" * 32 + "\n")  # right width, not hex


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_load_splits_lines_on_newline_only(sep):
    # str.splitlines would break here and load two digests
    with pytest.raises(HashFormatError, match="line 2"):
        load_hashes(f"{H_CAT}\n{H_CAT}{sep}{H_DOG}\n")
    assert load_hashes(f"{H_CAT}\r\n{H_DOG}\r\n").raw_count == 2


def test_load_drops_leading_bom():
    assert load_hashes(codecs.BOM_UTF8 + f"{H_CAT}\n".encode()).unique_count == 1
    assert load_hashes(f"\ufeff{H_CAT}\n").unique_count == 1


def test_load_other_algorithms():
    sha = hashlib.sha256(b"cat").hexdigest()
    hs = load_hashes(sha + "\n", algorithm="sha256")
    assert hs.digest_width == 32
    assert bytes.fromhex(sha) in hs
    with pytest.raises(UnknownAlgorithmError):
        load_hashes("00" * 16, algorithm="crc32")


def test_contains_and_width_check():
    hs = load_hashes(f"{H_CAT}\n")
    assert hs.contains(bytes.fromhex(H_CAT))
    assert not hs.contains(bytes.fromhex(H_DOG))
    with pytest.raises(HashStoreError, match="width"):
        hs.contains(b"\x00" * 20)


def test_contains_matches_linear_scan():
    rng = random.Random(0xD16E57)
    planted = [rng.randbytes(16) for _ in range(1000)]
    hs = HashStore(planted)
    probes = [rng.choice(planted) if rng.random() < 0.5 else rng.randbytes(16)
              for _ in range(10_000)]
    for d in probes:
        assert hs.contains(d) == any(d == p for p in planted)


def test_mark_recovered_first_wins():
    hs = load_hashes(f"{H_CAT}\n")
    d = bytes.fromhex(H_CAT)
    assert hs.mark_recovered(d, "cat") is True
    assert hs.mark_recovered(d, "cat") is False
    assert hs.recovered_count == 1
    assert hs.recovered[d] == "cat"


def test_mark_recovered_validates():
    hs = load_hashes(f"{H_CAT}\n")
    with pytest.raises(HashStoreError, match="not in the store"):
        hs.mark_recovered(bytes.fromhex(H_DOG), "dog")
    with pytest.raises(HashStoreError, match="does not hash"):
        hs.mark_recovered(bytes.fromhex(H_CAT), "dog")
    assert hs.recovered_count == 0


def test_counts_are_monotone():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n{H_CAT}\n")
    hs.mark_recovered(bytes.fromhex(H_CAT), "cat")
    assert hs.recovered_count <= hs.unique_count <= hs.raw_count


def test_mark_recovered_is_atomic_under_threads():
    hs = load_hashes(f"{H_CAT}\n")
    d = bytes.fromhex(H_CAT)
    wins = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        if hs.mark_recovered(d, "cat"):
            wins.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1


def test_digest_width_validated_on_construction():
    with pytest.raises(HashStoreError, match="width"):
        HashStore([b"\x00" * 16, b"\x00" * 20])


def test_potfile_sorted_and_formatted():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n")
    hs.mark_recovered(bytes.fromhex(H_DOG), "dog")
    hs.mark_recovered(bytes.fromhex(H_CAT), "cat")
    lines = format_potfile(hs).splitlines()
    assert lines == sorted(lines)
    assert f"{H_CAT}:cat" in lines
    assert f"{H_DOG}:dog" in lines
    for line in lines:
        hexpart, _, _ = line.partition(":")
        assert hexpart == hexpart.lower() and len(hexpart) == 32


def test_digest_of_agrees_with_store_verification():
    hs = load_hashes(digest_of("p@ssw0rd").hex() + "\n")
    assert hs.mark_recovered(digest_of("p@ssw0rd"), "p@ssw0rd")
