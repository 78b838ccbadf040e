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
from oracles import load_hashes_reference

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


def test_load_error_messages():
    with pytest.raises(HashFormatError) as exc:
        load_hashes(f"{H_CAT}\n\nabcd\n")
    assert str(exc.value) == "line 3: expected 32 hex characters, got 4: 'abcd'"
    with pytest.raises(HashFormatError) as exc:
        load_hashes(" " + "g" * 32 + "\r\n")
    assert str(exc.value) == f"line 1: not hexadecimal: '{'g' * 32}'"


@pytest.mark.parametrize("ws", [" ", "\t"])
def test_load_rejects_whitespace_inside_a_digest(ws):
    # bytes.fromhex skips whitespace between byte pairs, so this line is 32
    # characters long and would decode to 15 bytes
    line = f"0011{ws}2233445566778899aabbccdd{ws}ee"
    assert len(line) == 32
    with pytest.raises(HashFormatError) as exc:
        load_hashes(f"{H_CAT}\n\n{line}\n{H_DOG}\n")
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: whitespace inside the digest: {line!r}"


def test_load_rejects_a_long_line_that_skipped_whitespace_would_fit():
    # bytes.fromhex would skip the space and decode this line to exactly 16
    # bytes; it is 33 characters long, so it is refused by its length
    line = "0011 " + "2233445566778899aabbccddeeff"
    assert len(line) == 33 and len(bytes.fromhex(line)) == 16
    with pytest.raises(HashFormatError) as exc:
        load_hashes(f"{H_CAT}\n{line}\n{H_DOG}\n")
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: expected 32 hex characters, got 33: {line!r}"


_ODD_WHITESPACE = [" ", "\t", "\x0b", "\x0c", "\u2028", "\u3000"]


def _random_digest_list(rng, width):
    """Lines for a well-formed list: mixed case, CRLF, padding, blanks, repeats."""
    pool = [rng.randbytes(width) for _ in range(rng.randint(1, 12))]
    lines = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.1:
            lines.append("")
        elif roll < 0.2:
            lines.append("".join(rng.choices(_ODD_WHITESPACE, k=rng.randint(1, 3))))
        else:
            hexed = "".join(c.upper() if rng.random() < 0.3 else c
                            for c in rng.choice(pool).hex())
            pad = rng.choice(["", " ", "\t", " \t "])
            lines.append(pad + hexed + rng.choice(["", "\r", pad]))
    return lines


def _malform(rng, line):
    """A non-blank variant of a digest line that no digest list may hold."""
    hexed = line.strip()
    kind = rng.choice(["short", "long", "short pair", "long pair", "non-hex",
                       "inner whitespace", "non-ascii digit"])
    at = rng.randrange(len(hexed) + 1)
    if kind == "short":
        return hexed[:-1]
    if kind == "long":
        return hexed + rng.choice("0aF")
    if kind == "short pair":
        return hexed[:-2]
    if kind == "long pair":
        return hexed + "00"
    if kind == "non-hex":
        return hexed[:at] + rng.choice("gGxz-:") + hexed[at + 1:]
    if kind == "inner whitespace":
        pair = 2 * rng.randrange(1, len(hexed) // 2)
        ws = rng.choice([" ", "\t"]) * rng.choice([1, 2])
        return (hexed[:pair] + ws + hexed[pair:])[:len(hexed)]
    return hexed[:at] + rng.choice(["\u0663", "\uff10", "\u00b2", "\u09e7"]) + hexed[at + 1:]


def _outcome(parse, data, algorithm):
    try:
        result = parse(data, algorithm)
    except HashFormatError as exc:
        return "HashFormatError", exc.line
    if isinstance(result, HashStore):
        return result.digest_set, result.raw_count, result.unique_count
    return result


@pytest.mark.parametrize("algorithm", ["md5", "sha1", "sha256"])
def test_load_matches_reference(algorithm):
    width = {"md5": 16, "sha1": 20, "sha256": 32}[algorithm]
    rng = random.Random(f"load_hashes:{algorithm}")
    for _ in range(150):
        lines = _random_digest_list(rng, width)
        bom = rng.choice(["", "\ufeff"])
        text = bom + "\n".join(lines) + rng.choice(["", "\n", "\r\n"])
        data = text.encode() if rng.random() < 0.5 else text
        expected = _outcome(load_hashes_reference, data, algorithm)
        assert expected[0] != "HashFormatError"
        assert _outcome(load_hashes, data, algorithm) == expected
        # Two malformed lines: the error names the first one.
        filled = [i for i, line in enumerate(lines) if line.strip()]
        if len(filled) < 2:
            continue
        bad = sorted(rng.sample(filled, 2))
        for i in bad:
            lines[i] = _malform(rng, lines[i])
        text = bom + "\n".join(lines) + "\n"
        expected = _outcome(load_hashes_reference, text, algorithm)
        assert expected == ("HashFormatError", bad[0] + 1)
        assert _outcome(load_hashes, text, algorithm) == expected


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
    assert bytes.fromhex(H_CAT) in hs
    assert bytes.fromhex(H_DOG) not in hs
    with pytest.raises(HashStoreError, match="width"):
        b"\x00" * 20 in hs


def test_contains_matches_linear_scan():
    rng = random.Random(0xD16E57)
    planted = [rng.randbytes(16) for _ in range(1000)]
    hs = HashStore(planted)
    probes = [rng.choice(planted) if rng.random() < 0.5 else rng.randbytes(16)
              for _ in range(10_000)]
    for d in probes:
        assert (d in hs) == any(d == p for p in planted)


def test_mark_recovered_first_wins():
    hs = load_hashes(f"{H_CAT}\n")
    d = bytes.fromhex(H_CAT)
    assert hs.mark_recovered(d, "cat") is True
    assert hs.mark_recovered(d, "cat") is False
    assert len(hs.recovered) == 1
    assert hs.recovered[d] == "cat"


def test_mark_recovered_stores_a_bytes_plaintext_decoded():
    # a CandidateRecord's candidate is bytes; the store and the potfile hold str
    hs = load_hashes(digest_of("abc").hex() + "\n" + digest_of("p\u00e4\udc80").hex() + "\n")
    assert hs.mark_recovered(digest_of("abc"), b"abc") is True
    assert hs.mark_recovered(digest_of("abc"), "abc") is False
    assert hs.mark_recovered(digest_of("p\u00e4\udc80"), b"p\xc3\xa4\xed\xb2\x80") is True
    assert sorted(hs.recovered.values()) == ["abc", "p\u00e4\udc80"]
    assert "900150983cd24fb0d6963f7d28e17f72:abc\n" in format_potfile(hs)


def test_mark_recovered_validates():
    hs = load_hashes(f"{H_CAT}\n")
    with pytest.raises(HashStoreError, match="not in the store"):
        hs.mark_recovered(bytes.fromhex(H_DOG), "dog")
    with pytest.raises(HashStoreError, match="does not hash"):
        hs.mark_recovered(bytes.fromhex(H_CAT), "dog")
    assert len(hs.recovered) == 0


def test_counts_are_monotone():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n{H_CAT}\n")
    hs.mark_recovered(bytes.fromhex(H_CAT), "cat")
    assert len(hs.recovered) <= hs.unique_count <= hs.raw_count


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


@pytest.mark.parametrize("container", [list, set, frozenset, iter])
def test_store_validates_width_from_any_iterable(container):
    good = [bytes([i]) * 16 for i in range(50)]
    with pytest.raises(HashStoreError, match="width 15 != 16"):
        HashStore(container(good[:20] + [b"\x01" * 15] + good[20:]))
    hs = HashStore(container(good + good[:5]))
    assert hs.digest_set == frozenset(good)
    assert hs.raw_count == hs.unique_count == 50
    assert HashStore(container(good), raw_count=70).raw_count == 70


def test_fresh_store_shares_the_checked_set():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n{H_CAT}\n")
    hs.mark_recovered(bytes.fromhex(H_CAT), "cat")
    fresh = hs.fresh()
    assert fresh.digest_set is hs.digest_set
    assert (fresh.raw_count, fresh.unique_count, fresh.algorithm) == (3, 2, "md5")
    assert fresh.recovered == {}
    assert fresh.mark_recovered(bytes.fromhex(H_CAT), "cat")
    assert fresh.mark_recovered(bytes.fromhex(H_DOG), "dog")
    assert dict(hs.recovered) == {bytes.fromhex(H_CAT): "cat"}
    # a frozenset from a caller is still checked
    with pytest.raises(HashStoreError, match="width 15 != 16"):
        HashStore(hs.digest_set | {b"\x01" * 15})


def test_store_keeps_a_frozen_digest_set():
    hs = load_hashes(f"{H_CAT}\n{H_DOG}\n{H_CAT}\n")
    again = HashStore(hs.digest_set, raw_count=hs.raw_count)
    assert again.digest_set is hs.digest_set
    assert (again.raw_count, again.unique_count) == (3, 2)


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
