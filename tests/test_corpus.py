"""Wordlist loading, dedup, and per-source counts."""

from __future__ import annotations

import codecs

import pytest

from leetforge import WordList, WordlistDecodeError, load_wordlists


def test_raw_counts_per_source():
    wl = load_wordlists([("en", "cat\ndog\n"), ("fr", "chat\n")])
    assert wl.sources == (("en", 2), ("fr", 1))
    assert wl.words == ("cat", "dog", "chat")


def test_cross_source_dedup_keeps_first():
    wl = load_wordlists([("a", "x\ny\n"), ("b", "y\nz\n")])
    assert wl.words == ("x", "y", "z")
    assert wl.sources == (("a", 2), ("b", 2))


def test_crlf_and_blank_lines():
    wl = load_wordlists([("s", "one\r\n\r\ntwo\r\n\n\nthree")])
    assert wl.words == ("one", "two", "three")
    assert wl.sources == (("s", 3),)


def test_inner_whitespace_kept_verbatim():
    wl = load_wordlists([("s", "pass word\n  padded\n")])
    assert wl.words == ("pass word", "  padded")


def test_bytes_input_and_decode_error():
    wl = load_wordlists([("s", b"caf\xc3\xa9\n")])
    assert wl.words == ("café",)
    with pytest.raises(WordlistDecodeError, match=r"dump, line 2"):
        load_wordlists([("dump", b"fine\n\xff\xfe\nafter\n")])


def test_leading_bom_is_dropped():
    wl = load_wordlists([("b", codecs.BOM_UTF8 + b"password\n"), ("s", "\ufeffdragon\n")])
    assert wl.words == ("password", "dragon")
    # line numbers count from the start of the input, BOM included
    with pytest.raises(WordlistDecodeError, match=r"b, line 2"):
        load_wordlists([("b", codecs.BOM_UTF8 + b"fine\n\xff\n")])


def test_loading_is_idempotent():
    wl = load_wordlists([("a", "x\ny\nx\n"), ("b", "y\nw\n")])
    again = load_wordlists([("all", "\n".join(wl.words))])
    assert again.words == wl.words


def test_membership_helpers():
    wl = load_wordlists([("s", "Alpha\nbeta\n")])
    assert "Alpha" in wl and "beta" in wl and "gamma" not in wl
    assert wl.contains_casefold("ALPHA")
    assert wl.contains_casefold("alpha")
    assert not wl.contains_casefold("gamma")


def test_from_words_matches_loader_semantics():
    wl = WordList.from_words(["x", "y", "x", ""], source="mem")
    assert wl.words == ("x", "y")
    assert wl.sources == (("mem", 3),)


def test_stats_empty():
    wl = load_wordlists([])
    assert wl.sources == ()
    assert len(wl) == 0


def test_stats_totals():
    wl = load_wordlists([("a", "x\ny\n"), ("b", "y\n")])
    assert sum(n for _, n in wl.sources) == 3
    assert len(wl) == 2
    assert wl.sources == (("a", 2), ("b", 1))


def test_nine_source_corpus_counts():
    # Source sizes matching a real multi-language dictionary corpus; all words
    # distinct so raw total == unique total.
    sizes = {
        "english": 270099, "french": 246747, "dutch": 180130, "spanish": 174847,
        "german": 166103, "turkish": 119575, "italian": 88351,
        "norwegian": 61413, "danish": 23515,
    }
    inputs = [(name, "\n".join(f"{name[:2]}{i}" for i in range(size)))
              for name, size in sizes.items()]
    wl = load_wordlists(inputs)
    assert sum(n for _, n in wl.sources) == 1_330_780
    assert dict(wl.sources) == sizes
    assert len(wl) == 1_330_780
