"""Wordlist loading, dedup, and per-source counts."""

from __future__ import annotations

import codecs
import random

import pytest

from leetforge import WordList, WordlistDecodeError, load_wordlists
from oracles import load_wordlists_reference


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


# Words that share a pool, so sources overlap and repeat: inner CRs and
# whitespace are part of a word, trailing CRs are not.
_WORD_POOL = ["cat", "Cat", "a\rb", "\rlead", "pass word", "  padded", "caf\u00e9",
              "\U0001f600", "\ufeffinner", "x\ty", "\u3000", "a", "b", "tail\r\rx"]
_LINE_ENDS = ["", "", "\r", "\r\r", "\r\r\r"]


def _random_source(rng):
    """Text for one source: pool words with CR endings, blank and CR-only lines,
    or the same with no CR at all."""
    lines = []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.15:
            lines.append("")
        elif roll < 0.3:
            lines.append("\r" * rng.randint(1, 3))
        else:
            lines.append(rng.choice(_WORD_POOL) + rng.choice(_LINE_ENDS))
    text = "\n".join(lines) + rng.choice(["", "\n", "\r\n", "\r"])
    if rng.random() < 0.4:   # the loader strips CRs only from a source that holds one
        text = text.replace("\r", "")
    return rng.choice(["", "", "\ufeff"]) + text


def _load_outcome(load, inputs):
    try:
        wl = load(inputs)
    except WordlistDecodeError as exc:
        return "WordlistDecodeError", exc.source, exc.line
    return (wl.words, wl.sources) if isinstance(wl, WordList) else wl


def test_load_matches_reference():
    rng = random.Random("load_wordlists")
    for _ in range(400):
        inputs = []
        for i in range(rng.randint(0, 4)):
            text = _random_source(rng)
            data = text.encode("utf-8") if rng.random() < 0.5 else text
            if isinstance(data, bytes) and rng.random() < 0.1:
                at = rng.randrange(len(data) + 1)
                data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + data[at:]
            inputs.append((f"s{i}", data))
        expected = _load_outcome(load_wordlists_reference, inputs)
        assert _load_outcome(load_wordlists, inputs) == expected


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
