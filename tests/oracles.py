"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written against different primitives than the
package (no str.translate, no hashlib) so a shared bug cannot hide.
"""

from __future__ import annotations

import itertools
import math
import struct

_S = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
_K = [int(abs(math.sin(i + 1)) * 2 ** 32) & 0xFFFFFFFF for i in range(64)]


def md5_reference(data: bytes) -> bytes:
    """Textbook MD5: padding, little-endian schedule, four 16-step rounds."""
    a0, b0, c0, d0 = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    msg = bytearray(data)
    bit_len = (8 * len(data)) & 0xFFFFFFFFFFFFFFFF
    msg.append(0x80)
    while len(msg) % 64 != 56:
        msg.append(0)
    msg += struct.pack("<Q", bit_len)
    for off in range(0, len(msg), 64):
        m = struct.unpack("<16I", msg[off:off + 64])
        a, b, c, d = a0, b0, c0, d0
        for i in range(64):
            if i < 16:
                f, g = (b & c) | (~b & d), i
            elif i < 32:
                f, g = (d & b) | (~d & c), (5 * i + 1) % 16
            elif i < 48:
                f, g = b ^ c ^ d, (3 * i + 5) % 16
            else:
                f, g = c ^ (b | ~d), (7 * i) % 16
            f = (f + a + _K[i] + m[g]) & 0xFFFFFFFF
            a, d, c = d, c, b
            b = (b + ((f << _S[i] | f >> (32 - _S[i])) & 0xFFFFFFFF)) & 0xFFFFFFFF
        a0 = (a0 + a) & 0xFFFFFFFF
        b0 = (b0 + b) & 0xFFFFFFFF
        c0 = (c0 + c) & 0xFFFFFFFF
        d0 = (d0 + d) & 0xFFFFFFFF
    return struct.pack("<4I", a0, b0, c0, d0)


def mangle_reference(word, rule, strict_multi=False):
    """Char-by-char replacement; same contract as apply_rule, different code."""
    if strict_multi and len(rule.pairs) > 1:
        for p in rule.pairs:
            variants = {p.source}
            if rule.case_insensitive:
                variants.add(p.source.swapcase())
            if not any(v in word for v in variants):
                return None
    out_chars = []
    for ch in word:
        repl = ch
        for p in rule.pairs:
            if ch == p.source or (rule.case_insensitive and ch == p.source.swapcase()):
                repl = p.replacement
                break
        out_chars.append(repl)
    out = "".join(out_chars)
    return out if out != word else None


def generate_reference(words, rules, include_base=False, strict_multi=False, dedup=True):
    """Ordered, first-wins enumeration with generate()'s stream contract.

    Base words (with include_base) come first, then every word through every
    rule in order; with dedup a candidate already emitted is counted as
    suppressed. Returns the (candidate, base, rule_id) tuples and the counts
    in GenStats.to_dict() form.
    """
    arity_names = {1: "single", 2: "dual", 3: "triad"}
    records, seen, suppressed = [], set(), 0
    by_arity = {"base": 0, "single": 0, "dual": 0, "triad": 0}
    offers = [(word, word, "BASE", "base") for word in words] if include_base else []
    for word in words:
        for rule in rules:
            mangled = mangle_reference(word, rule, strict_multi=strict_multi)
            if mangled is not None:
                offers.append((mangled, word, rule.id, arity_names[len(rule.pairs)]))
    for candidate, base, rule_id, arity in offers:
        if dedup and candidate in seen:
            suppressed += 1
            continue
        seen.add(candidate)
        records.append((candidate, base, rule_id))
        by_arity[arity] += 1
    counts = {"emitted": len(records), "emitted_mangled": len(records) - by_arity["base"],
              "suppressed_duplicates": suppressed, "by_arity": by_arity}
    return records, counts


def simulate_hashcat_line(line: str, word: str) -> str:
    """Replay substitute tokens the way the external engine does: replace-all,
    one token at a time, left to right."""
    out = word
    for token in line.split(" "):
        assert len(token) == 3 and token[0] == "s", f"unexpected token {token!r}"
        out = out.replace(token[1], token[2])
    return out


def audit_reference(password, rules, words):
    """audit's findings by brute force: (base, rule_id) pairs sorted by
    (rule_id, base), with (password, "BASE") when the password is a word.

    For each rule, a position's preimages are the characters, among the
    password's own and every source in both cases, that mangle_reference
    turns into the password's character there. Each base in their product
    that mangle_reference maps to the password and whose casefold is a
    word's casefold counts. Of the bases sharing a casefold the first in the
    product counts, with each position's preimages in preference order: the
    password's own character, then lowercase ones, then by code point.
    """
    folded = {w.casefold() for w in words}
    found = []
    if password.casefold() in folded:
        found.append((password, "BASE"))
    for rule in rules:
        chars = {p.source for p in rule.pairs} | {p.source.swapcase() for p in rule.pairs}
        options = []
        for ch in password:
            pre = [x for x in chars | {ch} if (mangle_reference(x, rule) or x) == ch]
            options.append(sorted(pre, key=lambda x, ch=ch: (x != ch, x != x.lower(), x)))
        seen = set()
        for combo in itertools.product(*options):
            base = "".join(combo)
            key = base.casefold()
            if key in folded and key not in seen and mangle_reference(base, rule) == password:
                seen.add(key)
                found.append((base, rule.id))
    return sorted(found, key=lambda f: (f[1], f[0]))


def load_wordlists_reference(inputs):
    """(words, sources) of load_wordlists, by a loop over each line in Python.

    Each source is split at newlines before decoding and each line is decoded
    on its own, so a decode error names the first line holding invalid UTF-8;
    a leading BOM is dropped. Per line: strip trailing CRs, skip the line if
    that leaves it blank, else count it and keep its first occurrence across
    sources. An invalid source raises WordlistDecodeError.
    """
    from leetforge.errors import WordlistDecodeError

    words = {}
    sources = []
    for name, data in inputs:
        count = 0
        for lineno, line in enumerate(data.split(b"\n" if isinstance(data, bytes) else "\n"), 1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError:
                    raise WordlistDecodeError(name, lineno) from None
            if lineno == 1 and line.startswith("\ufeff"):
                line = line[1:]
            word = line.rstrip("\r")
            if word:
                count += 1
                if word not in words:
                    words[word] = None
        sources.append((name, count))
    return tuple(words), tuple(sources)


_HEX_DIGITS = "0123456789abcdefABCDEF"
_DIGEST_WIDTHS = {"md5": 16, "sha1": 20, "sha256": 32}


def load_hashes_reference(data, algorithm="md5"):
    """(digest_set, raw_count, unique_count) of a digest list, or a line's error.

    Same contract as load_hashes, without bytes.fromhex or int(x, 16) (both
    have their own whitespace and digit rules): a non-blank line, stripped,
    must be exactly 2 * width ASCII hex digits, decoded nibble by nibble.
    The first line that is not raises HashFormatError with its number.
    """
    from leetforge.errors import HashFormatError

    width = _DIGEST_WIDTHS[algorithm]
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if text.startswith("\ufeff"):
        text = text[1:]
    digests = set()
    raw_count = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        raw_count += 1
        if len(line) != 2 * width or any(ch not in _HEX_DIGITS for ch in line):
            raise HashFormatError("not a digest", line=lineno)
        nibbles = [_HEX_DIGITS.index(ch.lower()) for ch in line]
        digests.add(bytes(hi * 16 + lo for hi, lo in zip(nibbles[::2], nibbles[1::2])))
    return frozenset(digests), raw_count, len(digests)
