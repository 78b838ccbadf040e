"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written against different primitives than the
package (no str.translate, no hashlib) so a shared bug cannot hide.
"""

from __future__ import annotations

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


def brute_force_candidates(words, rules, include_base=False, strict_multi=False):
    """Nested-loop, set-semantics enumeration of every distinct candidate."""
    out = set()
    if include_base:
        out.update(words)
    for word in words:
        for rule in rules:
            mangled = mangle_reference(word, rule, strict_multi=strict_multi)
            if mangled is not None:
                out.add(mangled)
    return out


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


def deleet_reference(password, rules):
    """Unscreened inversion: every rule, char-by-char inverse, mangle_reference check.

    Same contract as deleet: (base, rule_id) per rule whose inverse changes the
    password and whose re-application reproduces it exactly, in rule order.
    """
    findings = []
    for rule in rules:
        base = "".join(rule.inverse_translation.get(ord(ch), ch) for ch in password)
        if base != password and mangle_reference(base, rule) == password:
            findings.append((base, rule.id))
    return findings
