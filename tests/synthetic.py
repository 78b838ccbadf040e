"""Deterministic test fixtures: crack/bench corpora with fully known ground
truth, and seeded random rule sets that stress case folding."""

from __future__ import annotations

import hashlib

from leetforge import CharPair, ReplacementRule, RuleSet

# Letters no builtin rule replaces; tails built from them can never mangle.
SAFE_ALPHABET = "cjknpquwxy"


def planted_corpus(n_words=1000, n_plain=100, n_mangled=100, digest_fn=None):
    """Words of the shape 'o' + fixed-width tail over SAFE_ALPHABET.

    Only the leading 'o' can mangle (to '0', '3' or '@'), tails are pairwise
    distinct, and no mangle collides with any word, so every word emits
    exactly one base form and three mangles. The first n_plain words are
    planted as digests verbatim; for the next n_mangled words the o->0 form
    is planted instead. So a plain-words run recovers exactly n_plain and a
    run that adds the builtin mangles recovers n_plain + n_mangled.

    Returns (words, hash_text, planted_plain, planted_mangled).
    """
    assert n_plain + n_mangled <= n_words
    if digest_fn is None:
        digest_fn = lambda s: hashlib.md5(s.encode("utf-8")).digest()
    width = 4
    while len(SAFE_ALPHABET) ** width < n_words:
        width += 1
    words = []
    for i in range(n_words):
        tail = ""
        x = i
        for _ in range(width):
            tail = SAFE_ALPHABET[x % 10] + tail
            x //= 10
        words.append("o" + tail)
    planted_plain = words[:n_plain]
    planted_mangled = ["0" + w[1:] for w in words[n_plain:n_plain + n_mangled]]
    hash_text = "".join(digest_fn(s).hex() + "\n" for s in planted_plain + planted_mangled)
    return words, hash_text, planted_plain, planted_mangled


def random_custom_rules(rng, n):
    """n rules over a small pool, so chains (a>b,b>1), shared replacements
    (a>1,i>1), case-sensitive uppercase sources, A>a, non-ASCII pairs, a
    titlecase source and casefolds longer than one character (ß, ẞ, İ, ﬁ)
    recur."""
    pool = "abiAB1@" + "\u00e9\u00c9\u20ac\u01c5\u00df\u1e9e\u0130\ufb01"   # é É € ǅ ß ẞ İ ﬁ
    rules = []
    while len(rules) < n:
        try:
            pairs = tuple(CharPair(*rng.sample(pool, 2)) for _ in range(rng.randint(1, 3)))
            rules.append(ReplacementRule(f"C{len(rules)}", pairs,
                                         case_insensitive=rng.random() < 0.5))
        except ValueError:   # a repeated source character, or one with no one-character swapcase
            continue
    return RuleSet(tuple(rules))


def case_noise(rng, word):
    """word with about 30% of its characters case-swapped, where that keeps one character."""
    return "".join(c.swapcase() if rng.random() < 0.3 and len(c.swapcase()) == 1 else c
                   for c in word)
