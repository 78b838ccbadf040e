"""Exception types shared across the package."""

from __future__ import annotations


class LeetforgeError(Exception):
    """Base class for every error this package raises on purpose."""


class InputFormatError(LeetforgeError):
    """Malformed user-supplied input: rule files, wordlists, hash lists."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RuleParseError(InputFormatError):
    """A rule file line that does not parse into a valid rule."""


class ExportError(InputFormatError):
    """A rule cannot be written in the target rule syntax."""


class WordlistDecodeError(InputFormatError):
    """Text input (word list, digest list, rule file, stdin) that is not UTF-8."""

    def __init__(self, source: str, line: int):
        super().__init__(f"{source}, line {line}: invalid UTF-8")
        self.source = source
        self.line = line


class HashFormatError(InputFormatError):
    """A digest list line that is not one hex digest of the expected width."""


class UnknownAlgorithmError(InputFormatError):
    """Digest algorithm id is not in the registry."""


class HashStoreError(LeetforgeError):
    """Digest store contract violation: wrong width, unknown digest, bad plaintext."""


class AlgorithmMismatchError(LeetforgeError):
    """A store was asked to match digests of a different algorithm."""
