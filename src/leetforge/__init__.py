"""Wordlist mangling, hash-recovery benchmarking, and leet-pattern auditing."""

from .bench import BenchReport, format_report_table, run_benchmark, uplift
from .corpus import WordList, load_wordlist_files, load_wordlists
from .cracker import (ALGORITHMS, DEFAULT_CHUNK_BYTES, CrackResult, HashStore, Match,
                      crack, digest_of, digest_size, format_potfile, load_hashes)
from .detector import DetectionResult, Finding, audit, deleet
from .errors import (AlgorithmMismatchError, ExportError, HashFormatError,
                     HashStoreError, InputFormatError, LeetforgeError,
                     RuleParseError, UnknownAlgorithmError, WordlistDecodeError)
from .generator import (CandidateRecord, CandidateStream, GenStats,
                        apply_rule, base_candidates, generate)
from .rules import (BASE_RULE_ID, CharPair, ReplacementRule, RuleSet, builtin_rules,
                    export_hashcat, parse_rules, serialize_rules)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BASE_RULE_ID", "DEFAULT_CHUNK_BYTES",
    "AlgorithmMismatchError", "BenchReport", "CandidateRecord", "CandidateStream",
    "CharPair", "CrackResult", "DetectionResult", "ExportError", "Finding",
    "GenStats", "HashFormatError", "HashStore", "HashStoreError",
    "InputFormatError", "LeetforgeError", "Match", "ReplacementRule",
    "RuleParseError", "RuleSet", "UnknownAlgorithmError", "WordList",
    "WordlistDecodeError", "apply_rule", "audit", "base_candidates",
    "builtin_rules", "crack", "deleet", "digest_of", "digest_size",
    "export_hashcat", "format_potfile", "format_report_table", "generate",
    "load_hashes", "load_wordlist_files", "load_wordlists", "parse_rules",
    "run_benchmark", "serialize_rules", "uplift",
]
