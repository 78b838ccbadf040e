"""Command-line interface: gen, crack, detect, bench, export-rules, stats."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from . import __version__
from .bench import format_report_table, run_benchmark
from .corpus import load_wordlist_files, read_lines
from .cracker import ALGORITHMS, crack
from .detector import audit
from .errors import InputFormatError, LeetforgeError
from .generator import GenOptions, base_candidates, generate
from .hashstore import format_potfile, load_hashes
from .rules import builtin_rules, export_hashcat, parse_rules, serialize_rules

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit 1, leaving 2 for bad input data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_rules(source: str):
    if source == "builtin":
        return builtin_rules()
    return parse_rules(Path(source).read_bytes())


def _open_out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _output_clash(args) -> tuple[str, str] | None:
    """The first two gen flags naming one output file (`-o -` is stdout), or None."""
    flags: dict[str, str] = {}
    for flag, path in (("-o", None if args.output == "-" else args.output),
                       ("--provenance", args.provenance), ("--stats-json", args.stats_json)):
        if path:
            same = flags.setdefault(os.path.realpath(path), flag)
            if same != flag:
                return same, flag
    return None


def cmd_gen(args) -> int:
    clash = _output_clash(args)
    if clash is not None:
        # two handles writing one file would interleave and tear its lines
        print(f"leetforge gen: {clash[0]} and {clash[1]} name the same file; "
              f"give each its own path", file=sys.stderr)
        return EXIT_USAGE
    wl = load_wordlist_files(args.wordlist)
    rs = _load_rules(args.rules)
    if args.provenance:
        # checked before any output is opened, so a refused run leaves no files
        for word in wl.words:
            if "\t" in word:
                raise InputFormatError(
                    f"word {word!r} contains a TAB, which --provenance uses "
                    f"as its field separator")
    opts = GenOptions(include_base=args.include_base,
                      strict_multi=args.strict_multi, dedup=not args.no_dedup)
    stream = generate(wl, rs, opts)
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_open_out(args.output))
        prov = None
        if args.provenance:
            prov = stack.enter_context(open(args.provenance, "w", encoding="utf-8"))
        for rec in stream:
            out.write(rec.candidate + "\n")
            if prov is not None:
                prov.write(f"{rec.candidate}\t{rec.base_word}\t{rec.rule_id}\n")
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(stream.stats.to_dict(), indent=2) + "\n", encoding="utf-8")
    stats = stream.stats
    print(f"emitted {stats.emitted} candidates "
          f"({stats.suppressed_duplicates} duplicates suppressed)", file=sys.stderr)
    return EXIT_OK


def cmd_crack(args) -> int:
    if args.rules == "none" and args.patterns_only:
        print("leetforge crack: --patterns-only needs rules to mangle with "
              "(-r none tries only the base words)", file=sys.stderr)
        return EXIT_USAGE
    store = load_hashes(Path(args.hashes).read_bytes(), args.algorithm)
    wl = load_wordlist_files(args.wordlist)
    if args.rules == "none":
        candidates = base_candidates(wl)
    else:
        rs = _load_rules(args.rules)
        opts = GenOptions(include_base=not args.patterns_only,
                          strict_multi=args.strict_multi, dedup=not args.no_dedup)
        candidates = generate(wl, rs, opts)
    result = crack(store, candidates, algorithm=args.algorithm)
    if args.potfile:
        Path(args.potfile).write_text(format_potfile(store), encoding="utf-8")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for m in result.matches:
            sys.stdout.write(f"{m.digest.hex()}:{m.plaintext}\n")
    print(f"attempted {result.attempted}, recovered {result.recovered_new} "
          f"of {store.unique_count} unique digests "
          f"({result.throughput:,.0f} candidates/s)", file=sys.stderr)
    return EXIT_OK


def _stdin_passwords() -> Iterator[str]:
    """Passwords from stdin, one per line, as the lines arrive.

    Each read takes what the pipe holds; its complete lines are decoded
    together (see read_lines) before the first of them is yielded, so a bad
    byte stops the run before any line that arrived with it is audited.
    """
    stream = sys.stdin.buffer
    pending = bytearray()
    first_line = 1
    while True:
        chunk = stream.read1()
        pending += chunk
        if chunk:
            newline = chunk.rfind(b"\n")
            if newline < 0:
                continue
            cut = len(pending) - len(chunk) + newline + 1
        else:
            cut = len(pending)   # the stream ended: the rest is the last line
        piece = bytes(pending[:cut])
        del pending[:cut]
        for line in read_lines("stdin", piece, first_line):
            if line.strip():
                yield line.rstrip("\r")
        first_line += piece.count(b"\n")
        if not chunk:
            return


def cmd_detect(args) -> int:
    rs = _load_rules(args.rules)
    dictionary = load_wordlist_files([args.dict])
    passwords = itertools.chain(args.password or [], _stdin_passwords() if args.stdin else [])
    audited = 0
    for pw in passwords:
        sys.stdout.write(json.dumps(audit(pw, rs, dictionary).to_dict()) + "\n")
        sys.stdout.flush()
        audited += 1
    if not audited:
        print("leetforge detect: no passwords given "
              "(use --password or --stdin)", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_bench(args) -> int:
    wl = load_wordlist_files(args.wordlist)
    rs = _load_rules(args.rules)
    report = run_benchmark(
        wl, Path(args.hashes).read_bytes(), rs,
        GenOptions(strict_multi=args.strict_multi, dedup=not args.no_dedup),
        patterns_only=args.patterns_only, algorithm=args.algorithm,
        ruleset_name=args.rules, potfile_path=args.potfile)
    doc = json.dumps(report.to_dict(), indent=2)
    print(doc)
    if args.json:
        Path(args.json).write_text(doc + "\n", encoding="utf-8")
    if args.table:
        sys.stderr.write(format_report_table(report))
    return EXIT_OK


def cmd_export_rules(args) -> int:
    rs = _load_rules(args.rules)
    sys.stdout.write(serialize_rules(rs) if args.format == "native" else export_hashcat(rs))
    return EXIT_OK


def cmd_stats(args) -> int:
    wl = load_wordlist_files(args.wordlist)
    raw_total = sum(count for _, count in wl.sources)
    if args.json:
        print(json.dumps({
            "sources": [{"name": n, "words": c} for n, c in wl.sources],
            "raw_total": raw_total,
            "unique_words": len(wl),
        }, indent=2))
        return EXIT_OK
    rows = [(name, f"{count:,}") for name, count in wl.sources]
    rows.append(("total (raw)", f"{raw_total:,}"))
    rows.append(("unique", f"{len(wl):,}"))
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"{name:<{width}}  {count}")
    return EXIT_OK


def _add_wordlist_arg(p):
    p.add_argument("-w", "--wordlist", action="append", metavar="FILE", required=True,
                   help="wordlist file, one word per line (repeatable)")


def _add_rules_arg(p, also: str = ""):
    p.add_argument("-r", "--rules", default="builtin", metavar="FILE",
                   help=f"rule file, or 'builtin' for the canonical set (default){also}")


def _add_algorithm_arg(p):
    p.add_argument("-a", "--algorithm", choices=sorted(ALGORITHMS), default="md5",
                   help="digest algorithm (default md5)")


def _add_gen_toggles(p):
    p.add_argument("--strict-multi", action="store_true",
                   help="multi-pair rules require every source char present")
    p.add_argument("--no-dedup", action="store_true", help="keep duplicate candidates")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="leetforge",
                             description="wordlist mangling, hash recovery and "
                                         "leet-pattern auditing")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen", help="generate mangled candidates")
    _add_wordlist_arg(p)
    _add_rules_arg(p)
    p.add_argument("--include-base", action="store_true",
                   help="emit the unmangled words ahead of the mangles")
    _add_gen_toggles(p)
    p.add_argument("-o", "--output", metavar="FILE", help="write candidates here (default stdout)")
    p.add_argument("--provenance", metavar="FILE",
                   help="also write candidate/base/rule-id TSV here")
    p.add_argument("--stats-json", metavar="FILE", help="write generation stats JSON here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("crack", help="match candidates against a digest list")
    p.add_argument("--hashes", required=True, metavar="FILE",
                   help="digest file, one hex digest per line")
    _add_wordlist_arg(p)
    _add_rules_arg(p, also="; 'none' tries the base words only")
    p.add_argument("--patterns-only", action="store_true",
                   help="try only the mangles, not the base words")
    _add_gen_toggles(p)
    _add_algorithm_arg(p)
    p.add_argument("--potfile", metavar="FILE", help="write recovered digest:plaintext lines here")
    p.add_argument("--json", action="store_true", help="print a JSON summary instead of matches")
    p.set_defaults(func=cmd_crack)

    p = sub.add_parser("detect", help="audit passwords for mangling patterns")
    p.add_argument("-p", "--password", action="append", metavar="PW",
                   help="password to audit (repeatable)")
    p.add_argument("--stdin", action="store_true", help="read passwords from stdin")
    p.add_argument("--dict", required=True, metavar="FILE", help="dictionary wordlist")
    _add_rules_arg(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="baseline vs pattern recovery benchmark")
    _add_wordlist_arg(p)
    p.add_argument("--hashes", required=True, metavar="FILE",
                   help="digest file, one hex digest per line")
    _add_rules_arg(p)
    p.add_argument("--patterns-only", action="store_true",
                   help="pattern phase tries only the mangles")
    _add_gen_toggles(p)
    _add_algorithm_arg(p)
    p.add_argument("--json", metavar="FILE", help="also write the JSON report here")
    p.add_argument("--potfile", metavar="FILE",
                   help="write the pattern phase's recoveries here")
    p.add_argument("--table", action="store_true",
                   help="also print an aligned summary table to stderr")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-rules", help="print rules in an external format")
    _add_rules_arg(p)
    p.add_argument("--format", choices=("hashcat", "native"), default="hashcat",
                   help="output syntax (default hashcat)")
    p.set_defaults(func=cmd_export_rules)

    p = sub.add_parser("stats", help="per-source wordlist counts")
    _add_wordlist_arg(p)
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits: 0 for --help/--version, 1 for usage
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): the output is over, the run is not
        # at fault. Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (InputFormatError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LeetforgeError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"{parser.prog}: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
