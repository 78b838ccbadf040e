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
from .cracker import ALGORITHMS, crack, format_potfile, load_hashes
from .detector import audit
from .errors import InputFormatError, LeetforgeError
from .generator import generate
from .rules import RuleSet, builtin_rules, export_hashcat, parse_rules, serialize_rules

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit 1, leaving 2 for bad input data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -r values that name no file; a rule file called none is given as ./none
RESERVED_RULES = ("builtin", "none")


def _load_rules(source: str) -> RuleSet:
    if source not in RESERVED_RULES:
        return parse_rules(Path(source).read_bytes())
    return builtin_rules() if source == "builtin" else RuleSet(())


class _Refused(Exception):
    """A run refused before any input is read; main() prints
    `leetforge COMMAND: MESSAGE` on stderr and exits 1."""


def _file_key(path: str) -> tuple[int, int] | str:
    """(device, inode) of a path that exists, so a hard link matches its
    target; the real path of one that does not exist yet."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(args, *outputs: tuple[str, str | None]) -> None:
    """Refuse the first (flag, path) output that is empty, is a directory,
    is in a directory that does not exist, or is one file with an input
    (--hashes, a -w, a -r file) or with an earlier output. None is an
    output not asked for.

    An empty path (an unset shell variable) would be skipped as if not
    given, a directory or a missing one would fail the write only after all
    the work, writing an input would replace it, and two handles writing one
    file would tear its lines.
    """
    inputs = [("--hashes", getattr(args, "hashes", None))]
    inputs += [("-w", path) for path in args.wordlist]
    if args.rules not in RESERVED_RULES:
        inputs.append(("-r", args.rules))
    flags = {_file_key(path): flag for flag, path in inputs if path}
    for flag, path in outputs:
        if path == "":
            raise _Refused(f"{flag}: the path is empty")
        if path:
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise _Refused(f"{flag} {path}: directory {folder} does not exist")
            if os.path.isdir(path):
                raise _Refused(f"{flag} {path} is a directory")
            same = flags.setdefault(_file_key(path), flag)
            if same != flag:
                raise _Refused(f"{same} and {flag} name the same file; give each its own path")


# gen writes its records in batches of this many: one write per file per
# batch instead of one per record. On perfbench gen-provenance, 1,024 wrote
# fastest of the sizes tried; 256 gained less, and 4,096 gained less still
# while its larger lists raised peak RSS by 4%.
_WRITE_BATCH = 1024


def cmd_gen(args) -> int:
    output = None if args.output == "-" else args.output
    _check_outputs(args, ("-o", output), ("--provenance", args.provenance),
                   ("--stats-json", args.stats_json))
    wl = load_wordlist_files(args.wordlist)
    rs = _load_rules(args.rules)
    # checked before any output is opened, so a refused run leaves no files;
    # one scan of the joined words runs ~3x faster than a test per word, and
    # only a list that holds a TAB is searched for the word to name
    if args.provenance and "\t" in "".join(wl.words):
        word = next(word for word in wl.words if "\t" in word)
        raise InputFormatError(
            f"word {word!r} contains a TAB, which --provenance uses as its field separator")
    stream = generate(wl, rs, include_base=args.include_base,
                      strict_multi=args.strict_multi, dedup=not args.no_dedup)
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(output, "w", encoding="utf-8")) if output else sys.stdout
        prov = None
        if args.provenance:
            prov = stack.enter_context(open(args.provenance, "w", encoding="utf-8"))
        records = iter(stream)
        for batch in iter(lambda: list(itertools.islice(records, _WRITE_BATCH)), []):
            texts = [cand.decode("utf-8", "surrogatepass") for cand, _, _ in batch]
            out.write("\n".join(texts) + "\n")
            if prov is not None:
                prov.write("".join([f"{text}\t{base}\t{rule_id}\n"
                                    for text, (_, base, rule_id) in zip(texts, batch)]))
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(stream.stats.to_dict(), indent=2) + "\n", encoding="utf-8")
    stats = stream.stats
    print(f"emitted {stats.emitted} candidates "
          f"({stats.suppressed_duplicates} duplicates suppressed)", file=sys.stderr)
    return EXIT_OK


def _crack_rules(args) -> RuleSet:
    """The -r rules of crack or bench, refusing --patterns-only with none to mangle with."""
    rs = _load_rules(args.rules)
    if args.patterns_only and not rs:
        raise _Refused(f"--patterns-only needs rules to mangle with (-r {args.rules} gives none)")
    return rs


def cmd_crack(args) -> int:
    _check_outputs(args, ("--potfile", args.potfile))
    rs = _crack_rules(args)
    store = load_hashes(Path(args.hashes).read_bytes(), args.algorithm)
    wl = load_wordlist_files(args.wordlist)
    result = crack(store, generate(wl, rs, include_base=not args.patterns_only,
                                   strict_multi=args.strict_multi, dedup=not args.no_dedup))
    recoveries = format_potfile(store)
    try:  # potfile first: a reader that closed stdout early must not cost the file
        if args.potfile:
            Path(args.potfile).write_text(recoveries, encoding="utf-8")
    finally:  # and a failed write must not cost stdout the recoveries
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            sys.stdout.write(recoveries)
    print(f"attempted {result.attempted}, recovered {result.recovered_new} "
          f"of {store.unique_count} unique digests "
          f"({result.throughput:,.0f} candidates/s)", file=sys.stderr)
    return EXIT_OK


def _stdin_passwords() -> Iterator[str]:
    """Passwords from stdin, one per line, each yielded as soon as its line
    arrives. Lines are decoded one by one (see read_lines), so a bad byte
    stops the run after every line before it has been audited."""
    for lineno, raw in enumerate(sys.stdin.buffer, 1):
        line = read_lines("stdin", raw, lineno)[0].rstrip("\r")
        if line.strip():
            yield line


def cmd_detect(args) -> int:
    if not (args.password or args.stdin):
        raise _Refused("no passwords given (use --password or --stdin)")
    rs = _load_rules(args.rules)
    dictionary = load_wordlist_files([args.dict])
    for pw in itertools.chain(args.password or [], _stdin_passwords() if args.stdin else []):
        sys.stdout.write(json.dumps(audit(pw, rs, dictionary).to_dict()) + "\n")
        sys.stdout.flush()
    return EXIT_OK


def cmd_bench(args) -> int:
    _check_outputs(args, ("--json", args.json), ("--potfile", args.potfile))
    rs = _crack_rules(args)
    wl = load_wordlist_files(args.wordlist)
    report = run_benchmark(
        wl, Path(args.hashes).read_bytes(), rs, patterns_only=args.patterns_only,
        strict_multi=args.strict_multi, dedup=not args.no_dedup, algorithm=args.algorithm,
        ruleset_name=args.rules)
    doc = json.dumps(report.to_dict(), indent=2)
    try:  # files first: a reader that closed stdout early must not cost them
        if args.potfile:
            Path(args.potfile).write_text(format_potfile(report.pattern_store),
                                          encoding="utf-8")
        if args.json:
            Path(args.json).write_text(doc + "\n", encoding="utf-8")
    finally:  # and a failed write must not cost stdout the report
        print(doc)
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


def _add_rules_arg(p):
    p.add_argument("-r", "--rules", default="builtin", metavar="FILE",
                   help="rule file, 'builtin' for the canonical set (default) or "
                        "'none' for no rules; ./none names a file called none")


def _add_gen_toggles(p):
    p.add_argument("--strict-multi", action="store_true",
                   help="multi-pair rules require every source char present")
    p.add_argument("--no-dedup", action="store_true", help="keep duplicate candidates")


def _add_crack_args(p):
    """The inputs crack and bench share."""
    p.add_argument("--hashes", required=True, metavar="FILE",
                   help="digest file, one hex digest per line")
    _add_wordlist_arg(p)
    _add_rules_arg(p)
    p.add_argument("--patterns-only", action="store_true",
                   help="try only the mangles, not the base words")
    _add_gen_toggles(p)
    p.add_argument("-a", "--algorithm", choices=sorted(ALGORITHMS), default="md5",
                   help="digest algorithm (default md5)")
    p.add_argument("--potfile", metavar="FILE", help="write recovered digest:plaintext lines here")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="leetforge",
                             description="wordlist mangling, hash recovery and "
                                         "leet-pattern auditing")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

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
    _add_crack_args(p)
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
    _add_crack_args(p)
    p.add_argument("--json", metavar="FILE", help="also write the JSON report here")
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
    try:
        try:
            code = args.func(args)
        except BrokenPipeError as exc:
            # The reader went away (e.g. `| head`): the output is over, the run is not
            # at fault. Unless stdout broke on the way out of an error, as when crack
            # prints its recoveries after a failed potfile write: report that error.
            if exc.__context__ is not None:
                raise exc.__context__
            code = EXIT_OK
    except _Refused as exc:
        print(f"{parser.prog} {args.command}: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except (InputFormatError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except LeetforgeError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    except Exception as exc:
        print(f"{parser.prog}: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    try:
        sys.stdout.flush()  # a reader that closed early surfaces here, not at exit
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def run() -> None:
    # every input is read as UTF-8, so data goes out as UTF-8 whatever the locale
    sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    run()
