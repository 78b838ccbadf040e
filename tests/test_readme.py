"""README.md's examples work as written: each leetforge command line in its
sh blocks parses, and the Library example runs."""

from __future__ import annotations

import argparse
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from leetforge import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def _commands():
    """(line, argv after leetforge) for each leetforge command in the sh blocks;
    a pipe or redirection ends the command."""
    found = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            tokens = list(shlex.shlex(line, posix=True, punctuation_chars=True))
            if "leetforge" not in tokens:
                continue
            argv = []
            for token in tokens[tokens.index("leetforge") + 1:]:
                if not token.strip("|&;<>()"):
                    break
                argv.append(token)
            found.append((line, argv))
    return found


COMMANDS = _commands()


def _parser():
    """cli's parser with abbreviations off, so a README flag must be spelled in full."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
    return parser


def test_readme_shows_every_command():
    assert {argv[0] for _, argv in COMMANDS} == {
        "gen", "crack", "detect", "bench", "export-rules", "stats"}


@pytest.mark.parametrize("line, argv", COMMANDS, ids=[line for line, _ in COMMANDS])
def test_readme_command_parses(line, argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")
    assert args.command == argv[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The example, run from a directory holding dump.txt, prints the two
    mangles it recovers and the audit of p@ssw0rd."""
    (example,) = _blocks("python")
    digests = {w: hashlib.md5(w.encode()).hexdigest() for w in ("p@ssw0rd", "dr@gon", "nope")}
    (tmp_path / "dump.txt").write_text("".join(d + "\n" for d in digests.values()))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{digests['p@ssw0rd']} p@ssw0rd password D1",
                       f"{digests['dr@gon']} dr@gon dragon S5"]
    assert out[2:] == [str({"password": "p@ssw0rd",
                            "findings": [{"base_word": "password", "rule_id": r}
                                         for r in ("D1", "T1", "T2", "T3")],
                            "is_pattern_based": True})]
