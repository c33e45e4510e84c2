"""The argument parser keeps its recorded surface.

``data/cli_parser.json`` maps every parser (the program, each command group
and each subcommand) to its ``--help`` text at 80 columns and, for each
subcommand, to its handler and to every option: flags, dest, default, type,
choices, required, nargs and help.  A type is recorded by what it does to a
few probe strings, so a refactor may rename it but not change it.
"""

import argparse
import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from schubert_kit import cli

SURFACE = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_parser.json").read_text(encoding="utf-8"))
PROBES = ("-1", "0", "1", "x")


def _probe(kind):
    if kind is None:
        return None
    out = []
    for text in PROBES:
        try:
            out.append(kind(text))
        except (ValueError, argparse.ArgumentTypeError):
            out.append("rejected")
    return out


def _option(action):
    return {
        "action": type(action).__name__,
        "flags": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": _probe(action.type),
        "choices": action.choices,
        "required": action.required,
        "nargs": action.nargs,
        "help": action.help,
    }


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _entry(parser):
    entry = {"help": parser.format_help()}
    if not _subparsers(parser):
        entry["handler"] = parser.get_default("func").__name__
        entry["options"] = [_option(a) for a in parser._actions]
    return entry


def surface():
    """Every parser by its command path, with its help text and options."""
    out = {}
    pending = [("schubert-kit", cli.build_parser())]
    while pending:
        path, parser = pending.pop(0)
        out[path] = _entry(parser)
        pending.extend((f"{path} {name}", child) for name, child in _subparsers(parser).items())
    return out


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_surface_covers_every_command(columns_80):
    assert list(surface()) == list(SURFACE)
    assert sum("handler" in entry for entry in SURFACE.values()) == 14


@pytest.mark.parametrize("path", list(SURFACE))
def test_parser_surface(path, columns_80):
    assert surface()[path] == SURFACE[path]
    # the tree built for a command line naming the path holds the recorded
    # parser at every step along it
    words = path.split()[1:]
    parser = cli.build_parser(words)
    for depth in range(len(words) + 1):
        if depth:
            parser = _subparsers(parser)[words[depth - 1]]
        assert _entry(parser) == SURFACE[" ".join(["schubert-kit", *words[:depth]])]


# -- the tree built for one command line parses it as the whole tree does ----

FUZZ_SEED = 20261020
# the first two words come from small pools, so the fuzz builds few trees
NOT_GROUPS = ("rank", "--format", "-p", "--")
NOT_COMMANDS = ("table", "-h", "--format", "-a", "--", "x")
OPTION_WORDS = (
    "--gcm", "--gcm-file", "-a", "-b", "-p", "-N", "-S", "--max-len", "--max-deg",
    "--u", "--v", "--word", "--class", "--ring", "--poly", "--field", "--realization",
    "--format", "--output", "--selftest", "-h", "--", "--ma", "--max",
    "--for", "--sel", "--gcm-f", "--rea", "--out", "--fi", "--w", "--cl", "--format=csv",
    "-N5", "--x",
)
VALUE_WORDS = ("1", "-1", "3", "csv", "json", "derived", "x", "2,-1;-1,2", "weyl", "rank2",
               "check", "enum", "act", "psi", "table", "hk")


def random_command_line(rng):
    """Mostly a group and one of its commands, then options and values of any
    command; sometimes a word out of place before the group or the command."""
    words = [rng.choice(list(cli.COMMANDS) if rng.random() < 0.8 else NOT_GROUPS)]
    if rng.random() < 0.05:
        return words
    commands = list(cli.COMMANDS.get(words[0], ("", {}))[1])
    if commands and rng.random() < 0.15:
        words.append(rng.choice(NOT_COMMANDS))
    words.append(rng.choice(commands) if commands and rng.random() < 0.8
                 else rng.choice(NOT_COMMANDS))
    for _ in range(rng.randint(0, 3)):
        words.append(rng.choice(OPTION_WORDS))
        if rng.random() < 0.7:
            words.append(rng.choice(VALUE_WORDS))
    return words


def _parse(parser, argv):
    """The Namespace, or what the parser printed and the code it exited with."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def test_command_line_parser_parses_as_the_whole_tree(columns_80):
    # build_parser reads only the first two words of a command line, so one
    # tree per distinct pair serves every command line that starts with it.
    # Pruning whenever the first word is a group, whatever the second, fails
    # 41 of these lines: "rank2 -a table -N 3" then rejects "-N 3" as well.
    whole = cli.build_parser()
    built = {}
    rng = random.Random(FUZZ_SEED)
    outcomes = set()
    for _ in range(2000):
        argv = random_command_line(rng)
        key = tuple(argv[:2])
        if key not in built:
            built[key] = cli.build_parser(argv)
        want = _parse(whole, argv)
        assert _parse(built[key], argv) == want, argv
        outcomes.add("parsed" if isinstance(want, dict) else want[0])
    assert outcomes == {"parsed", 0, 2}
