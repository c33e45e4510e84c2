"""The argument parser keeps its recorded surface.

``data/cli_parser.json`` maps every parser (the program, each command group
and each subcommand) to its ``--help`` text at 80 columns and, for each
subcommand, to its handler and to every option: flags, dest, default, type,
choices, required, nargs and help.  A type is recorded by what it does to a
few probe strings, so a refactor may rename it but not change it.
"""

import argparse
import json
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


def surface():
    """Every parser by its command path, with its help text and options."""
    out = {}
    pending = [("schubert-kit", cli.build_parser())]
    while pending:
        path, parser = pending.pop(0)
        children = _subparsers(parser)
        entry = {"help": parser.format_help()}
        if not children:
            entry["handler"] = parser.get_default("func").__name__
            entry["options"] = [_option(a) for a in parser._actions]
        out[path] = entry
        pending.extend((f"{path} {name}", child) for name, child in children.items())
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
