"""The command-line examples of the README print exactly the recorded bytes.

``data/readme_cli.json`` maps each example, as written in the README's
"Command line" block (continuation lines joined), to its standard output in
each format: ``table`` (the default), ``csv`` and ``json``.  Refactors must
leave every byte unchanged.  The README's "Library at a glance" block runs as
written, so the library example cannot rot either.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from schubert_kit import cli

from conftest import run_main

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "data" / "readme_cli.json").read_text(encoding="utf-8"))
EXAMPLE_IDS = [f"example{k:02d}" for k in range(len(GOLDEN))]
FORMATS = ("table", "csv", "json")
# every (example, format) pair; the table case keeps the bare example id
CASES = {(k if fmt == "table" else f"{k}-{fmt}"): (command, fmt)
         for k, command in zip(EXAMPLE_IDS, GOLDEN) for fmt in FORMATS}


def readme_block(heading, language):
    text = (HERE.parent / "README.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(f"```{language}", 1)[1].split("```", 1)[0]


def readme_commands():
    joined = re.sub(r"\s*\\\n\s*", " ", readme_block("## Command line", "sh"))
    return [line.strip() for line in joined.splitlines() if line.strip()]


def test_golden_covers_every_readme_example():
    assert list(GOLDEN) == readme_commands()
    assert all(tuple(outputs) == FORMATS for outputs in GOLDEN.values())


@pytest.mark.parametrize("command, fmt", CASES.values(), ids=CASES)
def test_readme_example_stdout(command, fmt, capsys):
    argv = shlex.split(command)
    assert argv[0] == "schubert-kit"
    argv = argv[1:] + ([] if fmt == "table" else ["--format", fmt])
    assert run_main(argv, capsys) == (0, GOLDEN[command][fmt], "")


@pytest.mark.parametrize("command", list(GOLDEN), ids=EXAMPLE_IDS)
def test_readme_example_handler_returns_its_table(command, capsys):
    # only main renders: a handler maps its arguments to a table and writes nothing
    args = cli.build_parser().parse_args(shlex.split(command)[1:])
    table = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(table, tuple) and len(table) in (4, 5)
    params, bounds, columns, rows, *extras = table
    assert isinstance(params, dict) and isinstance(bounds, dict)
    assert all(set(row) == set(columns) for row in rows)
    assert all(isinstance(extra, dict) for extra in extras)


def test_readme_library_example_runs():
    exec(compile(readme_block("## Library at a glance", "python"), "README.md", "exec"), {})
