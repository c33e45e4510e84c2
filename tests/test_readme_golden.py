"""The command-line examples of the README print exactly the recorded bytes.

``data/readme_cli.json`` maps each example, as written in the README's
"Command line" block (continuation lines joined), to its standard output.
``data/readme_cli_formats.json`` maps the same examples to their output with
``--format csv`` and with ``--format json``.  Refactors must leave every
byte of both unchanged.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from schubert_kit import cli

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "data" / "readme_cli.json").read_text(encoding="utf-8"))
FORMATS = json.loads((HERE / "data" / "readme_cli_formats.json").read_text(encoding="utf-8"))


def readme_commands():
    text = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = re.sub(r"\s*\\\n\s*", " ", block)
    return [line.strip() for line in joined.splitlines() if line.strip()]


def test_golden_covers_every_readme_example():
    assert list(GOLDEN) == readme_commands()
    assert list(FORMATS) == readme_commands()


@pytest.mark.parametrize("command", list(GOLDEN),
                         ids=[f"example{k:02d}" for k in range(len(GOLDEN))])
def test_readme_example_stdout(command, capsys):
    argv = shlex.split(command)
    assert argv[0] == "schubert-kit"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out == GOLDEN[command]


@pytest.mark.parametrize("command", list(GOLDEN),
                         ids=[f"example{k:02d}" for k in range(len(GOLDEN))])
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(FORMATS),
                         ids=[f"example{k:02d}" for k in range(len(FORMATS))])
def test_readme_example_stdout_in_format(command, fmt, capsys):
    assert cli.main(shlex.split(command)[1:] + ["--format", fmt]) == 0
    assert capsys.readouterr().out == FORMATS[command][fmt]
