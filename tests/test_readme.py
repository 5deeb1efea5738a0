"""The README's examples run as printed: the Python quick start executes, and
every command in the command-line block that is followed by a commented
output line prints exactly that output."""

import re
import shlex
from pathlib import Path

import pytest

from sgcorona import complete_graph, unbalanced_c4, write_graph
from sgcorona.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the given Markdown heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    match = re.search(rf"^```{lang}\n(.*?)^```$", section, re.S | re.M)
    return match.group(1)


def documented_outputs() -> list[tuple[str, str]]:
    """(command, output) for each `sgcorona` line followed by `#   output`."""
    lines = fenced_block("## Command line", "sh").splitlines()
    return [
        (cmd, out[1:].strip())
        for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("sgcorona ") and out.startswith("#")
    ]


def test_quick_start_runs():
    exec(compile(fenced_block("## Library quick start", "python"), "README.md", "exec"), {})


def test_documented_commands_are_the_expected_ones():
    assert [cmd for cmd, _ in documented_outputs()] == [
        "sgcorona spectrum c4minus.sg --kind adj",
        "sgcorona charpoly c4minus.sg --kind adj",
        "sgcorona verify --theorem 2.3 --trials 100 --seed 7",
    ]


@pytest.mark.parametrize(
    "cmd, expected", documented_outputs(), ids=[cmd.split()[1] for cmd, _ in documented_outputs()]
)
def test_documented_output(cmd, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_graph(unbalanced_c4(), "c4minus.sg")
    write_graph(complete_graph(2), "k2plus.sg")
    assert main(shlex.split(cmd)[1:]) == 0
    assert capsys.readouterr().out.strip() == expected
