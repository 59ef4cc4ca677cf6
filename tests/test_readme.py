"""The README's Python examples and CLI commands run against the installed package."""

import re
import shlex
from pathlib import Path

import pytest

from su2qpt import cli

README = Path(__file__).resolve().parents[1] / "README.md"
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
BLOCKS = [body for lang, body in FENCES if lang == "python"]
# validate is left to TestValidate in test_cli.py: a second run here would
# only add exposure to its checks' time budgets
COMMANDS = [
    line
    for lang, body in FENCES
    if not lang
    for line in body.splitlines()
    if line.startswith("su2qpt ") and not line.startswith("su2qpt validate")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    # one example writes a file, so each runs in a directory of its own
    monkeypatch.chdir(tmp_path)
    rc = cli.main(shlex.split(line, comments=True)[1:])
    err = capsys.readouterr().err
    # a successful run writes nothing to stderr
    assert (rc, err) == (0, "")
