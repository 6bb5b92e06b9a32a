"""The documentation names only what the package provides."""

import re
import shlex
from pathlib import Path

import pytest

from carmlab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_block(heading: str, language: str) -> str:
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_entry_points_import():
    exec(_fenced_block("## Library entry points", "python"), {})


def test_readme_command_line_examples_parse(capsys):
    # parsed only, never run
    for line in _fenced_block("## Command-line usage", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "carmlab", line
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"{line!r}: {capsys.readouterr().err}")
