"""The README's Quick start, run as written: its commands must print its output."""

import re
import shlex
from pathlib import Path

from vicount.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def _fenced_blocks(section: str) -> list[str]:
    return re.findall(r"^```[^\n]*\n(.*?)^```$", section, flags=re.M | re.S)


def test_quick_start_prints_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    commands, expected = _fenced_blocks(_section("Quick start"))[:2]
    monkeypatch.chdir(tmp_path)
    for command in commands.replace("\\\n", " ").splitlines():
        argv = shlex.split(command)
        assert argv[0] == "vicount"
        assert main(argv[1:]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == expected
