"""The README run as written: its Quick start commands must print its output, its
Library use block must run, its command reference must name every flag of each
subcommand and no other, its flag table must map each config-backed flag to the
field the parser stores it in, and it must name every name the package exports."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import vicount
from vicount import LossConfig, McpConfig, SimConfig
from vicount.cli import build_parser, main

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


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _fenced_blocks(_section("Library use")) if "import" in b]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert "predicted" in capsys.readouterr().out


def test_command_reference_documents_exactly_the_parser_flags():
    reference = _section("Command line reference")
    documented = {
        title: set(re.findall(r"--[a-z][a-z-]*", body))
        for title, body in re.findall(r"^### (\w+)\n(.*?)(?=^### |\Z)", reference, flags=re.M | re.S)
    }
    parser = build_parser()
    (parsers,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, sub in parsers.items()
    }
    assert documented == defined


_CONFIGS = {"simulate": SimConfig, "count": McpConfig, "loss": LossConfig,
            "gradcheck": LossConfig, "pseudo": LossConfig}
# cli.py passes these two dests to SimConfig as the one pair scene_size
_PAIRED = {"scene_width": "scene_size", "scene_height": "scene_size"}


def test_flag_table_maps_each_config_backed_flag_to_its_dest():
    rows = re.findall(r"^\| `(--[a-z-]+)` \| `(\w+\.\w+)` \| ([a-z, ]+) \|$",
                      _section("Command line reference"), flags=re.M)
    documented = {flag: (field, set(commands.split(", "))) for flag, field, commands in rows}
    assert len(documented) == len(rows)
    parser = build_parser()
    (parsers,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {}
    for name, cls in _CONFIGS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for action in parsers[name]._actions:
            field = _PAIRED.get(action.dest, action.dest)
            if field in fields:
                (flag,) = action.option_strings
                defined.setdefault(flag, (f"{cls.__name__}.{field}", set()))[1].add(name)
    assert documented == defined
    every_field = {f"{cls.__name__}.{f.name}" for cls in _CONFIGS.values()
                   for f in dataclasses.fields(cls)}
    assert {field for field, _ in documented.values()} == every_field


def test_every_exported_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    (code,) = [b for b in _fenced_blocks(_section("Library use")) if "import" in b]
    missing = [name for name in vicount.__all__
               if not re.search(rf"`{name}\b", text) and not re.search(rf"\b{name}\b", code)]
    assert missing == []
