"""The README's examples run as written: its ``python`` block prints the
counts it promises, and every ``ptgram`` command line exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from ptgram.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
COMMANDS = [
    shlex.split(line.split("#")[0])[1:]
    for _, body in BLOCKS
    for line in body.splitlines()
    if line.startswith("ptgram ")
]


def test_python_block_prints_counts(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(11, 11)\n"


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    assert len(COMMANDS) == 5
    monkeypatch.chdir(tmp_path)
    # the commands that write a file run first, so later ones can read it
    for argv in sorted(COMMANDS, key=lambda argv: "--output" not in argv):
        assert main(argv) == 0, " ".join(argv)
    capsys.readouterr()


def test_timing_keys_are_listed_in_stage_order():
    from ptgram import full_verification, two_level

    keys = list(full_verification(*two_level(1.0, 2.0)).timings)
    listed = README[README.index("The `timings` keys"):]
    positions = [listed.index(f"`{key}`") for key in keys]
    assert positions == sorted(positions)
