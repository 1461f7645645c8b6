"""Byte-for-byte CLI transcripts: every output that exposes a component labeling.

``golden.json`` maps each command line to its exact stdout: ``levi``, ``valpha``
and ``branch`` at every node of every table type up to rank 8, and tables 2-5
at ``--max-rank 16``, each in text and in ``--json``.  Regenerate it only for
an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from minorb import table_types
from minorb.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def command_lines() -> list[str]:
    base = [
        f"{cmd} {typ} {node}"
        for typ in table_types(8)
        for cmd in ("levi", "valpha", "branch")
        for node in range(1, typ.rank + 1)
    ]
    base += [f"table {n} --max-rank 16" for n in (2, 3, 4, 5)]
    return [line + flag for line in base for flag in ("", " --json")]


def transcript(line: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(line.split()) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command_line(golden):
    assert list(golden) == command_lines()


@pytest.mark.parametrize("line", command_lines())
def test_golden_transcript(golden, line):
    assert transcript(line) == golden[line]


if __name__ == "__main__":
    golden = {line: transcript(line) for line in command_lines()}
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
