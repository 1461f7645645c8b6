"""Byte-for-byte CLI transcripts of every subcommand, checked against the schema.

``golden.json`` maps each command line to its exact stdout, each in text and in
``--json``: ``levi``, ``valpha`` and ``branch`` at every node of every table type
up to rank 8; tables 2-5 at ``--max-rank 16``; ``cartan``, ``icartan`` and
``roots`` of every table type up to rank 8; ``invariants`` of every table type
up to rank 12; ``dim``, ``dual`` and ``minorbit`` at every fundamental weight
and one mixed weight of every table type up to rank 8; and ``grade`` at every
node of those types, plain and ``--mod 3``.  Every ``--json`` transcript must
validate against ``schema/report.json``.  Regenerate the file only for an
intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from minorb import table_types
from minorb.cli import _COMMANDS, _build_parser, main

GOLDEN = Path(__file__).with_name("golden.json")
SCHEMA = Path(__file__).parents[1] / "schema" / "report.json"


def _weights(n: int) -> list[str]:
    """Every fundamental weight, then one mixed weight (coordinate k is k mod 3)."""
    fundamental = [
        ",".join(str(int(k == i)) for k in range(1, n + 1)) for i in range(1, n + 1)
    ]
    mixed = ",".join(str(k % 3) for k in range(1, n + 1))
    return fundamental + ([mixed] if mixed not in fundamental else [])


def command_lines() -> list[str]:
    base = [
        f"{cmd} {typ} {node}"
        for typ in table_types(8)
        for cmd in ("levi", "valpha", "branch")
        for node in range(1, typ.rank + 1)
    ]
    base += [f"table {n} --max-rank 16" for n in (2, 3, 4, 5)]
    base += [
        f"{cmd} {typ}"
        for typ in table_types(8)
        for cmd in ("cartan", "icartan", "roots")
    ]
    base += [f"invariants {typ}" for typ in table_types(12)]
    for typ in table_types(8):
        base += [
            f"{cmd} {typ} {w}"
            for w in _weights(typ.rank)
            for cmd in ("dim", "dual", "minorbit")
        ]
        base += [
            f"grade {typ} {node}{mod}"
            for node in range(1, typ.rank + 1)
            for mod in ("", " --mod 3")
        ]
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


def test_golden_json_matches_schema(golden):
    validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
    documents = {
        line: json.loads(out)
        for line, out in golden.items()
        if line.endswith(" --json")
    }
    assert len(documents) == len(golden) // 2
    errors = [
        f"{line}: {err.message}"
        for line, doc in documents.items()
        for err in validator.iter_errors(doc)
    ]
    assert errors == []


def rejected_in_payload(validator, doc) -> bool:
    """Whether doc fails the schema, and only inside its payload."""
    errors = list(validator.iter_errors(doc))
    return bool(errors) and all(list(err.absolute_path)[:1] == ["payload"] for err in errors)


def test_schema_checks_invariants_payload(golden):
    """The invariants payload is checked member by member, not only as an object."""
    validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
    good = golden["invariants E7 --json"]
    edits = [
        lambda p: p["r"]["witness"].update(unipotent_support=None),
        lambda p: p["d"]["witness"].pop("unipotent_support"),
        lambda p: p["d"]["witness"].update(reductive_factors=["B5"]),
        lambda p: p["d"]["certificates"][0].pop("detail"),
        lambda p: p["m"].pop("argmin"),
        lambda p: p.update(extra=0),
    ]
    for k, edit in enumerate(edits):
        doc = json.loads(good)
        edit(doc["payload"])
        assert rejected_in_payload(validator, doc), k


SCHEMA_EDITS = {
    "levi E8 7 --json": [
        lambda p: p.pop("dim_u"),
        lambda p: p.update(dim_levi="80"),
        lambda p: p["components"][0].update(rank=6),
        lambda p: p["components"][1].pop("nodes"),
        lambda p: p["kept"].append(0),
        lambda p: p.update(extra=0),
    ],
    "branch E8 7 --json": [
        lambda p: p.pop("max_grade"),
        lambda p: p["grades"][1].update(dims=[54]),
        lambda p: p["grades"][1]["summands"][0].pop("torus"),
        lambda p: p["grades"][2]["summands"][0].update(nodes=[1]),
        lambda p: p["grades"][3].update(summands=[]),
        lambda p: p.update(extra=0),
    ],
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_schema_closes_every_payload(golden, command):
    """Every command's payload has a closed definition: a stray key fails it.

    Table rows are closed too, each by the definition of its table number.
    """
    validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
    line = next(line for line in golden if line.startswith(f"{command} ") and line.endswith(" --json"))
    doc = json.loads(golden[line])
    doc["payload"]["extra"] = 0
    assert rejected_in_payload(validator, doc), line
    if command == "table":
        for number in (2, 3, 4, 5):
            doc = json.loads(golden[f"table {number} --max-rank 16 --json"])
            doc["payload"]["rows"][0]["extra"] = 0
            assert rejected_in_payload(validator, doc), number


@pytest.mark.parametrize("line", SCHEMA_EDITS)
def test_schema_checks_levi_and_branch_payloads(golden, line):
    """The levi and branch payloads are checked member by member, summands and
    components included."""
    validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
    assert validator.is_valid(json.loads(golden[line]))
    for k, edit in enumerate(SCHEMA_EDITS[line]):
        doc = json.loads(golden[line])
        edit(doc["payload"])
        assert rejected_in_payload(validator, doc), k


def test_one_parser_serves_successive_calls(golden):
    """The parser is built once per process, and no call's options reach the next.

    The expected transcripts are the rank-16 goldens cut down to the rows of
    table_types(max_rank).
    """
    assert _build_parser() is _build_parser()
    for line, max_rank in [("table 2", 12), ("table 3 --max-rank 4", 4)] * 2:
        number = line.split()[1]
        names = {str(t) for t in table_types(max_rank)}
        full = golden[f"table {number} --max-rank 16"].splitlines(keepends=True)
        assert transcript(line) == "".join(
            row
            for row in full
            if row.startswith(("type\t", "#")) or row.split("\t")[0] in names
        )
        doc = json.loads(golden[f"table {number} --max-rank 16 --json"])
        payload = doc["payload"]
        payload["max_rank"] = max_rank
        payload["rows"] = [r for r in payload["rows"] if r["type"] in names]
        assert transcript(line + " --json") == json.dumps(doc) + "\n"


if __name__ == "__main__":
    golden = {line: transcript(line) for line in command_lines()}
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
