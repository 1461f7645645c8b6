"""Command line behavior: golden outputs, JSON envelopes, exit codes."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from minorb import MAX_RANK, MAX_WEIGHT_ENTRY, dim_irrep, parse_type
from minorb.rootsys import MAX_QUOTED
from minorb.cli import _COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cartan_text(capsys):
    code, out, err = run(capsys, "cartan", "G2")
    assert code == 0 and err == ""
    assert out == " 2 -1\n-3  2\n"
    code, out, _ = run(capsys, "cartan", "A3")
    assert out == " 2 -1  0\n-1  2 -1\n 0 -1  2\n"


def test_icartan_text(capsys):
    code, out, _ = run(capsys, "icartan", "A3")
    assert code == 0
    assert out == "det 4\n3 2 1\n2 4 2\n1 2 3\n"


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "B2")
    assert out == "0 1\n1 0\n1 1\n1 2\n"


def test_dim_and_dual(capsys):
    assert run(capsys, "dim", "A2", "1,0") == (0, "3\n", "")
    assert run(capsys, "dim", "E8", "0,0,0,0,0,0,0,1")[1] == "248\n"
    code, out, _ = run(capsys, "dual", "D7", "0,0,0,0,0,1,0")
    assert out == "0,0,0,0,0,0,1\n"


def test_grade_text(capsys):
    code, out, _ = run(capsys, "grade", "E8", "7")
    assert out == (
        "E8 node 7 max_grade 3\n"
        "-3\t2\n-2\t27\n-1\t54\n0\t82\n1\t54\n2\t27\n3\t2\n"
    )


def test_grade_mod_text(capsys):
    code, out, _ = run(capsys, "grade", "E8", "7", "--mod", "29")
    assert out == (
        "E8 node 7 mod 29\n"
        "0\t82\n1\t54\n2\t27\n3\t2\n26\t2\n27\t27\n28\t54\n"
    )
    code, out, _ = run(capsys, "grade", "A2", "1", "--mod", "1")
    assert out == "A2 node 1 mod 1\n0\t8\n"


def test_branch_text(capsys):
    code, out, _ = run(capsys, "branch", "E8", "7")
    assert out == (
        "E8 node 7 max_grade 3\n"
        "0\t(0,1,0,0,0,0) (0)\t78\n"
        "0\t(0,0,0,0,0,0) (2)\t3\n"
        "0\t(0,0,0,0,0,0) (0)\t1\ttorus\n"
        "1\t(0,0,0,0,0,1) (1)\t54\n"
        "2\t(1,0,0,0,0,0) (0)\t27\n"
        "3\t(0,0,0,0,0,0) (1)\t2\n"
    )


def test_valpha_text(capsys):
    code, out, _ = run(capsys, "valpha", "E8", "1")
    assert out == (
        "E8 node 1\n"
        "levi: D7(8,7,6,5,4,3,2)\n"
        "lowest: (0,0,0,0,0,-1,0)\n"
        "highest: (0,0,0,0,0,0,1)\n"
        "dim: 64\n"
    )


def test_levi_text(capsys):
    code, out, _ = run(capsys, "levi", "E8", "7,8")
    assert out == (
        "E8 remove 7,8\n"
        "kept: 1,2,3,4,5,6\n"
        "component: E6(6,2,5,4,3,1)\n"
        "dim levi ss: 78\n"
        "dim levi: 80\n"
        "dim u: 84\n"
        "dim parabolic: 164\n"
    )


def test_minorbit_text(capsys):
    code, out, _ = run(capsys, "minorbit", "E6", "1,0,0,0,0,1")
    assert out == (
        "E6 weight (1,0,0,0,0,1)\n"
        "primitive: (1,0,0,0,0,1)\n"
        "multiplier: 1\n"
        "removed: 1,6\n"
        "dim orbit: 25\n"
        "dim module: 650\n"
        "smooth: no\n"
    )
    code, out, _ = run(capsys, "minorbit", "B2", "0,2")
    assert "primitive: (0,1)\nmultiplier: 2\n" in out
    assert out.endswith("smooth: no\n")


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "E7")
    assert out == (
        "E7 dim 133\n"
        "m: 28 (p 27, nodes 7)\n"
        "r: 54 (H = E6 x T1)\n"
        "d: 45 (witness B5 . U(1), dim 88)\n"
        "d = r: no\n"
        "certificates:\n"
        "  refined (1): (dim u + 1) + min(dim V(alpha_1), r(Levi))"
        " = 34 + min(32, 11)\n"
        "  refined (6): (dim u + 1) + min(dim V(alpha_6), r(Levi))"
        " = 43 + min(32, 2)\n"
        "  crude (1,7): dim u(S) + 2 = 43 + 2\n"
        "  crude (6,7): dim u(S) + 2 = 43 + 2\n"
        "smooth fundamentals: -\n"
    )


def test_table_rows(capsys):
    code, out, _ = run(capsys, "table", "2")
    lines = out.splitlines()
    assert lines[0] == "type\tdim\tm\td\tr\tH"
    assert "E8\t248\t58\t86\t112\tE7 x A1" in lines
    assert "A12\t168\t13\t24\t24\tA11 x T1" in lines
    assert "B12\t300\t24\t24\t24\tD12" in lines
    assert "C12\t300\t24\t44\t44\tC11 x A1" in lines
    assert "D12\t276\t23\t23\t23\tB11" in lines
    assert len([l for l in lines if not l.startswith(("#", "type"))]) == 47
    code, out, _ = run(capsys, "table", "3", "--max-rank", "4")
    assert "D4\t7\t6\t1,3,4\t8,8,8" in out.splitlines()
    assert "F4\t16\t15\t1,4\t52,26" in out.splitlines()
    code, out, _ = run(capsys, "table", "4", "--max-rank", "2")
    assert "G2\t6\tA2\t8" in out.splitlines()
    code, out, _ = run(capsys, "table", "5", "--max-rank", "2")
    assert "E7\t45\tB5 . U(1)\t88" in out.splitlines()
    assert "E8\t86\tE6 . U(7,8)\t162" in out.splitlines()


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "cartan", "G2", "--json")
    doc = json.loads(out)
    assert doc["format"] == "minorb/1"
    assert doc["command"] == "cartan"
    assert doc["type"] == "G2"
    assert doc["payload"]["matrix"] == [[2, -1], [-3, 2]]


def test_json_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "E8", "--json")
    payload = json.loads(out)["payload"]
    assert payload["m"] == {"m": 58, "p": 57, "argmin": [8]}
    assert payload["r"]["witness"]["factors"] == ["E7", "A1"]
    assert payload["d"]["d"] == 86
    assert payload["d"]["witness"]["unipotent_support"] == [7, 8]
    assert payload["d"]["witness"]["dim_h"] == 162
    assert payload["smooth_fundamentals"] == []


def test_json_table_type_is_null(capsys):
    code, out, _ = run(capsys, "table", "5", "--max-rank", "2", "--json")
    doc = json.loads(out)
    assert doc["type"] is None
    rows = {row["type"]: row for row in doc["payload"]["rows"]}
    assert rows["E7"]["d"] == 45 and rows["E8"]["d"] == 86


def test_canonicalization_note(capsys):
    code, out, err = run(capsys, "dim", "c2", "0,1")
    assert code == 0 and out == "4\n"
    assert "note: C2 taken in canonical form B2" in err
    code, out, err = run(capsys, "roots", "D3")
    assert code == 0 and "canonical form A3" in err
    code, out, err = run(capsys, "cartan", "A" + "0" * 200000 + "1")
    assert (code, out) == (0, "2\n")
    assert err == f"note: A{'0' * (MAX_QUOTED - 1)}\u2026 taken in canonical form A1\n"


def test_error_exit_codes(capsys):
    for argv in (
        ["dim", "A2", "1,x"],
        ["cartan", "X9"],
        ["grade", "A2", "5"],
        ["levi", "A3", "0"],
        ["table", "2", "--max-rank", "0"],
        ["minorbit", "A2", "0,0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_rank_ceilings(capsys):
    """Oversized ranks exit 2 at once instead of running without end.

    A rank with more digits than MAX_RANK is refused before int() reads it,
    and a long rank or type text is quoted by its first MAX_QUOTED characters.
    """
    ones = "1" * MAX_QUOTED
    for argv, message in (
        (["invariants", "A100000"], "rank 100000 exceeds the maximum 64"),
        (["roots", "D65"], "rank 65 exceeds the maximum 64"),
        (["roots", "D0065"], "rank 65 exceeds the maximum 64"),
        (["invariants", "A" + "1" * 200000], f"rank {ones}\u2026 exceeds the maximum 64"),
        (["invariants", "Q" + "1" * 200000], f"cannot parse simple type 'Q{ones[1:]}\u2026'"),
        (["table", "2", "--max-rank", "100000"], "--max-rank must be between 1 and 32"),
        (["table", "2", "--max-rank", "33"], "--max-rank must be between 1 and 32"),
        (["table", "2", "--max-rank", "1" * 200000], "--max-rank must be between 1 and 32"),
        (["table", "1" * 200000], "table number must be between 2 and 5"),
        (["table", "6", "--json"], "table number must be between 2 and 5"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.05
        assert code == 2, argv[:2]
        assert out == "" and err == f"error: {message}\n", argv[:2]


def test_dimensions_past_the_int_str_digit_limit(capsys):
    """A 4,352-digit dimension prints in full, and the digit limit comes back.

    Decimal converts without Python's int-to-str digit limit, so the test
    needs no limit of its own lifted.
    """
    weight = ",".join(["11"] * 64)
    expected = str(Decimal(dim_irrep(parse_type("D64"), (11,) * 64)))
    assert len(expected) == 4352
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert run(capsys, "dim", "D64", weight) == (0, expected + "\n", "")
    code, out, _ = run(capsys, "minorbit", "D64", weight)
    assert code == 0 and f"\ndim module: {expected}\n" in out
    code, out, _ = run(capsys, "minorbit", "D64", weight, "--json")
    payload = json.loads(out, parse_int=Decimal)["payload"]
    assert code == 0 and str(payload["dim_module"]) == expected
    assert limit() == before


def test_weight_entry_ceiling(capsys):
    """Entries beyond MAX_WEIGHT_ENTRY exit 2 before any Weyl product.

    A 500,000-digit entry is refused from its length, without int() reading it.
    """
    assert run(capsys, "dim", "A1", str(MAX_WEIGHT_ENTRY)) == (
        0,
        f"{MAX_WEIGHT_ENTRY + 1}\n",
        "",
    )
    # --mod has the same ceiling, and below 1 its own message
    bound = f"error: --mod must be between -{MAX_WEIGHT_ENTRY} and {MAX_WEIGHT_ENTRY}\n"
    start = time.perf_counter()
    assert run(capsys, "grade", "A2", "1", "--mod", "9" * 5000) == (2, "", bound)
    assert time.perf_counter() - start < 0.05 and len(bound) < 200
    assert run(capsys, "grade", "A2", "1", "--mod", "0") == (
        2,
        "",
        "error: --mod must be a positive integer\n",
    )
    huge = "1" + "0" * 299
    message = (
        f"error: weight entries must be at most {MAX_WEIGHT_ENTRY} in absolute value\n"
    )
    for argv in (
        ["dim", "D64", ",".join([huge] * 64)],
        ["minorbit", "D64", ",".join([huge] * 64), "--json"],
        ["dual", "A2", f"{MAX_WEIGHT_ENTRY + 1},0"],
        ["dim", "A2", f"0,-{huge}"],
        ["dim", "A1", "1" * 500000],
    ):
        assert run(capsys, *argv) == (2, "", message), argv[:2]


def test_node_entry_ceiling(capsys):
    """A node set entry beyond MAX_RANK exits 2 at once, with a short message.

    A 200,000-digit node is refused from its length, without int() reading
    it, and the message does not echo it.  Nodes up to the ceiling keep the
    out-of-range message.
    """
    message = f"error: node set entries must be at most {MAX_RANK} in absolute value\n"
    start = time.perf_counter()
    code, out, err = run(capsys, "levi", "A2", "1" * 200000)
    assert time.perf_counter() - start < 0.05
    assert (code, out, err) == (2, "", message) and len(err) < 200
    # the single node of grade, branch and valpha has the same ceiling
    for cmd in ("grade", "branch", "valpha"):
        start = time.perf_counter()
        code, out, err = run(capsys, cmd, "A2", "1" * 200000)
        assert time.perf_counter() - start < 0.05
        assert (code, out) == (2, "") and len(err) < 200, cmd
        assert err == f"error: node must be between -{MAX_RANK} and {MAX_RANK}\n", cmd
        assert run(capsys, cmd, "A2", "5") == (2, "", "error: nodes [5] out of range for A2\n")
    assert run(capsys, "levi", "A3", f"1,{MAX_RANK + 1}") == (2, "", message)
    assert run(capsys, "levi", "A3", f"-{MAX_RANK + 1}", "--json") == (2, "", message)
    for nodes in ("0", str(MAX_RANK)):
        assert run(capsys, "levi", "A3", nodes) == (
            2,
            "",
            f"error: nodes [{int(nodes)}] out of range for A3\n",
        )
    assert run(capsys, "levi", "A3", "1,x") == (
        2,
        "",
        "error: cannot parse node set '1,x'; expected comma-separated integers\n",
    )


def test_unparsable_input_is_quoted_short(capsys):
    """A huge argument that cannot be parsed is quoted by its first MAX_QUOTED
    characters and an ellipsis; shorter ones are quoted whole."""
    ones = "1" * MAX_QUOTED
    for argv, message in (
        (["levi", "A2", "1" * 200000 + ",x"], f"cannot parse node set '{ones}\u2026'"),
        (["dim", "A2", "1," + "x" * 200000], f"cannot parse weight '1,{'x' * (MAX_QUOTED - 2)}\u2026'"),
        (["dim", "A2", ones[2:] + ",x"], f"cannot parse weight '{ones[2:]},x'"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.05
        assert (code, out) == (2, "") and err == (
            f"error: {message}; expected comma-separated integers\n"
        ), argv[:2]


@pytest.mark.parametrize(
    "argv, quoted",
    [
        (["x" * 200000], f"invalid choice: '{'x' * MAX_QUOTED}\u2026' (choose from "),
        (["cartan", "A2", "y" * 200000], f"unrecognized arguments: {'y' * MAX_QUOTED}\u2026\n"),
        (["cartan", "A2", "--json=" + "z" * 200000], f"explicit argument '{'z' * MAX_QUOTED}\u2026'\n"),
        (["x " * 100000], f"invalid choice: '{'x ' * (MAX_QUOTED // 2)}\u2026' (choose from "),
        (["cartan", "A2", "y " * 100000], f"unrecognized arguments: {'y ' * (MAX_QUOTED // 2)}\u2026\n"),
        (["it's " * 50000], 'invalid choice: "' + ("it's " * 20)[:MAX_QUOTED] + '\u2026" (choose from '),
        (["cartan", "A2", "-h" + "z' " * 100000], 'argument "' + ("z' " * 20)[:MAX_QUOTED] + '\u2026"\n'),
        (["cartan", "A2", "-hh" + "z" * 200000], f"argument '{'z' * MAX_QUOTED}\u2026'\n"),
    ],
    ids=["command", "extra argument", "flag value", "command with spaces",
         "extra argument with spaces", "command with a quote mark", "short flag value",
         "repeated short flag value"],
)
def test_argparse_errors_are_clipped_and_return_2(capsys, argv, quoted):
    """argparse's own errors return 2 through main, like every input error,
    and quote an over-long argument by its first MAX_QUOTED characters, also
    one with spaces or quote marks inside."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert quoted in err and len(err.encode()) < 1000


def test_argparse_errors_of_normal_size_stay_whole(capsys):
    code, out, err = run(capsys, "frob")
    choices = ", ".join(f"'{c}'" for c in _COMMANDS)
    assert (code, out) == (2, "")
    assert err == f"error: argument command: invalid choice: 'frob' (choose from {choices})\n"
    assert run(capsys) == (2, "", "error: the following arguments are required: command\n")
    # -hX with -X no option is refused as under Python 3.10-3.12; 3.13's own
    # argparse would take the -h and print the help
    for arg, tail in (("-hz' z' ", '"z\' z\' "'), ("-hhj", "'j'"), ("-h=j", "'j'")):
        assert run(capsys, "cartan", "A2", arg) == (
            2,
            "",
            f"error: argument -h/--help: ignored explicit argument {tail}\n",
        ), arg
    assert run(capsys, "dim", "A2") == (
        2,
        "",
        "error: the following arguments are required: weight\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dim", "A2", "-1,2"), "weight (-1, 2) is not dominant"),
        (("dual", "A2", "-1,-2"), "weight (-1, -2) is not dominant"),
        (("minorbit", "A2", "-1,2"), "weight (-1, 2) is not dominant"),
        (("levi", "A2", "-1,2"), "nodes [-1, 2] out of range for A2"),
        (("grade", "A2", "-1"), "nodes [-1] out of range for A2"),
    ],
)
def test_lists_starting_with_a_minus_reach_the_library_checks(capsys, argv, message):
    """A list such as -1,2 is the argument, not an unknown option, so the
    library's own check refuses it rather than argparse's missing argument."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# `minorb --help` and every subcommand's, at 80 columns, taken while argparse
# still read the integer arguments itself.
HELP = json.loads((Path(__file__).parent / "help.json").read_text())


def test_help_covers_every_subcommand():
    assert list(HELP) == ["minorb", *_COMMANDS]


@pytest.mark.parametrize("command", HELP)
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(["--help"] if command == "minorb" else [command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """The CLI's cold start imports neither dataclasses nor what it pulls in."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, minorb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "minorb.cli", "dim", "A1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "2\n"
