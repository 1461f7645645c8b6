"""Command line behavior: golden outputs, JSON envelopes, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from minorb import MAX_RANK, MAX_WEIGHT_ENTRY, dim_irrep, invariants, parse_type
from minorb.rootsys import MAX_QUOTED, positive_roots, root_columns
from minorb.parabolic import support_masks
from minorb.invariants import MResult
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


def test_minorbit_builds_one_root_system(capsys):
    """removed is the weight's support: no Levi component (D9 here) is built."""
    for cache in (positive_roots, root_columns, support_masks):
        cache.cache_clear()
    code, out, _ = run(capsys, "minorbit", "D10", ",".join("1" + "0" * 9))
    assert code == 0 and "removed: 1\n" in out
    assert positive_roots.cache_info().misses == 1


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
    assert run(capsys, "table", "3", "--max", "4") == (0, out, "")  # a prefix names the option
    code, out, _ = run(capsys, "table", "4", "--max-rank", "2")
    assert "G2\t6\tA2\t8" in out.splitlines()
    code, out, _ = run(capsys, "table", "5", "--max-rank", "2")
    assert "E7\t45\tB5 . U(1)\t88" in out.splitlines()
    assert "E8\t86\tE6 . U(7,8)\t162" in out.splitlines()


def test_table_rows_pass_the_report_guard(monkeypatch):
    """Tables 2 and 5 read full_report, so a row breaking m <= d <= r raises."""
    monkeypatch.setattr(invariants, "compute_m", lambda typ: MResult(10**6, 10**6 - 1, (1,)))
    for number in ("2", "5"):
        with pytest.raises(RuntimeError, match="breaks m <= d <= r"):
            main(["table", number])


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
    before = sys.get_int_max_str_digits()
    assert run(capsys, "dim", "D64", weight) == (0, expected + "\n", "")
    code, out, _ = run(capsys, "minorbit", "D64", weight)
    assert code == 0 and f"\ndim module: {expected}\n" in out
    code, out, _ = run(capsys, "minorbit", "D64", weight, "--json")
    payload = json.loads(out, parse_int=Decimal)["payload"]
    assert code == 0 and str(payload["dim_module"]) == expected
    assert sys.get_int_max_str_digits() == before


def test_weight_entry_ceiling(capsys):
    """Entries beyond MAX_WEIGHT_ENTRY exit 2 before any Weyl product.

    A 500,000-digit entry is refused from its length, without int() reading it.
    """
    assert run(capsys, "dim", "A1", str(MAX_WEIGHT_ENTRY)) == (
        0,
        f"{MAX_WEIGHT_ENTRY + 1}\n",
        "",
    )
    # --mod has the same ceiling, and one message for every value out of range
    bound = f"error: --mod must be between 1 and {MAX_WEIGHT_ENTRY}\n"
    start = time.perf_counter()
    assert run(capsys, "grade", "A2", "1", "--mod", "9" * 5000) == (2, "", bound)
    assert time.perf_counter() - start < 0.05 and len(bound) < 200
    for mod in ("0", "-1", "-" + "9" * 30, "\u0661"):
        assert run(capsys, "grade", "A2", "1", "--mod", mod) == (2, "", bound), mod
    assert run(capsys, "grade", "A2", "1", "--mod", str(MAX_WEIGHT_ENTRY))[0] == 0
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


def test_integers_are_read_in_ascii_digits_only(capsys):
    """Every integer the command line reads is written in ASCII digits, as
    type ranks are: int() alone would take an Arabic-Indic or a fullwidth
    digit.  Unicode whitespace around an entry is still skipped."""
    one, two, zeros = "\u0661", "\uff12", "\u0660" * 10  # Arabic-Indic 1, fullwidth 2
    unparsable = "; expected comma-separated integers"
    for argv, message in (
        (["dim", "A1", one], f"cannot parse weight '{one}'{unparsable}"),
        (["dim", "A1", zeros + one], f"cannot parse weight '{zeros + one}'{unparsable}"),
        (["dim", "A2", f"1,{one}"], f"cannot parse weight '1,{one}'{unparsable}"),
        (["levi", "A3", one], f"cannot parse node set '{one}'{unparsable}"),
        (["grade", "A2", "1", "--mod", two],
         f"--mod must be between 1 and {MAX_WEIGHT_ENTRY}"),
        (["table", two], "table number must be between 2 and 5"),
        (["table", "2", "--max-rank", two], "--max-rank must be between 1 and 32"),
        (["cartan", f"A{one}"], f"cannot parse simple type 'A{one}'"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert run(capsys, "dim", "A1", "\u3000+1_0 ") == (0, "11\n", "")


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
    """Errors of the command line grammar (an unknown command, an
    unrecognized argument, a refused option value) return 2 through main,
    like every input error, and quote an over-long argument by its first
    MAX_QUOTED characters, also one with spaces or quote marks inside."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert quoted in err and len(err.encode()) < 1000


def test_argparse_errors_of_normal_size_stay_whole(capsys):
    code, out, err = run(capsys, "frob")
    choices = ", ".join(f"'{c}'" for c in _COMMANDS)
    assert (code, out) == (2, "")
    assert err == f"error: argument command: invalid choice: 'frob' (choose from {choices})\n"
    assert run(capsys) == (2, "", "error: the following arguments are required: command\n")
    # -hX reads as -h, then -X, and as no -X exists, X is refused: after any
    # run of h and one =, as in -hh=j
    refused = (("-hz' z' ", '"z\' z\' "'), ("-hhj", "'j'"), ("-h=j", "'j'"), ("-hh=j", "'j'"))
    for arg, tail in refused:
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
    # a value option at the end, or before another option, has no value
    for argv, option in (
        (["grade", "A2", "1", "--mod"], "--mod"),
        (["grade", "A2", "1", "--mod", "--json"], "--mod"),
        (["table", "2", "--max-rank"], "--max-rank"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: argument {option}: expected one argument\n")


def test_a_leading_double_dash_ends_the_options(capsys):
    """-- before the command only ends the options: the command follows it,
    and one starting with a minus is an unknown command, not an option.
    Options before the -- are still read, and a -- that ends the command's
    options may be its last argument."""
    assert run(capsys, "--", "cartan", "A2") == run(capsys, "cartan", "A2") == (0, " 2 -1\n-1  2\n", "")
    assert run(capsys, "--", "dim", "A2", "--", "1,1") == (0, "8\n", "")
    assert run(capsys, "-x", "--", "cartan", "A2") == (2, "", "error: unrecognized arguments: -x\n")
    code, out, err = run(capsys, "roots", "A2", "--json", "--")
    assert (code, err) == (0, "") and json.loads(out)["payload"]["count"] == 3
    choices = ", ".join(f"'{c}'" for c in _COMMANDS)
    for command in ("-h", "--json", "--", "nosuch"):
        assert run(capsys, "--", command, "A2") == (
            2,
            "",
            f"error: argument command: invalid choice: {command!r} (choose from {choices})\n",
        ), command
    assert run(capsys, "--") == (2, "", "error: the following arguments are required: command\n")


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (("dim", "A2", "-x"), "-x"),
        (("cartan", "-H"), "-H"),
        (("-x",), "-x"),
        (("table", "-x"), "-x"),
        (("cartan", "--json", "-x", "-y"), "-x -y"),
        (("dim", "A2", "1,1", "-x"), "-x"),
    ],
)
def test_unknown_options_are_named_before_missing_arguments(capsys, argv, unknown):
    """An unknown option where a positional belongs is reported as itself,
    not as the positional it leaves missing."""
    assert run(capsys, *argv) == (2, "", f"error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dim", "A2", "-1,2"), "weight (-1, 2) is not dominant"),
        (("dual", "A2", "-1,-2"), "weight (-1, -2) is not dominant"),
        (("minorbit", "A2", "-1,2"), "weight (-1, 2) is not dominant"),
        (("levi", "A2", "-1,2"), "nodes [-1, 2] out of range for A2"),
        (("grade", "A2", "-1"), "nodes [-1] out of range for A2"),
        (("grade", "A2", "-0_1"), "nodes [-1] out of range for A2"),
        (("dim", "B2", "-1,\u3000-1"), "weight (-1, -1) is not dominant"),
        (("dim", "A1", "-1x"), "cannot parse weight '-1x'; expected comma-separated integers"),
    ],
)
def test_lists_starting_with_a_minus_reach_the_library_checks(capsys, argv, message):
    """A list such as -1,2 is the argument, not an unknown option, so the
    library's own check refuses it rather than the grammar's missing
    argument: so is any argument that starts with a minus and a digit,
    underscores and Unicode whitespace included, as no option starts so."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# `minorb --help` and every subcommand's, at 80 columns, taken while argparse
# still read the integer arguments itself; cli._help lays the help out through
# argparse parsers built from _COMMANDS.
HELP = json.loads((Path(__file__).parent / "help.json").read_text())
# per help text, one sha256 over its output at COLUMNS 1, 2, ..., 160 in turn,
# taken from the layout that cli._help wrote by hand before argparse's formatter
# laid it out: every branch of the usage wrapping, under every Python
HELP_PINS = json.loads((Path(__file__).parent / "help_sha256.json").read_text())


def test_help_covers_every_subcommand():
    assert list(HELP) == ["minorb", *_COMMANDS]


@pytest.mark.parametrize("command", HELP)
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(["--help"] if command == "minorb" else [command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("command", HELP_PINS)
def test_help_at_every_width(capsys, monkeypatch, command):
    digest = sha256()
    for columns in range(1, 161):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as stop:
            main(["--help"] if command == "minorb" else [command, "--help"])
        out, err = capsys.readouterr()
        assert stop.value.code == 0 and err == "", columns
        digest.update(out.encode())
    assert digest.hexdigest() == HELP_PINS[command]


# modules that only the help, or an argparse parser, would load
HELP_ONLY = {"argparse", "gettext", "shutil", "textwrap"}


def loaded(code: str, watched: set[str]) -> str:
    """The output of code run in a new interpreter without site, on this
    checkout's src, then the sorted list of the watched modules it loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; {code}; print(sorted({watched!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_command_builds_only_its_own_subparser():
    """A run of a command reads its arguments off _COMMANDS and prints no
    help, so it loads none of the modules that a parser or the help would."""
    code = "from minorb.cli import main; main(['dim', 'A1', '1'])"
    assert loaded(code, HELP_ONLY) == "2\n[]\n"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """The CLI's cold start imports neither dataclasses nor what it pulls in,
    nor argparse, gettext, shutil or textwrap, which only the help needs."""
    assert loaded("import minorb.cli", {"dataclasses", "inspect"} | HELP_ONLY) == "[]\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "minorb.cli", "dim", "A1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "2\n"


def test_a_closed_stdout_exits_1_with_an_empty_stderr():
    """D64's roots, about 500 KB as text or JSON, overflow the pipe's buffer,
    so the write meets the pipe that the reader closed after one byte."""
    for extra in ([], ["--json"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "minorb.cli", "roots", "D64", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b""), extra


# -- a grammar fuzz of main -------------------------------------------------

# spellings that print the help, and -h forms that must be refused instead
HELP_FORMS = ("-h", "-hh", "--help", "--he")
NOT_HELP_FORMS = ("-hx", "-hhz", "-h=1", "-h-", "-hz' z' ")
# decimal digits that int() reads but the command line refuses:
# Arabic-Indic 1, fullwidth 2, Devanagari 3
FOREIGN_DIGITS = "١２३"
# entries no integer grammar accepts, or only at the edge of it
ODD_ENTRIES = (
    "", " ", "+", "-", "_", "_1", "1_", "1__0", "+-1", "0x1", "x", "9" * 30, "-" + "9" * 30
)
# family -> (lowest rank, highest rank) that parse_type accepts
RANKS = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK), "D": (3, MAX_RANK),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def one_in(k: int):
    """True about once in k draws."""
    return st.sampled_from(range(k)).map(lambda x: x == 0)


@st.composite
def entry(draw, values):
    """One integer entry: a value written with a sign, leading zeros, an
    underscore, surrounding whitespace or a foreign digit; or an odd entry."""
    if draw(one_in(8)):
        return draw(st.sampled_from(ODD_ENTRIES))
    value = draw(values)
    digits = draw(st.sampled_from(("", "", "", "0", "0" * 30))) + str(abs(value))
    if len(digits) > 1 and draw(one_in(4)):
        digits = digits[0] + "_" + digits[1:]
    if draw(one_in(8)):
        k = draw(st.integers(0, len(digits) - 1))
        digits = digits[:k] + draw(st.sampled_from(FOREIGN_DIGITS)) + digits[k + 1 :]
    sign = "-" if value < 0 else draw(st.sampled_from(("", "", "", "+")))
    space = draw(st.sampled_from(("", "", "", " ", "\u3000")))
    return space + sign + digits + space


@st.composite
def entry_list(draw, plain, odd, length):
    """length entries of plain values, up to two of them redrawn by entry(odd)."""
    parts = [str(draw(plain)) for _ in range(length)]
    for _ in range(draw(st.integers(0, 2)) if parts else 0):
        parts[draw(st.integers(0, length - 1))] = draw(entry(odd))
    return ",".join(parts)


def takes_as_argument(arg: str) -> bool:
    """Whether the grammar reads arg as an argument, never as an option: "-",
    one that starts with no minus, or with a minus and a digit as the list
    -1,2 does, and one holding a space (no positional drawn starts with -h,
    which always names --help)."""
    return arg[:1] != "-" or arg == "-" or " " in arg or arg[1:2].isdigit()


@st.composite
def command_line(draw):
    """(argv, whether it holds every positional of a known command, each one
    that the grammar reads as an argument)."""
    command = draw(st.sampled_from([*_COMMANDS, "nosuch", ""]))
    family = draw(st.sampled_from("ABCDEFGac"))
    low, high = RANKS[family.upper()]
    rank = draw(st.sampled_from((low - 1, low, low, low + 1, high, high + 1)))
    digits = draw(st.sampled_from(("", "", "", "0", "0" * 30))) + str(rank)
    if draw(one_in(8)):
        digits = draw(st.sampled_from(FOREIGN_DIGITS)) + digits[1:]
    typ = draw(st.sampled_from(("", "", "", " "))) + family + digits
    node = entry(st.integers(-1, rank + 1))
    odd_node = st.sampled_from((-1, 0, rank + 1, MAX_RANK, MAX_RANK + 1))
    plain_node = st.integers(1, max(rank, 1))
    nodes = st.integers(0, 3).flatmap(lambda k: entry_list(plain_node, odd_node, k))
    odd_weight = st.sampled_from((-1, 0, 5, MAX_WEIGHT_ENTRY, MAX_WEIGHT_ENTRY + 1))
    length = st.sampled_from((rank, rank, rank, rank - 1, rank + 1)).filter(lambda k: k >= 0)
    weight = length.flatmap(lambda k: entry_list(st.integers(0, 3), odd_weight, k))
    positionals = {
        "dim": [weight], "dual": [weight], "minorbit": [weight], "levi": [nodes],
        "grade": [node], "branch": [node], "valpha": [node], "table": [entry(st.integers(1, 6))],
    }.get(command, [])
    args = ([] if command == "table" else [typ]) + [draw(p) for p in positionals]
    complete = command in _COMMANDS and not draw(one_in(8))
    if not complete and args:
        del args[draw(st.integers(0, len(args) - 1))]
    argv = [command, *args]
    options = []
    if draw(st.booleans()):
        options.append(["--json"])
    if command == "grade" and draw(st.booleans()):
        mod = st.sampled_from((-1, 0, 1, 2, 3, MAX_WEIGHT_ENTRY, MAX_WEIGHT_ENTRY + 1))
        options.append(["--mod", draw(entry(mod))])
    if command == "table" and draw(st.booleans()):
        options.append(["--max-rank", draw(entry(st.sampled_from((0, 1, 2, 32, 33))))])
    if draw(one_in(6)):
        options.append([draw(st.sampled_from(HELP_FORMS + NOT_HELP_FORMS))])
    if draw(one_in(6)):
        options.append(["--"])
    for option in options:  # mostly after the command
        at = 0 if draw(one_in(12)) else draw(st.integers(1, len(argv)))
        argv[at:at] = option
    return argv, complete and all(map(takes_as_argument, args))


@settings(max_examples=300, deadline=None, database=None)
@seed(26)
@given(command_line())
def test_every_command_line_returns_0_or_2(drawn):
    """Every argv that the grammar draws returns 0, or exits 0 on help, or
    returns 2 with one error line of bounded length after any notes, within
    seconds.  Help needs a help spelling, an integer in foreign digits is
    refused, and an argv holding every positional as an argument is never
    refused for a missing one."""
    argv, complete = drawn
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            assert stop.code == 0 and any(a in HELP_FORMS for a in argv), argv
            return
    assert time.perf_counter() - start < 5, argv
    lines = err.getvalue().splitlines()
    if code == 0:
        assert out.getvalue() and all(line.startswith("note: ") for line in lines), argv
        assert not any(c in FOREIGN_DIGITS for a in argv for c in a), argv
        return
    assert code == 2 and out.getvalue() == "" and lines, argv
    *notes, last = lines
    assert all(line.startswith("note: ") for line in notes), argv
    assert last.startswith("error: ") and len(last.encode()) < 1000, argv
    if complete:
        assert "arguments are required" not in last, argv
