"""Command line front end.

Every subcommand prints a plain-text report by default and a one-line
JSON envelope with --json:

    {"format": "minorb/1", "command": ..., "type": ..., "payload": ...}

Weights and node sets are written as comma-separated integers.  Inputs
naming a redundant type (C2, D3) are accepted and canonicalized with a
note on stderr.  Bad input exits with status 2, and output into a closed
stdout with status 1.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager, suppress

from .grading import branch_adjoint, grade_adjoint, lowest_weight_of_v_alpha
from .invariants import compute_m, compute_r, full_report
from .parabolic import _support, closure_is_smooth, dim_min_orbit, levi_data, orbit_type
from .repdim import dim_irrep, dual_weight
from .rootsys import (
    MAX_RANK,
    MAX_WEIGHT_ENTRY,
    SimpleType,
    cartan_matrix,
    clipped,
    inverse_cartan,
    parse_type,
    positive_roots,
    table_types,
)


# Largest --max-rank of `table`: `table 2 --max-rank 32 --json` takes
# 0.13-0.18 s (medians of two sets of nine cold processes, 2-vCPU VM, Python
# 3.11.7; the VM's speed drifts by up to 2x).
MAX_TABLE_RANK = 32


def _typ(text: str) -> SimpleType:
    typ = parse_type(text)
    raw = text.strip().upper()
    if raw != str(typ):
        print(f"note: {clipped(raw)} taken in canonical form {typ}", file=sys.stderr)
    return typ


def _ints(text: str, what: str, ceiling: int) -> tuple[int, ...]:
    """Comma-separated integers in ASCII digits, each at most ceiling in absolute value."""

    def entry(part: str) -> int:
        # int() reads only ASCII digits here (it takes any Unicode digit), and no
        # more than the ceiling has: with the int-str limit lifted it is quadratic.
        m = re.fullmatch(r"\s*[+-]?([0-9]+(?:_[0-9]+)*)\s*", part)
        if m is None:
            raise ValueError(part)
        if len(m[1].replace("_", "").lstrip("0")) > len(str(ceiling)):
            return ceiling + 1
        return int(part)

    try:
        values = tuple(entry(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse {what} {clipped(text)!r}; expected comma-separated integers"
        ) from None
    if any(abs(c) > ceiling for c in values):
        raise ValueError(f"{what} entries must be at most {ceiling} in absolute value")
    return values


def _int(text: str, what: str, low: int, high: int) -> int:
    """One integer from low to high, read by _ints; the error quotes no input."""
    try:
        (value,) = _ints(text, what, max(-low, high))
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise ValueError(f"{what} must be between {low} and {high}")
    return value


@contextmanager
def _all_digits():
    """Lift Python's int-to-str digit limit: exact dimensions may be longer."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _fmt_matrix(rows) -> str:
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def _fmt_weight(w) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _fmt_weights(ws) -> str:
    return " ".join(_fmt_weight(w) for w in ws) if ws else "-"


def _fmt_nodes(nodes) -> str:
    return ",".join(str(i) for i in nodes) if nodes else "-"


def _components(comps) -> tuple[list[dict], list[str]]:
    """Payload entries of Levi components and their text, such as E6(6,2,5,4,3,1)."""
    entries = [{"type": str(c.typ), "nodes": c.nodes} for c in comps]
    return entries, [f"{e['type']}({_fmt_nodes(e['nodes'])})" for e in entries]


def _cmd_cartan(typ, args):
    a = cartan_matrix(typ)
    return {"matrix": a}, _fmt_matrix(a)


def _cmd_icartan(typ, args):
    scaled, det = inverse_cartan(typ)
    text = f"det {det}\n" + _fmt_matrix(scaled)
    return {"det": det, "det_times_inverse": scaled}, text


def _cmd_roots(typ, args):
    pos = positive_roots(typ)
    text = "\n".join(" ".join(map(str, r)) for r in pos)
    return {"count": len(pos), "roots": pos}, text


def _cmd_dim(typ, args):
    w = _ints(args["weight"], "weight", MAX_WEIGHT_ENTRY)
    value = dim_irrep(typ, w)
    return {"weight": w, "dim": value}, str(value)


def _cmd_dual(typ, args):
    w = _ints(args["weight"], "weight", MAX_WEIGHT_ENTRY)
    dual = dual_weight(typ, w)
    return {"weight": w, "dual": dual}, ",".join(str(c) for c in dual)


def _cmd_levi(typ, args):
    data = levi_data(typ, _ints(args["nodes"], "node set", MAX_RANK))
    entries, names = _components(data.components)
    payload = {
        "removed": data.removed,
        "kept": data.kept,
        "components": entries,
        "dim_levi_ss": data.dim_levi_ss,
        "dim_levi": data.dim_levi,
        "dim_u": data.dim_u,
        "dim_parabolic": data.dim_parabolic,
    }
    lines = [
        f"{typ} remove {_fmt_nodes(data.removed)}",
        f"kept: {_fmt_nodes(data.kept)}",
    ]
    lines += [f"component: {name}" for name in names]
    lines += [
        f"{key.replace('_', ' ')}: {payload[key]}"
        for key in ("dim_levi_ss", "dim_levi", "dim_u", "dim_parabolic")
    ]
    return payload, "\n".join(lines)


def _cmd_grade(typ, args):
    node = _int(args["node"], "node", -MAX_RANK, MAX_RANK)
    rep = grade_adjoint(typ, node)
    key, value, dims = "max_grade", rep.max_grade, rep.dims
    if "--mod" in args:
        mod = _int(args["--mod"], "--mod", 1, MAX_WEIGHT_ENTRY)
        folded = Counter()
        for g, d in rep.dims.items():
            folded[g % mod] += d
        key, value, dims = "mod", mod, folded
    pairs = sorted(dims.items())
    lines = [f"{typ} node {node} {key} {value}"] + [f"{g}\t{d}" for g, d in pairs]
    return {"node": node, key: value, "dims": pairs}, "\n".join(lines)


def _cmd_branch(typ, args):
    node = _int(args["node"], "node", -MAX_RANK, MAX_RANK)
    rep = branch_adjoint(typ, node)
    grades = [
        {"grade": k, "summands": [s._asdict() for s in rep.grades[k]]}
        for k in sorted(rep.grades)
    ]
    lines = [f"{typ} node {node} max_grade {rep.max_grade}"]
    lines += [
        f"{g['grade']}\t{_fmt_weights(s['weights'])}\t{s['dim']}"
        + ("\ttorus" if s["torus"] else "")
        for g in grades
        for s in g["summands"]
    ]
    payload = {"node": node, "max_grade": rep.max_grade, "grades": grades}
    return payload, "\n".join(lines)


def _cmd_valpha(typ, args):
    node = _int(args["node"], "node", -MAX_RANK, MAX_RANK)
    data = lowest_weight_of_v_alpha(typ, node)
    entries, names = _components(data.levi.components)
    payload = {
        "node": node,
        "levi": entries,
        "lowest": data.lowest,
        "highest": data.highest,
        "dim": data.dim,
    }
    lines = [
        f"{typ} node {node}",
        f"levi: {' '.join(names) or '-'}",
        f"lowest: {_fmt_weights(data.lowest)}",
        f"highest: {_fmt_weights(data.highest)}",
        f"dim: {data.dim}",
    ]
    return payload, "\n".join(lines)


def _cmd_minorbit(typ, args):
    w = _ints(args["weight"], "weight", MAX_WEIGHT_ENTRY)
    primitive, multiplier = orbit_type(typ, w)
    payload = {
        "weight": w,
        "primitive": primitive,
        "multiplier": multiplier,
        "removed": _support(primitive),
        "dim_orbit": dim_min_orbit(typ, w),
        "dim_module": dim_irrep(typ, w),
        "smooth": closure_is_smooth(typ, w),
    }
    lines = [
        f"{typ} weight {_fmt_weight(w)}",
        f"primitive: {_fmt_weight(primitive)}",
        f"multiplier: {multiplier}",
        f"removed: {_fmt_nodes(payload['removed'])}",
        f"dim orbit: {payload['dim_orbit']}",
        f"dim module: {payload['dim_module']}",
        f"smooth: {'yes' if payload['smooth'] else 'no'}",
    ]
    return payload, "\n".join(lines)


def _cmd_invariants(typ, args):
    rep = full_report(typ)
    m, r, d = rep.m, rep.r, rep.d
    d_witness = {
        "factors": [str(f) for f in d.witness.factors],
        "unipotent_support": d.witness.unipotent_support,
        "dim_h": d.witness.dim_h,
    }
    payload = {
        "dim": rep.dim,
        "m": m._asdict(),
        "r": {
            "r": r.r,
            "witness": {
                "factors": [str(f) for f in r.witness.factors],
                "dim_h": r.witness.dim_h,
            },
        },
        "d": {
            "d": d.d,
            "witness": d_witness,
            "certificates": [c._asdict() for c in d.certificates],
        },
        "d_equals_r": rep.d_equals_r,
        "smooth_fundamentals": rep.smooth_fundamentals,
    }
    lines = [
        f"{typ} dim {rep.dim}",
        f"m: {m.m} (p {m.p}, nodes {_fmt_nodes(m.argmin)})",
        f"r: {r.r} (H = {r.witness})",
        f"d: {d.d} (witness {d.witness}, dim {d_witness['dim_h']})",
        f"d = r: {'yes' if rep.d_equals_r else 'no'}",
        "certificates:",
    ]
    lines += [
        f"  {c.source} ({_fmt_nodes(c.nodes)}): {c.detail}" for c in d.certificates
    ]
    lines.append(f"smooth fundamentals: {_fmt_nodes(rep.smooth_fundamentals)}")
    return payload, "\n".join(lines)


_TABLE_HEADERS = {
    2: "type\tdim\tm\td\tr\tH",
    3: "type\tm\tp\tnodes\tdims",
    4: "type\tr\tH\tdim H",
    5: "type\td\twitness\tdim H",
}

_TABLE_NOTES = {
    2: [
        "# A_n: dim n(n+2); B_n, C_n: dim n(2n+1); D_n: dim n(2n-1)",
        "# A_n (n>3): m n+1, d=r 2n; B_n (n>2): m=d=r 2n;"
        " C_n (n>2): m 2n, d=r 4n-4; D_n (n>4): m=d=r 2n-1",
    ],
    3: [
        "# A_n: m n+1 at 1,n with dim n+1; B_n (n>2): m 2n at 1 with dim 2n+1;"
        " C_n (n>2): m 2n at 1 with dim 2n; D_n (n>4): m 2n-1 at 1 with dim 2n",
    ],
    4: [
        "# A_n (n>3): 2n via A_{n-1} x T1; B_n (n>2): 2n via D_n;"
        " C_n (n>2): 4n-4 via C_{n-1} x A1; D_n (n>4): 2n-1 via B_{n-1}",
    ],
    5: ["# d = r except E7: 45 via B5 . U(1) and E8: 86 via E6 . U(7,8)"],
}


def _table_row(number: int, typ: SimpleType) -> dict:
    if number == 2:
        rep = full_report(typ)
        return {"dim": rep.dim, "m": rep.m.m, "d": rep.d.d, "r": rep.r.r, "h": str(rep.r.witness)}
    if number == 3:
        m = compute_m(typ)
        fundamentals = (
            tuple(int(k == i) for k in range(1, typ.rank + 1)) for i in m.argmin
        )
        dims = tuple(dim_irrep(typ, w) for w in fundamentals)
        return {"m": m.m, "p": m.p, "nodes": m.argmin, "dims": dims}
    if number == 4:
        r = compute_r(typ)
        return {"r": r.r, "h": str(r.witness), "dim_h": r.witness.dim_h}
    d = full_report(typ).d
    return {"d": d.d, "witness": str(d.witness), "dim_h": d.witness.dim_h}


def _cmd_table(typ, args):
    number = _int(args["{2,3,4,5}"], "table number", 2, 5)
    max_rank = _int(args.get("--max-rank", "12"), "--max-rank", 1, MAX_TABLE_RANK)
    rows = [{"type": str(t), **_table_row(number, t)} for t in table_types(max_rank)]
    notes = _TABLE_NOTES[number]
    lines = [_TABLE_HEADERS[number]]
    lines += [
        "\t".join(_fmt_nodes(v) if isinstance(v, tuple) else str(v) for v in r.values())
        for r in rows
    ]
    payload = {"table": number, "max_rank": max_rank, "rows": rows, "notes": notes}
    return payload, "\n".join(lines + notes)


# name -> (handler, its --help line, {argument: its help}), in help order.  An
# argument "--x X" is an option that takes a value X.  Every command also takes
# -h/--help and --json; handlers get the values keyed by name, "--x" for "--x X".
_COMMANDS = {
    "cartan": (_cmd_cartan, "Cartan matrix of a simple type", {"type": ""}),
    "icartan": (_cmd_icartan, "inverse Cartan matrix scaled by its determinant", {"type": ""}),
    "roots": (_cmd_roots, "positive roots in simple-root coordinates", {"type": ""}),
    "dim": (_cmd_dim, "dimension of the irreducible module of a highest weight",
            {"type": "", "weight": "comma-separated coordinates, e.g. 1,0,2"}),
    "dual": (_cmd_dual, "highest weight of the dual module", {"type": "", "weight": ""}),
    "levi": (_cmd_levi, "Levi decomposition of the parabolic removing a node set",
             {"type": "", "nodes": "comma-separated nodes, e.g. 7,8"}),
    "grade": (_cmd_grade, "adjoint grading by the coefficient of one simple root",
              {"type": "", "node": "", "--mod MOD": "fold grades modulo this period"}),
    "branch": (_cmd_branch, "irreducible summands of each nonnegative grade",
               {"type": "", "node": ""}),
    "valpha": (_cmd_valpha, "the grade-one module V(alpha) at a node", {"type": "", "node": ""}),
    "minorbit": (_cmd_minorbit, "highest weight orbit data for a dominant weight",
                 {"type": "", "weight": ""}),
    "invariants": (_cmd_invariants, "the m, r, d invariants with witnesses", {"type": ""}),
    "table": (_cmd_table, "reproduce a published summary table",
              {"{2,3,4,5}": "", "--max-rank MAX_RANK":
               f"largest classical rank (default 12, at most {MAX_TABLE_RANK})"}),
}


def _option(arg: str, options) -> str | None:
    """The option of options that arg names, "" for an unknown one, or None
    for an argument: "-", a minus and a digit, or a space in no option's
    name.  -h... names --help, and a long option may be cut to a prefix."""
    if arg[:1] != "-" or arg == "-" or arg[1:2].isdecimal():
        return None
    name = "--h" if arg[1] == "h" else arg.partition("=")[0]
    found = [o for o in options if len(name) > 2 and o.startswith(name)]
    return found[0] if found else None if " " in arg else ""


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command that argv names and its values, keyed as in _COMMANDS.

    The first -- ends the options: minorb's before the command, the
    command's after it.  -h, -hh... and --help print the help; -hX, --json=X
    are refused.  A value option takes =VALUE or the next argument, if no
    option.  Help, an unknown command and a bad option value stop at once,
    left to right; then come unrecognized arguments, then missing ones.
    Every message is clipped already."""
    command, values, extras, ended = None, {}, [], False
    waiting, options, args = ["command"], ["--help"], iter(argv)
    for arg in args:
        name = None if ended else _option(arg, options)
        if arg == "--" and not ended:
            ended = True
        elif name == "" or name is None and command is not None and not waiting:
            extras.append(arg)
        elif name is None and command is None:
            if arg not in _COMMANDS:
                choices = f"(choose from {', '.join(map(repr, _COMMANDS))})"
                raise ValueError(f"argument command: invalid choice: {clipped(arg)!r} {choices}")
            command, ended, arguments = arg, False, _COMMANDS[arg][2]
            options += ["--json", *(a.split()[0] for a in arguments if a[0] == "-")]
            waiting = [a for a in arguments if a[0] != "-"]
        elif name is None:
            values[waiting.pop(0)] = arg
        else:  # -hX reads as -h, then -X, and no -X exists
            short = arg[1] == "h"
            explicit = arg.rstrip("h") != "-" if short else "=" in arg
            value = arg[2:].lstrip("h").removeprefix("=") if short else arg.partition("=")[2]
            if explicit and name in ("--help", "--json"):
                shown = "-h/--help" if name == "--help" else name
                raise ValueError(f"argument {shown}: ignored explicit argument {clipped(value)!r}")
            if name == "--help":
                _help(command)
            if not explicit and name != "--json":
                value = next(args, "--")
                if _option(value, options) is not None:
                    raise ValueError(f"argument {name}: expected one argument")
            values[name] = value
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(map(clipped, extras))}")
    if waiting:
        raise ValueError(f"the following arguments are required: {', '.join(waiting)}")
    return command, values


def _help(command: str | None):
    """Print the help of command, or minorb's for None, as argparse lays out
    a parser built from _COMMANDS at the terminal width, and exit 0."""
    import argparse

    if command is None:
        about = "Exact root-system combinatorics and minimal-orbit invariants."
        parser = argparse.ArgumentParser(prog="minorb", description=about)
        subparsers = parser.add_subparsers()
        for name, entry in _COMMANDS.items():
            subparsers.add_parser(name, help=entry[1])
        # two positionals, as 3.13 keeps the subparsers' "{cartan,...} ..." unwrapped
        usage = argparse.ArgumentParser(prog="minorb")
        usage.add_argument("command", choices=_COMMANDS)
        usage.add_argument("arguments", nargs=argparse.REMAINDER)
        parser.usage = usage.format_usage().removeprefix("usage: ")
    else:
        parser = argparse.ArgumentParser(prog=f"minorb {command}")
        parser.add_argument("--json", action="store_true", help="emit a one-line JSON envelope")
        for argument, text in _COMMANDS[command][2].items():
            flag, _, metavar = argument.partition(" ")
            parser.add_argument(flag, metavar=metavar or None, help=text)
    with suppress(OSError):  # as argparse: help into a closed stdout is no error
        print(parser.format_help(), end="")
    raise SystemExit(0)


def main(argv=None) -> int:
    with _all_digits():
        try:
            command, args = _parse(sys.argv[1:] if argv is None else argv)
            typ = None if command == "table" else _typ(args["type"])
            payload, text = _COMMANDS[command][0](typ, args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if "--json" in args:
            typ = None if typ is None else str(typ)
            envelope = {"format": "minorb/1", "command": command, "type": typ, "payload": payload}
            text = json.dumps(envelope)
        try:
            print(text)
        except BrokenPipeError:  # the reader closed stdout: as the Python docs advise,
            # point it at devnull, so that the flush at exit finds no pipe to fail on
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
