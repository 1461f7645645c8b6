"""Command line front end.

Every subcommand prints a plain-text report by default and a one-line
JSON envelope with --json:

    {"format": "minorb/1", "command": ..., "type": ..., "payload": ...}

Weights and node sets are written as comma-separated integers.  Inputs
naming a redundant type (C2, D3) are accepted and canonicalized with a
note on stderr.  Bad input exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from functools import cache

from .grading import branch_adjoint, grade_adjoint, lowest_weight_of_v_alpha
from .invariants import compute_d, compute_m, compute_r, full_report
from .parabolic import _support, closure_is_smooth, dim_min_orbit, levi_data, orbit_type
from .repdim import dim_irrep, dual_weight
from .rootsys import (
    MAX_QUOTED,
    MAX_RANK,
    MAX_WEIGHT_ENTRY,
    SimpleType,
    cartan_matrix,
    clipped,
    dim_simple,
    inverse_cartan,
    parse_type,
    positive_roots,
    table_types,
)


# Largest --max-rank of `table`: `table 2 --max-rank 32 --json` takes about
# 0.35 s (median of nine cold processes, 2-vCPU VM, Python 3.11.7; the VM's
# speed drifts by up to 2x).
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
    limit = getattr(sys, "get_int_max_str_digits", None)  # from Python 3.10.7
    if limit is None:
        yield
        return
    old = limit()
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
    w = _ints(args.weight, "weight", MAX_WEIGHT_ENTRY)
    value = dim_irrep(typ, w)
    return {"weight": w, "dim": value}, str(value)


def _cmd_dual(typ, args):
    w = _ints(args.weight, "weight", MAX_WEIGHT_ENTRY)
    dual = dual_weight(typ, w)
    return {"weight": w, "dual": dual}, ",".join(str(c) for c in dual)


def _cmd_levi(typ, args):
    data = levi_data(typ, _ints(args.nodes, "node set", MAX_RANK))
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
    node = _int(args.node, "node", -MAX_RANK, MAX_RANK)
    rep = grade_adjoint(typ, node)
    key, value, dims = "max_grade", rep.max_grade, rep.dims
    if args.mod is not None:
        mod = _int(args.mod, "--mod", 1, MAX_WEIGHT_ENTRY)
        folded = Counter()
        for g, d in rep.dims.items():
            folded[g % mod] += d
        key, value, dims = "mod", mod, folded
    pairs = sorted(dims.items())
    lines = [f"{typ} node {node} {key} {value}"] + [f"{g}\t{d}" for g, d in pairs]
    return {"node": node, key: value, "dims": pairs}, "\n".join(lines)


def _cmd_branch(typ, args):
    node = _int(args.node, "node", -MAX_RANK, MAX_RANK)
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
    node = _int(args.node, "node", -MAX_RANK, MAX_RANK)
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
    w = _ints(args.weight, "weight", MAX_WEIGHT_ENTRY)
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
    5: [
        "# d = r except E7: 45 via B5 . U(1) and E8: 86 via E6 . U(7,8)",
    ],
}


def _table_row(number: int, typ: SimpleType) -> dict:
    if number == 2:
        r = compute_r(typ)
        return {
            "dim": dim_simple(typ),
            "m": compute_m(typ).m,
            "d": compute_d(typ).d,
            "r": r.r,
            "h": str(r.witness),
        }
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
    d = compute_d(typ)
    return {"d": d.d, "witness": str(d.witness), "dim_h": d.witness.dim_h}


def _cmd_table(typ, args):
    number = _int(args.number, "table number", 2, 5)
    max_rank = _int(args.max_rank, "--max-rank", 1, MAX_TABLE_RANK)
    rows = [{"type": str(t), **_table_row(number, t)} for t in table_types(max_rank)]
    notes = _TABLE_NOTES[number]
    lines = [_TABLE_HEADERS[number]]
    lines += [
        "\t".join(_fmt_nodes(v) if isinstance(v, tuple) else str(v) for v in r.values())
        for r in rows
    ]
    payload = {
        "table": number,
        "max_rank": max_rank,
        "rows": rows,
        "notes": notes,
    }
    return payload, "\n".join(lines + notes)


# name -> (handler, its --help line, {argument: add_argument options}), in help order
_COMMANDS = {
    "cartan": (_cmd_cartan, "Cartan matrix of a simple type", {"type": {}}),
    "icartan": (_cmd_icartan, "inverse Cartan matrix scaled by its determinant", {"type": {}}),
    "roots": (_cmd_roots, "positive roots in simple-root coordinates", {"type": {}}),
    "dim": (_cmd_dim, "dimension of the irreducible module of a highest weight",
            {"type": {}, "weight": {"help": "comma-separated coordinates, e.g. 1,0,2"}}),
    "dual": (_cmd_dual, "highest weight of the dual module", {"type": {}, "weight": {}}),
    "levi": (_cmd_levi, "Levi decomposition of the parabolic removing a node set",
             {"type": {}, "nodes": {"help": "comma-separated nodes, e.g. 7,8"}}),
    "grade": (_cmd_grade, "adjoint grading by the coefficient of one simple root",
              {"type": {}, "node": {}, "--mod": {"help": "fold grades modulo this period"}}),
    "branch": (_cmd_branch, "irreducible summands of each nonnegative grade",
               {"type": {}, "node": {}}),
    "valpha": (_cmd_valpha, "the grade-one module V(alpha) at a node", {"type": {}, "node": {}}),
    "minorbit": (_cmd_minorbit, "highest weight orbit data for a dominant weight",
                 {"type": {}, "weight": {}}),
    "invariants": (_cmd_invariants, "the m, r, d invariants with witnesses", {"type": {}}),
    "table": (_cmd_table, "reproduce a published summary table",
              {"number": {"metavar": "{2,3,4,5}"}, "--max-rank": {
                  "default": "12",
                  "help": f"largest classical rank (default 12, at most {MAX_TABLE_RANK})"}}),
}


def _invalid_choice(value: str, choices) -> str:
    """argparse's invalid-choice message in its 3.10-3.12 words: 3.13.13 lists
    the choices unquoted."""
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


class _Parser(argparse.ArgumentParser):
    """argparse that raises its errors as ValueError for main; two keep their 3.10-3.12 words,
    and an unknown option is named before a missing argument."""

    def error(self, message):
        raise ValueError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reports missing arguments before unknown options, so `dim A2
        # -x` would say that weight is required: when the same parse with
        # nothing required goes through and leaves arguments over, name those.
        try:
            return super().parse_known_args(args, namespace)
        except ValueError as err:
            required = [action for action in self._actions if action.required]
            for action in required:
                action.required = False
            try:
                extras = super().parse_known_args(args, namespace)[1]
            except ValueError:
                extras = []
            finally:
                for action in required:
                    action.required = True
            if extras:
                raise ValueError(f"unrecognized arguments: {' '.join(extras)}") from None
            raise err

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))

    def _parse_optional(self, arg_string):  # -hX: 3.13 would take -h and print the help
        if re.match(r"-\d", arg_string):  # a list such as -1,2 or -0_1 is an argument
            return None
        if re.match(r"-h+[^-=h]", arg_string):  # -X is no option: refuse X as 3.10-3.12 do
            message = f"ignored explicit argument {clipped(arg_string[2:].lstrip('h'))!r}"
            raise argparse.ArgumentError(self._option_string_actions["-h"], message)
        return super()._parse_optional(arg_string)


def _clip_arguments(message: str, argv: list[str]) -> str:
    """message with each argument longer than MAX_QUOTED cut by clipped, found raw
    or as its repr body; the VALUE of --opt=VALUE or -oVALUE counts as one too."""
    texts = [arg for arg in argv if len(arg) > MAX_QUOTED]
    texts += [v for arg in texts if arg[0] == "-" for v in (arg.partition("=")[2], arg[2:])]
    for text in sorted(texts, key=len, reverse=True):  # an argument before its value
        for form in (repr(text)[1:-1], text):  # the escaped form may contain the raw
            message = message.replace(form, clipped(form))
    return message


@cache
def _build_parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser with a subparser for each of names, in help order.

    main passes the one command it runs, when argv names one, because a
    process runs one command: all twelve subparsers take about 1.8 ms to
    build and one about 0.2 ms (2-vCPU VM, Python 3.11.7).  Top-level
    help, no arguments and an unknown command get every subparser.
    """
    # usage wrapped as by Python 3.10-3.12, not 3.13; so subcommands need prog
    indent = "\n" + " " * len("usage: minorb ")
    parser = _Parser(
        prog="minorb",
        usage=f"%(prog)s [-h]{indent}{{{','.join(_COMMANDS)}}}{indent}...",
        description="Exact root-system combinatorics and minimal-orbit invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="minorb")
    for name in names:
        _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a one-line JSON envelope")
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A leading -- ends the options, so the command follows it even where it
    # starts with a minus; argparse 3.10-3.13 would take the -- for the command.
    ended = argv[:1] == ["--"]
    if ended:
        argv = argv[1:]
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    with _all_digits():
        try:
            if ended and argv[:1] and argv[0][:1] == "-":
                raise ValueError(f"argument command: {_invalid_choice(argv[0], _COMMANDS)}")
            args = _build_parser(names).parse_args(argv)
            typ = None if args.command == "table" else _typ(args.type)
            payload, text = _COMMANDS[args.command][0](typ, args)
        except ValueError as err:
            print(f"error: {_clip_arguments(str(err), argv)}", file=sys.stderr)
            return 2
        if args.json:
            envelope = {
                "format": "minorb/1",
                "command": args.command,
                "type": None if typ is None else str(typ),
                "payload": payload,
            }
            print(json.dumps(envelope))
        else:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
