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
import sys

from .grading import branch_adjoint, grade_adjoint, lowest_weight_of_v_alpha
from .invariants import compute_d, compute_m, compute_r, full_report
from .parabolic import closure_is_smooth, levi_data, orbit_type, parabolic_of_weight
from .repdim import dim_irrep, dual_weight
from .rootsys import (
    SimpleType,
    cartan_matrix,
    dim_simple,
    inverse_cartan,
    parse_type,
    positive_roots,
    table_types,
)


def _typ(args) -> SimpleType:
    typ = parse_type(args.type)
    raw = args.type.strip().upper()
    if raw != str(typ):
        print(f"note: {raw} taken in canonical form {typ}", file=sys.stderr)
    return typ


def _ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse {what} {text!r}; expected comma-separated integers"
        ) from None


def _fmt_matrix(rows) -> str:
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def _fmt_weight(w) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _fmt_weights(ws) -> str:
    return " ".join(_fmt_weight(w) for w in ws) if ws else "-"


def _fmt_nodes(nodes) -> str:
    return ",".join(str(i) for i in nodes) if nodes else "-"


def _component_str(comp) -> str:
    return f"{comp.typ}({','.join(str(i) for i in comp.nodes)})"


def _cmd_cartan(args):
    typ = _typ(args)
    a = cartan_matrix(typ)
    return str(typ), {"matrix": [list(r) for r in a]}, _fmt_matrix(a)


def _cmd_icartan(args):
    typ = _typ(args)
    scaled, det = inverse_cartan(typ)
    payload = {"det": det, "det_times_inverse": [list(r) for r in scaled]}
    return str(typ), payload, f"det {det}\n" + _fmt_matrix(scaled)


def _cmd_roots(args):
    typ = _typ(args)
    pos = positive_roots(typ)
    payload = {"count": len(pos), "roots": [list(r) for r in pos]}
    return str(typ), payload, "\n".join(" ".join(map(str, r)) for r in pos)


def _cmd_dim(args):
    typ = _typ(args)
    w = _ints(args.weight, "weight")
    value = dim_irrep(typ, w)
    return str(typ), {"weight": list(w), "dim": value}, str(value)


def _cmd_dual(args):
    typ = _typ(args)
    w = _ints(args.weight, "weight")
    dual = dual_weight(typ, w)
    payload = {"weight": list(w), "dual": list(dual)}
    return str(typ), payload, ",".join(str(c) for c in dual)


def _cmd_levi(args):
    typ = _typ(args)
    data = levi_data(typ, _ints(args.nodes, "node set"))
    lines = [
        f"{typ} remove {_fmt_nodes(data.removed)}",
        f"kept: {_fmt_nodes(data.kept)}",
    ]
    lines.extend(f"component: {_component_str(c)}" for c in data.components)
    lines += [
        f"dim levi ss: {data.dim_levi_ss}",
        f"dim levi: {data.dim_levi}",
        f"dim u: {data.dim_u}",
        f"dim parabolic: {data.dim_parabolic}",
    ]
    payload = {
        "removed": list(data.removed),
        "kept": list(data.kept),
        "components": [
            {"type": str(c.typ), "nodes": list(c.nodes)} for c in data.components
        ],
        "dim_levi_ss": data.dim_levi_ss,
        "dim_levi": data.dim_levi,
        "dim_u": data.dim_u,
        "dim_parabolic": data.dim_parabolic,
    }
    return str(typ), payload, "\n".join(lines)


def _cmd_grade(args):
    typ = _typ(args)
    rep = grade_adjoint(typ, args.node)
    if args.mod is not None:
        if args.mod < 1:
            raise ValueError("--mod must be a positive integer")
        agg: dict[int, int] = {}
        for g, d in rep.dims.items():
            agg[g % args.mod] = agg.get(g % args.mod, 0) + d
        pairs = sorted(agg.items())
        head = f"{typ} node {args.node} mod {args.mod}"
        payload = {"node": args.node, "mod": args.mod, "dims": [list(p) for p in pairs]}
    else:
        pairs = sorted(rep.dims.items())
        head = f"{typ} node {args.node} max_grade {rep.max_grade}"
        payload = {
            "node": args.node,
            "max_grade": rep.max_grade,
            "dims": [list(p) for p in pairs],
        }
    text = "\n".join([head] + [f"{g}\t{d}" for g, d in pairs])
    return str(typ), payload, text


def _cmd_branch(args):
    typ = _typ(args)
    rep = branch_adjoint(typ, args.node)
    lines = [f"{typ} node {args.node} max_grade {rep.max_grade}"]
    grades = []
    for k in sorted(rep.grades):
        summands = []
        for s in rep.grades[k]:
            row = f"{k}\t{_fmt_weights(s.weights)}\t{s.dim}"
            if s.torus:
                row += "\ttorus"
            lines.append(row)
            summands.append(
                {
                    "weights": [list(w) for w in s.weights],
                    "dim": s.dim,
                    "torus": s.torus,
                }
            )
        grades.append({"grade": k, "summands": summands})
    payload = {"node": args.node, "max_grade": rep.max_grade, "grades": grades}
    return str(typ), payload, "\n".join(lines)


def _cmd_valpha(args):
    typ = _typ(args)
    data = lowest_weight_of_v_alpha(typ, args.node)
    levi = " ".join(_component_str(c) for c in data.levi.components) or "-"
    lines = [
        f"{typ} node {args.node}",
        f"levi: {levi}",
        f"lowest: {_fmt_weights(data.lowest)}",
        f"highest: {_fmt_weights(data.highest)}",
        f"dim: {data.dim}",
    ]
    payload = {
        "node": args.node,
        "levi": [
            {"type": str(c.typ), "nodes": list(c.nodes)}
            for c in data.levi.components
        ],
        "lowest": [list(w) for w in data.lowest],
        "highest": [list(w) for w in data.highest],
        "dim": data.dim,
    }
    return str(typ), payload, "\n".join(lines)


def _cmd_minorbit(args):
    typ = _typ(args)
    w = _ints(args.weight, "weight")
    para = parabolic_of_weight(typ, w)
    primitive, multiplier = orbit_type(typ, w)
    dim_orbit = para.dim_u + 1
    dim_module = dim_irrep(typ, w)
    smooth = closure_is_smooth(typ, w)
    lines = [
        f"{typ} weight {_fmt_weight(w)}",
        f"primitive: {_fmt_weight(primitive)}",
        f"multiplier: {multiplier}",
        f"removed: {_fmt_nodes(para.removed)}",
        f"dim orbit: {dim_orbit}",
        f"dim module: {dim_module}",
        f"smooth: {'yes' if smooth else 'no'}",
    ]
    payload = {
        "weight": list(w),
        "primitive": list(primitive),
        "multiplier": multiplier,
        "removed": list(para.removed),
        "dim_orbit": dim_orbit,
        "dim_module": dim_module,
        "smooth": smooth,
    }
    return str(typ), payload, "\n".join(lines)


def _cmd_invariants(args):
    typ = _typ(args)
    rep = full_report(typ)
    lines = [
        f"{typ} dim {rep.dim}",
        f"m: {rep.m.m} (p {rep.m.p}, nodes {_fmt_nodes(rep.m.argmin)})",
        f"r: {rep.r.r} (H = {rep.r.witness})",
        f"d: {rep.d.d} (witness {rep.d.witness}, dim {rep.d.witness.dim_h})",
        f"d = r: {'yes' if rep.d_equals_r else 'no'}",
        "certificates:",
    ]
    lines.extend(
        f"  {c.source} ({_fmt_nodes(c.nodes)}): {c.detail}"
        for c in rep.d.certificates
    )
    lines.append(f"smooth fundamentals: {_fmt_nodes(rep.smooth_fundamentals)}")
    d_witness = rep.d.witness
    payload = {
        "dim": rep.dim,
        "m": {"m": rep.m.m, "p": rep.m.p, "argmin": list(rep.m.argmin)},
        "r": {
            "r": rep.r.r,
            "witness": {
                "factors": [str(f) for f in rep.r.witness.factors],
                "dim_h": rep.r.witness.dim_h,
            },
        },
        "d": {
            "d": rep.d.d,
            "witness": {
                "factors": [str(f) for f in d_witness.reductive_factors],
                "unipotent_support": (
                    None
                    if d_witness.unipotent_support is None
                    else list(d_witness.unipotent_support)
                ),
                "dim_h": d_witness.dim_h,
            },
            "certificates": [
                {
                    "source": c.source,
                    "nodes": list(c.nodes),
                    "value": c.value,
                    "detail": c.detail,
                }
                for c in rep.d.certificates
            ],
        },
        "d_equals_r": rep.d_equals_r,
        "smooth_fundamentals": list(rep.smooth_fundamentals),
    }
    return str(typ), payload, "\n".join(lines)


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


def _cmd_table(args):
    if args.max_rank < 1:
        raise ValueError("--max-rank must be a positive integer")
    rows = []
    for typ in table_types(args.max_rank):
        if args.number == 2:
            m = compute_m(typ)
            r = compute_r(typ)
            d = compute_d(typ)
            rows.append(
                {
                    "type": str(typ),
                    "dim": dim_simple(typ),
                    "m": m.m,
                    "d": d.d,
                    "r": r.r,
                    "h": str(r.witness),
                }
            )
        elif args.number == 3:
            m = compute_m(typ)
            dims = [
                dim_irrep(typ, tuple(int(k == i) for k in range(1, typ.rank + 1)))
                for i in m.argmin
            ]
            rows.append(
                {
                    "type": str(typ),
                    "m": m.m,
                    "p": m.p,
                    "nodes": list(m.argmin),
                    "dims": dims,
                }
            )
        elif args.number == 4:
            r = compute_r(typ)
            rows.append(
                {
                    "type": str(typ),
                    "r": r.r,
                    "h": str(r.witness),
                    "dim_h": r.witness.dim_h,
                }
            )
        else:
            d = compute_d(typ)
            rows.append(
                {
                    "type": str(typ),
                    "d": d.d,
                    "witness": str(d.witness),
                    "dim_h": d.witness.dim_h,
                }
            )
    lines = [_TABLE_HEADERS[args.number]]
    lines.extend(
        "\t".join(_fmt_nodes(v) if isinstance(v, list) else str(v) for v in row.values())
        for row in rows
    )
    notes = _TABLE_NOTES[args.number]
    lines.extend(notes)
    payload = {
        "table": args.number,
        "max_rank": args.max_rank,
        "rows": rows,
        "notes": notes,
    }
    return None, payload, "\n".join(lines)


_HANDLERS = {
    "cartan": _cmd_cartan,
    "icartan": _cmd_icartan,
    "roots": _cmd_roots,
    "dim": _cmd_dim,
    "dual": _cmd_dual,
    "levi": _cmd_levi,
    "grade": _cmd_grade,
    "branch": _cmd_branch,
    "valpha": _cmd_valpha,
    "minorbit": _cmd_minorbit,
    "invariants": _cmd_invariants,
    "table": _cmd_table,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a one-line JSON envelope"
    )
    parser = argparse.ArgumentParser(
        prog="minorb",
        description="Exact root-system combinatorics and minimal-orbit invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text)

    add("cartan", "Cartan matrix of a simple type").add_argument("type")
    add("icartan", "inverse Cartan matrix scaled by its determinant").add_argument(
        "type"
    )
    add("roots", "positive roots in simple-root coordinates").add_argument("type")
    p = add("dim", "dimension of the irreducible module of a highest weight")
    p.add_argument("type")
    p.add_argument("weight", help="comma-separated coordinates, e.g. 1,0,2")
    p = add("dual", "highest weight of the dual module")
    p.add_argument("type")
    p.add_argument("weight")
    p = add("levi", "Levi decomposition of the parabolic removing a node set")
    p.add_argument("type")
    p.add_argument("nodes", help="comma-separated nodes, e.g. 7,8")
    p = add("grade", "adjoint grading by the coefficient of one simple root")
    p.add_argument("type")
    p.add_argument("node", type=int)
    p.add_argument("--mod", type=int, help="fold grades modulo this period")
    p = add("branch", "irreducible summands of each nonnegative grade")
    p.add_argument("type")
    p.add_argument("node", type=int)
    p = add("valpha", "the grade-one module V(alpha) at a node")
    p.add_argument("type")
    p.add_argument("node", type=int)
    p = add("minorbit", "highest weight orbit data for a dominant weight")
    p.add_argument("type")
    p.add_argument("weight")
    add("invariants", "the m, r, d invariants with witnesses").add_argument("type")
    p = add("table", "reproduce a published summary table")
    p.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p.add_argument(
        "--max-rank", type=int, default=12, help="largest classical rank (default 12)"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        type_label, payload, text = _HANDLERS[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        envelope = {
            "format": "minorb/1",
            "command": args.command,
            "type": type_label,
            "payload": payload,
        }
        print(json.dumps(envelope))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
