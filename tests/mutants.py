"""Recorded mutants: near neighbours of the library that the tests must tell apart.

    python tests/mutants.py

Each entry of MUTANTS names a file, relative to the repository root, a text
that occurs in it exactly once, the text that replaces it, and the pytest
node ids that must fail under the swap.  For each entry the script copies
src/, tests/, schema/ and pyproject.toml to a new temporary directory, makes
the one swap there, and runs pytest on the listed ids alone, with the
copy's src first on PYTHONPATH.  Every listed id must fail at least once (a
test function stands for all its parametrized cases), so a mutant is killed
only if each of its recorded killers still kills it.  The run exits 1 if an
old text does not occur exactly once, so the list keeps up with the code,
or if any listed id passes.  Mutation analysis in the sense of DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978.  Stdlib only, besides pytest; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "schema", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


ROOTS = "tests/test_rootsys.py::"
REPDIM = "tests/test_repdim.py::"
PARABOLIC = "tests/test_parabolic.py::"
INVARIANTS = "tests/test_invariants.py::"
CLI = "tests/test_cli.py::"
DEEP = "tests/deep.py::test_deep"

MUTANTS = (
    Mutant(
        "D's fork root before the run of ones through node n",
        "src/minorb/rootsys.py",
        """            if h > 2:
                roots += block[:1]
            if h < n:
                roots.append(fork[h - 1 : n + h - 3] + (0, 1))
""",
        """            if h < n:
                roots.append(fork[h - 1 : n + h - 3] + (0, 1))
            if h > 2:
                roots += block[:1]
""",
        (ROOTS + "test_positive_roots_fingerprint", ROOTS + "test_a_d_roots_come_in_root_order_from_one_build"),
    ),
    Mutant(
        "the sums' least start one lower, n - h",
        "src/minorb/rootsys.py",
        "max(n - h, -1), -1)",
        "max(n - h - 1, -1), -1)",
        (ROOTS + "test_positive_roots_fingerprint", ROOTS + "test_a_d_roots_come_in_root_order_from_one_build"),
    ),
    Mutant(
        "alpha_(n-1) + alpha_n kept on D at height 2",
        "src/minorb/rootsys.py",
        "            if h > 2:\n",
        "            if h > 1:\n",
        (ROOTS + "test_positive_roots_fingerprint", ROOTS + "test_positive_roots_match_reflection_closure"),
    ),
    Mutant(
        "_value_multiset's segments stop one short of j = end",
        "src/minorb/rootsys.py",
        "suf[1 : end + 1]",
        "suf[1:end]",
        (
            ROOTS + "test_root_order_values_are_dot_products",
            REPDIM + "test_pinned_dimensions",
            REPDIM + "test_trivial_and_weyl_vector",
        ),
    ),
    Mutant(
        "_height_pass steps up only when p_i > <beta, coroot_i> + 1",
        "src/minorb/rootsys.py",
        "if (p := depths.get(i, 0)) > c:",
        "if (p := depths.get(i, 0)) > c + 1:",
        (ROOTS + "test_height_pass_agrees_with_the_closed_forms", ROOTS + "test_positive_roots_fingerprint"),
    ),
    Mutant(
        "_value_counts packs a form whose simple values sum to exactly n**2 no more",
        "src/minorb/rootsys.py",
        "sum(simple) > n * n:",
        "sum(simple) >= n * n:",
        (ROOTS + "test_value_counts_cutoff",),
    ),
    Mutant(
        "_value_counts packs a form whose simple values sum to n**2 + 1",
        "src/minorb/rootsys.py",
        "sum(simple) > n * n:",
        "sum(simple) > n * n + 1:",
        (ROOTS + "test_value_counts_cutoff",),
    ),
    Mutant(
        "_value_counts takes the pairs i <= j for B and D and i < j for C",
        "src/minorb/rootsys.py",
        "square = p * p - doubled if first else p * p + doubled",
        "square = p * p + doubled if first else p * p - doubled",
        (ROOTS + "test_value_counts_cutoff", REPDIM + "test_pinned_dimensions"),
    ),
    Mutant(
        "dim_irrep subtracts no rho counts",
        "src/minorb/repdim.py",
        "powers[v] = powers.get(v, 0) - e",
        "powers[v] = powers.get(v, 0)",
        (REPDIM + "test_pinned_dimensions", REPDIM + "test_trivial_and_weyl_vector"),
    ),
    Mutant(
        "dim_irrep's prime-power route subtracts no rho counts",
        "src/minorb/repdim.py",
        "net[v - 1] -= e",
        "net[v - 1] -= 0",
        (
            REPDIM + "test_pinned_dimensions",
            REPDIM + "test_trivial_and_weyl_vector",
            REPDIM + "test_dimension_routes_at_the_cutoff",
        ),
    ),
    Mutant(
        "dim_irrep's prime-power route subtracts rho one place late",
        "src/minorb/repdim.py",
        "net[v - 1] -= e",
        "net[v] -= e",
        (
            REPDIM + "test_pinned_dimensions",
            REPDIM + "test_trivial_and_weyl_vector",
            REPDIM + "test_dimension_routes_at_the_cutoff",
            REPDIM + "test_dimension_matches_plain_weyl_product",
            REPDIM + "test_dimension_ignores_symmetrizer_scale",
        ),
    ),
    Mutant(
        "dim_irrep counts the multiples of q one place late",
        "src/minorb/repdim.py",
        "[sum(net[q - 1 :: q]) for q in qs",
        "[sum(net[q :: q]) for q in qs",
        (REPDIM + "test_pinned_dimensions", REPDIM + "test_dimension_routes_at_the_cutoff"),
    ),
    Mutant(
        "_prime_powers lists the primes but not their higher powers",
        "src/minorb/repdim.py",
        "            pairs += ((p**k, p) for k in range(2, limit.bit_length()) if p**k <= limit)\n",
        "",
        (
            REPDIM + "test_prime_powers_match_trial_division",
            REPDIM + "test_pinned_dimensions",
            REPDIM + "test_dimension_routes_at_the_cutoff",
        ),
    ),
    Mutant(
        "_natural_nodes leaves out A's omega_n",
        "src/minorb/parabolic.py",
        '("A", n): (1, n)',
        '("A", n): (1,)',
        (PARABOLIC + "test_smoothness_matches_the_weyl_route_on_fundamentals", INVARIANTS + "test_smooth_fundamentals"),
    ),
    Mutant(
        "_natural_nodes leaves out C's node 1",
        "src/minorb/parabolic.py",
        ', ("C", n): (1,)',
        "",
        (
            INVARIANTS + "test_smooth_fundamentals",
            PARABOLIC + "test_smoothness_matches_the_weyl_route_on_fundamentals",
            PARABOLIC + "test_smoothness_matches_the_weyl_route_on_sparse_weights",
            DEEP + "[test_smooth_fundamentals-C128]",
        ),
    ),
    Mutant(
        "compute_m reads the support masks in reverse node order",
        "src/minorb/invariants.py",
        "for mask in support_masks(typ)]",
        "for mask in reversed(support_masks(typ))]",
        (INVARIANTS + "test_m_from_hilbert_polynomial_differences", INVARIANTS + "test_m_table"),
    ),
    Mutant(
        "compute_d's floor on r(L') at an end node one notch high, 2n - 2",
        "src/minorb/invariants.py",
        "max(2, 2 * n - 3)",
        "max(2, 2 * n - 2)",
        (
            INVARIANTS + "test_winner_certificates_match_every_pair_evaluation",
            INVARIANTS + "test_compute_d_evaluates_few_refined_bounds",
            INVARIANTS + "test_d_certificates",
        ),
    ),
    Mutant(
        "compute_d pairs only the nodes with dim u(i) <= r // 2, not r - 2",
        "src/minorb/invariants.py",
        "x.bit_count() <= r_value - 2]",
        "x.bit_count() <= r_value // 2]",
        (
            INVARIANTS + "test_winner_certificates_match_every_pair_evaluation",
            INVARIANTS + "test_d_certificates",
        ),
    ),
    Mutant(
        "an argument that starts with a minus and a digit is an option",
        "src/minorb/cli.py",
        ' or arg[1:2].isdecimal():',
        ':',
        (CLI + "test_lists_starting_with_a_minus_reach_the_library_checks",),
    ),
    Mutant(
        "a long option is named only in full, never by a prefix (-h... still names --help)",
        "src/minorb/cli.py",
        """    name = "--h" if arg[1] == "h" else arg.partition("=")[0]
    found = [o for o in options if len(name) > 2 and o.startswith(name)]
""",
        """    name = "--help" if arg[1] == "h" else arg.partition("=")[0]
    found = [o for o in options if len(name) > 2 and o == name]
""",
        (CLI + "test_table_rows",),
    ),
    Mutant(
        "table 5's row reads r's result, not d's, off full_report",
        "src/minorb/cli.py",
        "d = full_report(typ).d",
        "d = full_report(typ).r",
        (CLI + "test_table_rows",),
    ),
    Mutant(
        "a value option takes the next argument even when that is an option",
        "src/minorb/cli.py",
        """                if _option(value, options) is not None:
                    raise ValueError(f"argument {name}: expected one argument")
""",
        "",
        (CLI + "test_argparse_errors_of_normal_size_stay_whole",),
    ),
)


def failed_ids(report: Path) -> list[str]:
    """The failed or erring cases of a pytest junit report, as path::name ids."""
    out = []
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "")
            out.append(module.replace(".", "/") + ".py::" + case.get("name", ""))
    return out


def survivors(mutant: Mutant, work: Path) -> list[str]:
    """The listed ids that pass with the mutant applied to a copy under work."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, work / name)
    target = work / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))
    report = work / "report.xml"
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}"]
    subprocess.run([*command, *mutant.killers], cwd=work, env=env, stdout=subprocess.DEVNULL)
    failed = failed_ids(report) if report.exists() else []
    return [k for k in mutant.killers if not any(f == k or f.startswith((k + "[", k + "::")) for f in failed)]


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as work:
            left = survivors(mutant, Path(work))
        verdict = "killed" if not left else "SURVIVED " + ", ".join(left)
        print(f"{time.perf_counter() - start:5.1f} s  {mutant.name}: {verdict}")
        alive += bool(left)
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
