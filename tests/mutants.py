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
        "_suffix_form's segments stop one short of j = last",
        "src/minorb/rootsys.py",
        "suf[1 : last + 1]",
        "suf[1:last]",
        (ROOTS + "test_root_order_values_are_dot_products", "tests/test_repdim.py"),
    ),
    Mutant(
        "_height_pass steps up only when p_i > <beta, coroot_i> + 1",
        "src/minorb/rootsys.py",
        "if (p := depths.get(i, 0)) > c:",
        "if (p := depths.get(i, 0)) > c + 1:",
        (ROOTS + "test_height_pass_agrees_with_the_closed_forms", ROOTS + "test_positive_roots_fingerprint"),
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
