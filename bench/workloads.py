"""The workloads: seeded step lists, and the checks on their outputs.

A workload is a list of steps, each a JSON list whose first entry names
its kind.  The child process runs the steps against minorb; this module
only builds them and checks what came back, against ``reference``.

Why these three:

* ``tables`` is the paper's headline output, ``minorb table 2`` and
  ``table 3`` at rank 16.  Its time goes to invariants -> levi_data ->
  subdiagram_components and to dim_simple enumerating the roots of each
  new Levi component type.  It is the only workload that runs the cli
  and invariants layers.  The seed does not change it.
* ``weyl`` builds the positive roots of A/B/C/D at ranks 40 and 56 from
  cold caches and evaluates Weyl dimensions of seeded dominant weights.
  It never calls subdiagram_components, so it is the bypass workload for
  Levi and subdiagram work, and the one where building caches costs time
  instead of saving it.
* ``branching`` grades and branches the adjoint module at every node of
  A/B/C/D at rank 20 and of the exceptional types, then asks levi_data
  about seeded supports of 1-6 nodes and closure_is_smooth about seeded
  sparse weights.  The ambient roots are primed in set-up, so its time is
  many small calls on warm types; it is the only workload in grading and
  dim_irrep_product.
"""

from __future__ import annotations

import json
import random

import reference as ref

TABLES_MAX_RANK = 16
WEYL_RANKS = (40, 56)
WEYL_WEIGHTS_PER_TYPE = 20
BRANCHING_RANK = 20
BRANCHING_SUPPORTS = 800
BRANCHING_WEIGHTS = 400


def _tables(rng: random.Random) -> list[list]:
    return [["table", 2, TABLES_MAX_RANK], ["table", 3, TABLES_MAX_RANK]]


def _weyl(rng: random.Random) -> list[list]:
    names = [name for n in WEYL_RANKS for name in ref.type_names("ABCD", n)]
    steps = [["roots", name] for name in names]
    for name in names:
        n = ref.split(name)[1]
        for _ in range(WEYL_WEIGHTS_PER_TYPE):
            steps.append(["dim", name, [rng.randint(0, 2) for _ in range(n)]])
    return steps


def _branching(rng: random.Random) -> list[list]:
    names = ref.type_names("ABCD", BRANCHING_RANK) + list(ref.EXCEPTIONAL)
    rank = {name: ref.split(name)[1] for name in names}
    steps = [["node", name, i] for name in names for i in range(1, rank[name] + 1)]
    # Types take turns, so only the nodes and weights vary with the seed.
    for k in range(BRANCHING_SUPPORTS):
        name = names[k % len(names)]
        nodes = rng.sample(range(1, rank[name] + 1), rng.randint(1, min(6, rank[name])))
        steps.append(["levi", name, sorted(nodes)])
    for k in range(BRANCHING_WEIGHTS):
        name = names[k % len(names)]
        weight = [0] * rank[name]
        for i in rng.sample(range(rank[name]), rng.randint(1, min(3, rank[name]))):
            weight[i] = rng.choice((1, 1, 2, 3))
        steps.append(["smooth", name, weight])
    return steps


PLANS = {"tables": _tables, "weyl": _weyl, "branching": _branching}


def plan(workload: str, seed: int) -> list[list]:
    """The steps of a workload; the same seed gives the same steps."""
    return PLANS[workload](random.Random(seed))


def items(step: list) -> int:
    """Items a step completes: table rows for a table, otherwise one."""
    return len(ref.table_types(step[2])) if step[0] == "table" else 1


class Checker:
    """Counts the failed items of each step's output, caching reference values."""

    def __init__(self) -> None:
        self._roots: dict[str, set] = {}
        self._expected: dict[str, object] = {}

    def failed(self, step: list, output) -> int:
        """How many of the step's items the output gets wrong; None fails all."""
        if output is None:
            return items(step)
        if step[0] == "table":
            return self._table(step, output)
        key = json.dumps(step)
        if key not in self._expected:
            self._expected[key] = getattr(self, "_expect_" + step[0])(*step[1:])
        if step[0] == "node":
            return int(not self._node_ok(step[1], step[2], output, self._expected[key]))
        return int(output != self._expected[key])

    def _table(self, step: list, output: dict) -> int:
        expected = ref.table_rows(step[1], step[2])
        try:
            envelope = json.loads(output["stdout"])
            rows = envelope["payload"]["rows"]
            head_ok = (
                output["code"] == 0
                and envelope["format"] == "minorb/1"
                and envelope["command"] == "table"
                and envelope["payload"]["table"] == step[1]
            )
        except (ValueError, KeyError, TypeError):
            return len(expected)
        if not head_ok:
            return len(expected)
        return sum(1 for k, row in enumerate(expected) if k >= len(rows) or rows[k] != row)

    def _ref_roots(self, name: str) -> set:
        if name not in self._roots:
            self._roots[name] = ref.positive_roots(name)
        return self._roots[name]

    def _expect_roots(self, name: str) -> int:
        return ref.num_positive_roots(name)

    def _expect_dim(self, name: str, weight: list[int]) -> str:
        return format(ref.weyl_dim(name, weight), "x")

    def _expect_levi(self, name: str, removed: list[int]) -> dict:
        roots = self._ref_roots(name)
        n = ref.split(name)[1]
        u = ref.dim_u(roots, removed)
        return {
            "kept": [i for i in range(1, n + 1) if i not in removed],
            "dim_u": u,
            "dim_levi_ss": n + 2 * len(roots) - len(removed) - 2 * u,
        }

    def _expect_smooth(self, name: str, weight: list[int]) -> bool:
        return ref.closure_is_smooth(name, weight)

    def _expect_node(self, name: str, node: int) -> dict:
        counts = ref.grade_counts(self._ref_roots(name), node)
        top = max(counts)
        dims = {0: ref.split(name)[1] + 2 * counts[0]}
        for k in range(1, top + 1):
            dims[k] = dims[-k] = counts[k]
        return {"dims": sorted([k, v] for k, v in dims.items()), "max_grade": top, "valpha": counts[1]}

    def _node_ok(self, name: str, node: int, output: dict, expected: dict) -> bool:
        """Grade dims match the reference roots, each grade's branch summands
        add up to its dim, and V(alpha) by the Weyl route equals the count of
        grade-one roots.  E8 node 7 must also match the published transcript."""
        if any(output[key] != expected[key] for key in expected):
            return False
        dims = dict(expected["dims"])
        grades = dict(output["branch"])
        if sorted(grades) != list(range(expected["max_grade"] + 1)):
            return False
        if any(sum(s[1] for s in summands) != dims[k] for k, summands in grades.items()):
            return False
        if (name, node) != ("E8", 7):
            return True
        positive = {k: grades[k] for k in ref.E8_NODE7_SUMMANDS}
        return (
            dims == ref.E8_NODE7_DIMS | {-k: v for k, v in ref.E8_NODE7_DIMS.items()}
            and positive == ref.E8_NODE7_SUMMANDS
            and sorted(s[1] for s in grades[0]) == ref.E8_NODE7_GRADE0_DIMS
        )
