"""The benchmark's own tests: its reference math, its checkers, the child
wall-clock cap and the tracer.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import copy
import json
import sys

import child
import reference as ref
import run
import spans
import workloads

if str(run.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(run.ROOT / "src"))

from minorb import parse_type  # noqa: E402


def outputs(steps: list[list]) -> list:
    """Run steps in this process the way a child does, and encode them."""
    types = {s[1]: parse_type(s[1]) for s in steps if s[0] != "table"}
    return [child.encode(s[0], child.build(s, types)()) for s in steps]


def test_reference_known_values():
    assert ref.weyl_dim("B3", [0, 0, 1]) == 8
    assert ref.weyl_dim("D4", [1, 0, 0, 0]) == 8
    assert ref.weyl_dim("D5", [0, 0, 0, 0, 1]) == 16
    assert ref.weyl_dim("C3", [1, 0, 0]) == 6
    assert ref.weyl_dim("A2", [1, 1]) == 8
    sizes = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}
    assert {name: len(ref.positive_roots(name)) for name in sizes} == sizes
    for name in ("A7", "B6", "C5", "D7"):
        assert len(ref.positive_roots(name)) == ref.num_positive_roots(name)


def test_plans_are_seeded():
    for workload in workloads.PLANS:
        assert workloads.plan(workload, 3) == workloads.plan(workload, 3)
    assert workloads.plan("weyl", 3) != workloads.plan("weyl", 4)
    assert workloads.plan("branching", 3) != workloads.plan("branching", 4)


def test_tables_checker_flags_corruption():
    steps = [["table", 2, 6], ["table", 3, 6]]
    out = outputs(steps)
    checker = workloads.Checker()
    assert [checker.failed(s, o) for s, o in zip(steps, out)] == [0, 0]

    envelope = json.loads(out[0]["stdout"])
    envelope["payload"]["rows"][-1]["d"] += 1
    bad = dict(out[0], stdout=json.dumps(envelope))
    assert checker.failed(steps[0], bad) == 1
    assert checker.failed(steps[1], dict(out[1], stdout="garbage")) == workloads.items(steps[1])
    assert checker.failed(steps[1], dict(out[1], code=2)) == workloads.items(steps[1])


def test_weyl_checker_flags_corruption():
    steps = [["roots", "B9"], ["dim", "D7", [2, 0, 1, 0, 0, 1, 2]], ["dim", "A5", [1, 2, 0, 0, 1]]]
    out = outputs(steps)
    checker = workloads.Checker()
    assert [checker.failed(s, o) for s, o in zip(steps, out)] == [0, 0, 0]
    assert checker.failed(steps[0], out[0] - 1) == 1
    assert checker.failed(steps[1], format(int(out[1], 16) + 1, "x")) == 1
    assert checker.failed(steps[2], None) == 1


def test_branching_checker_flags_corruption():
    steps = [
        ["node", "E8", 7],
        ["node", "B6", 3],
        ["levi", "D7", [2, 5]],
        ["smooth", "A5", [1, 0, 0, 0, 0]],
        ["smooth", "C4", [0, 2, 0, 0]],
    ]
    out = outputs(steps)
    checker = workloads.Checker()
    assert [checker.failed(s, o) for s, o in zip(steps, out)] == [0] * len(steps)
    assert out[3] is True and out[4] is False

    def corrupt(k, edit):
        bad = copy.deepcopy(out[k])
        edit(bad)
        return checker.failed(steps[k], bad)

    grade1 = lambda node: node["branch"][1][1][0]  # noqa: E731
    # the E8 node-7 transcript: same dims, wrong highest weight
    assert corrupt(0, lambda n: grade1(n)[0][0].reverse()) == 1
    # summands that no longer add up to their grade
    assert corrupt(1, lambda n: grade1(n).__setitem__(1, grade1(n)[1] + 1)) == 1
    assert corrupt(1, lambda n: n.__setitem__("valpha", n["valpha"] + 1)) == 1
    assert corrupt(2, lambda n: n.__setitem__("dim_u", n["dim_u"] - 1)) == 1
    assert corrupt(2, lambda n: n.pop("kept")) == 1
    assert checker.failed(steps[3], False) == 1


def test_child_cap_fails_every_item():
    steps = [["roots", "B9"], ["dim", "B9", [1] * 9]]
    reply, why = run.run_child({"steps": steps}, timeout=0.01)
    assert reply is None and "cap" in why
    attempted, failed, latencies = run.score(steps, reply, workloads.Checker())
    assert attempted == failed == 2 and latencies == []


def test_traced_child_reports_every_layer():
    steps = [["roots", "B5"], ["dim", "B5", [1, 0, 0, 0, 1]], ["levi", "D6", [3]]]
    reply, why = run.run_child({"steps": steps, "trace": True}, timeout=60)
    assert reply is not None, why
    assert len(reply["calib_s"]) == 2 and run.scale_of(reply) > 0
    layers = reply["layers"]
    assert set(layers) | {"trace.overhead_ratio"} == set(spans.METRICS)
    assert layers["repdim.dim_irrep.calls"] == 1
    # B5, D6, and the Levi components A2 and A3 left by removing node 3 of D6
    assert layers["rootsys.positive_roots.roots_built"] == 25 + 30 + 3 + 6
    assert layers["repdim.dim_irrep.roots_scanned"] == 25
    assert layers["parabolic.levi_data.calls"] == layers["rootsys.subdiagram_components.calls"] == 1
    assert layers["invariants.compute_d.calls"] == layers["cli.main.calls"] == 0
    assert 0 < layers["parabolic.levi_data.self_s"] < layers["parabolic.levi_data.total_s"]
    attempted, failed, _ = run.score(steps, reply, workloads.Checker())
    assert (attempted, failed) == (3, 0)
