"""One benchmark child: runs a workload's steps against minorb once.

Usage: ``python child.py T0`` with a job as JSON on stdin.  T0 is the
CLOCK_MONOTONIC reading the parent took just before starting this
process, so set-up time covers interpreter start, import and priming.
The child prints one JSON line: set-up time and the time of a fixed
calibration job, then for a full run the wall and CPU time of the
measured phase, each step's time, the encoded outputs, ru_maxrss and,
when traced, the per-layer summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds the host currently takes for a fixed pure-Python job that never
    touches minorb: 40 reference root closures of E8 and of D10."""
    import reference

    start = time.perf_counter()
    for _ in range(40):
        reference.positive_roots("E8")
        reference.positive_roots("D10")
    return time.perf_counter() - start


def _table(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _node(grading, typ, node: int):
    return (
        grading.branch_adjoint(typ, node),
        grading.lowest_weight_of_v_alpha(typ, node),
        grading.grade_adjoint(typ, node),
    )


def build(step: list, types: dict):
    """A call that runs one step.  Functions are looked up on their modules
    at call time, so a tracer installed earlier sees every call."""
    from minorb import cli, grading, parabolic, repdim, rootsys

    kind, args = step[0], step[1:]
    if kind == "table":
        argv = ["table", str(args[0]), "--json", "--max-rank", str(args[1])]
        return lambda: _table(cli, argv)
    typ = types[args[0]]
    if kind == "roots":
        return lambda: rootsys.positive_roots(typ)
    if kind == "dim":
        weight = tuple(args[1])
        return lambda: repdim.dim_irrep(typ, weight)
    if kind == "node":
        return lambda: _node(grading, typ, args[1])
    if kind == "levi":
        return lambda: parabolic.levi_data(typ, args[1])
    if kind == "smooth":
        weight = tuple(args[1])
        return lambda: parabolic.closure_is_smooth(typ, weight)
    raise ValueError(f"unknown step kind {kind!r}")


def encode(kind: str, raw):
    """The JSON form of a step's result that the parent's checker reads."""
    if kind == "table":
        return {"code": raw[0], "stdout": raw[1]}
    if kind == "roots":
        return len(raw)
    if kind == "dim":
        return format(raw, "x")  # hex: no digit limit on huge ints
    if kind == "levi":
        return {"kept": list(raw.kept), "dim_u": raw.dim_u, "dim_levi_ss": raw.dim_levi_ss}
    if kind == "node":
        branch, valpha, grading = raw
        return {
            "dims": sorted([k, v] for k, v in grading.dims.items()),
            "max_grade": grading.max_grade,
            "valpha": valpha.dim,
            "branch": [
                [k, [[[list(w) for w in s.weights], s.dim] for s in summands]]
                for k, summands in sorted(branch.grades.items())
            ],
        }
    return raw


def prime(steps: list[list], types: dict) -> None:
    """Warm the ambient root caches of the types that node queries use."""
    from minorb import rootsys

    for name in dict.fromkeys(step[1] for step in steps if step[0] == "node"):
        rootsys.positive_roots(types[name])
        rootsys.highest_root(types[name])


def main(t0: float) -> None:
    job = json.load(sys.stdin)
    from minorb import rootsys

    steps = job["steps"]
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    types = {s[1]: rootsys.parse_type(s[1]) for s in steps if s[0] != "table"}
    prime(steps, types)
    calls = [build(step, types) for step in steps]
    setup_s = _now() - t0
    if job.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "calib_s": [calibrate()]}))
        return

    calib_s = [calibrate()]
    raw, errors, step_ns = [], [], []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    if tracer:
        tracer.start()
    clock = time.perf_counter_ns
    start = clock()
    for call in calls:
        t = clock()
        try:
            raw.append(call())
            errors.append(None)
        except Exception as err:  # one failed step must not end the run
            raw.append(None)
            errors.append(f"{type(err).__name__}: {err}")
        step_ns.append(clock() - t)
    wall_ns = clock() - start
    if tracer:
        tracer.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    calib_s.append(calibrate())

    result = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "wall_s": wall_ns / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime - cpu0,
        "step_ns": step_ns,
        "outputs": [None if r is None else encode(s[0], r) for s, r in zip(steps, raw)],
        "errors": errors,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer:
        result["layers"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(float(sys.argv[1]))
