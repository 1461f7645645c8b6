"""The minorb benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.

Stdlib only.  The library runs from ``src`` on PYTHONPATH, in child
processes started one at a time, without ``-O``.  Each child starts cold,
as a command-line user does: a fresh interpreter with empty caches.
First one discarded warm-up child compiles the bytecode, then ten
set-up-only children time set-up alone, then full children run the
workload's steps until ``--seconds`` have passed.  A child that outlives
its wall-clock cap is killed and fails all its items.  Every child's
outputs are checked here against ``reference``, never against minorb.

Times are reported in reference seconds.  A shared host's speed can drift
by 2x over minutes as other tenants load it, which swamps the code's own
run-to-run spread.  So every child also times a fixed job that
never touches minorb (``child.calibrate``), around its measured phase, and
each time it reports is scaled by REFERENCE_S / that job's time.  A time
is thus what the child would have taken on a host that runs the job in
REFERENCE_S.  Drift within a child still shows; raw seconds are printed
and kept in the run record.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over children).  With ``--trace 1`` every other child is traced, and the
last line reports the per-layer metrics of the traced children, with
``trace.overhead_ratio`` = median traced wall / median untraced wall.
Earlier lines say the same for a reader; a record of the run, and the
spans of the last traced child, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 10
CHILD_CAP_S = 60.0
# The whole run must end within 180 s; leave room for checks and reports.
DEADLINE_S = 165.0
# Seconds child.calibrate() takes on an idle core of a 2.1 GHz Xeon KVM guest.
REFERENCE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# By unit, the power of a child's host-speed scale a value is multiplied
# by; counts, ratios and memory are not scaled.
SCALE_POWER = {"s": 1, "ms": 1, "1/s": -1}


def scale_of(reply: dict) -> float:
    return REFERENCE_S / statistics.mean(reply["calib_s"])


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(job: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one child to completion or to its wall-clock cap, then reap it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Bytecode must be cached, or every child compiles minorb during set-up.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    data = json.dumps(job).encode()
    argv = [sys.executable, str(BENCH / "child.py")]
    t0 = _now()
    with subprocess.Popen(
        argv + [repr(t0)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    ) as proc:
        try:
            out, err = proc.communicate(data, timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"child exceeded its wall-clock cap of {timeout:.1f} s"
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"child exited with {proc.returncode}: {' '.join(tail)}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "child printed no result"


def score(steps: list, reply: dict | None, checker: workloads.Checker) -> tuple[int, int, list[float]]:
    """Items attempted and failed, and per-item latencies in ms.

    A step of several items (a table) gives each item an equal share of
    its time.  A child that crashed or hit its cap fails every item."""
    attempted = sum(workloads.items(s) for s in steps)
    if reply is None:
        return attempted, attempted, []
    failed = 0
    latencies = []
    for step, output, ns in zip(steps, reply["outputs"], reply["step_ns"]):
        try:
            failed += checker.failed(step, output)
        except (KeyError, TypeError, ValueError):
            failed += workloads.items(step)
        n = workloads.items(step)
        latencies += [ns / 1e6 / n] * n
    return attempted, failed, latencies


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm-up, set-up-only and full children for one workload; raw samples."""
    started = _now()
    steps = workloads.plan(workload, seed)
    checker = workloads.Checker()
    job = {"steps": steps}

    def child(**extra):
        remaining = started + DEADLINE_S - _now()
        return run_child(dict(job, **extra), min(CHILD_CAP_S, remaining))

    warm, why = child(setup_only=True)
    if warm is None:
        raise RuntimeError(f"warm-up child failed: {why}")
    raw = {"setup_s": [], "full": [], "traced": [], "attempted": 0, "failed": 0, "errors": []}
    for _ in range(SETUP_REPEATS):
        reply, why = child(setup_only=True)
        if reply is None:
            raise RuntimeError(f"set-up child failed: {why}")
        raw["setup_s"].append([reply["setup_s"], scale_of(reply)])

    OUT.mkdir(exist_ok=True)
    measuring = _now()
    longest = 0.0
    k = 0
    while True:
        traced = trace and k % 2 == 1
        extra = {"trace": True, "spans_path": str(OUT / f"spans-{workload}.tsv")} if traced else {}
        t = _now()
        reply, why = child(**extra)
        longest = max(longest, _now() - t)
        attempted, failed, latencies = score(steps, reply, checker)
        raw["attempted"] += attempted
        raw["failed"] += failed
        if reply is None:
            raw["errors"].append(why)
        else:
            raw["errors"] += sorted({e for e in reply["errors"] if e})
            raw["setup_s"].append([reply["setup_s"], scale_of(reply)])
            sample = {
                "scale": scale_of(reply),
                "wall_s": reply["wall_s"],
                "cpu_s": reply["cpu_s"],
                "items_per_s": attempted / reply["wall_s"],
                "item_p50_ms": statistics.median(latencies),
                "item_p90_ms": statistics.quantiles(latencies, n=10)[8],
                "peak_rss_mb": reply["maxrss_kb"] / 1024,
                "layers": reply.get("layers"),
            }
            raw["traced" if traced else "full"].append(sample)
        k += 1
        done = _now() - measuring >= seconds and (not trace or k >= 2)
        if done or started + DEADLINE_S - _now() < 2 * longest:
            break
    raw["inputs_sha256"] = hashlib.sha256(json.dumps(steps).encode()).hexdigest()
    return raw


def scaled_median(values, unit: str) -> float:
    """Median over children of value * scale ** power, from (value, scale) pairs."""
    power = SCALE_POWER.get(unit, 0)
    return statistics.median(v * k**power if power else v for v, k in values)


def end_to_end(raw: dict) -> dict[str, float]:
    """Medians over children; latency percentiles are taken per child first."""
    out = {"setup_s": scaled_median(raw["setup_s"], "s")}
    for key in END_TO_END.keys() - out.keys():
        out[key] = scaled_median([(s[key], s["scale"]) for s in raw["full"]], END_TO_END[key])
    return {k: out[k] for k in END_TO_END}


def per_layer(raw: dict) -> dict[str, float]:
    traced = raw["traced"]
    out = {
        name: scaled_median([(s["layers"][name], s["scale"]) for s in traced], spans.METRICS[name])
        for name in traced[0]["layers"]
    }
    walls = {kind: [(s["wall_s"], s["scale"]) for s in raw[kind]] for kind in ("traced", "full")}
    out["trace.overhead_ratio"] = scaled_median(walls["traced"], "s") / scaled_median(walls["full"], "s")
    return {name: out[name] for name in spans.METRICS}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    meta = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": git_commit(),
    }
    raw = measure(workload, seed, seconds, trace)
    meta["inputs_sha256"] = raw["inputs_sha256"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(
        f"# children: 1 warm-up, {SETUP_REPEATS} set-up only, "
        f"{len(raw['full'])} untraced, {len(raw['traced'])} traced"
    )
    if not raw["full"] or (trace and not raw["traced"]):
        raise RuntimeError("no child completed: " + "; ".join(raw["errors"][:3]))
    scales = [k for _, k in raw["setup_s"]]
    print(
        f"# host speed scale {statistics.median(scales):.4f} (median); raw seconds: "
        f"setup_s {statistics.median(v for v, _ in raw['setup_s']):.6g}, "
        f"wall_s {statistics.median(s['wall_s'] for s in raw['full'] + raw['traced']):.6g}"
    )
    if trace:
        metrics = {k: (v, spans.METRICS[k]) for k, v in per_layer(raw).items()}
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(raw).items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload:10} {name:44} {value:.6g} {unit}")
    rate = raw["failed"] / raw["attempted"]
    print(f"{workload:10} {'error_rate':44} {rate:.6g} ({raw['failed']} of {raw['attempted']} items)")
    for err in raw["errors"][:5]:
        print(f"# error: {err}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "raw": raw}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.PLANS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so run_child still kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "minorb" / "__init__.py").is_file():
        print(f"error: no minorb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
