"""Spans around minorb's public functions, recorded from outside the library.

The modules import each other's functions by name (``from .rootsys import
positive_roots``), so wrapping a function means rebinding that name in every
``minorb`` module namespace that holds it.  Cache counters are read from the
original ``lru_cache`` objects, which the wrappers still call.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = {
    "rootsys": (
        "positive_roots",
        "highest_root",
        "symmetrizers",
        "dim_simple",
        "subdiagram_components",
        "root_to_weight",
    ),
    "repdim": ("dim_irrep", "dim_irrep_product", "dual_weight"),
    "parabolic": ("levi_data", "parabolic_of_weight", "closure_is_smooth"),
    "grading": ("grade_adjoint", "dim_v_alpha", "lowest_weight_of_v_alpha", "branch_adjoint"),
    "invariants": ("compute_m", "compute_r", "compute_d", "sukhanov_refined", "full_report"),
    "cli": ("main",),
}
CACHED = ("cartan_matrix", "symmetrizers", "positive_roots", "highest_root", "inverse_cartan")


def _metrics() -> dict[str, str]:
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    out = {
        f"{module}.{fn}.{kind}": unit
        for module, fns in LAYERS.items()
        for fn in fns
        for kind, unit in units.items()
    }
    for fn in CACHED:
        out[f"rootsys.{fn}.cache_hits"] = out[f"rootsys.{fn}.cache_misses"] = "count"
    out["rootsys.positive_roots.roots_built"] = "count"
    out["repdim.dim_irrep.roots_scanned"] = "count"
    out["trace.overhead_ratio"] = "ratio"
    return out


# Every per-layer metric a traced run reports, with its unit, in report order.
METRICS = _metrics()


class Tracer:
    """Records one span per call of a wrapped function while recording is on.

    A span is ``[name index, parent span index or -1, start ns, end ns]``;
    spans stay in memory until ``write`` is called.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.recording = False
        self._stack = [-1]
        self._caches: dict = {}
        self._cache_base: dict = {}
        self._root_counts: dict = {}
        self.roots_built = 0
        self.roots_scanned = 0

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a minorb module binds it."""
        homes = {module: importlib.import_module(f"minorb.{module}") for module in LAYERS}
        self._caches = {fn: getattr(homes["rootsys"], fn) for fn in CACHED}
        modules = [m for k, m in sys.modules.items() if k == "minorb" or k.startswith("minorb.")]
        for module, fns in LAYERS.items():
            home = homes[module]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", self._counted(fn, original))
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)

    def _counted(self, fn: str, original):
        """Add the root counters to the two functions that carry them."""
        if fn == "positive_roots":

            def positive_roots(typ):
                misses = original.cache_info().misses
                roots = original(typ)
                if self.recording and original.cache_info().misses != misses:
                    self.roots_built += len(roots)
                self._root_counts[typ] = len(roots)
                return roots

            return positive_roots
        if fn == "dim_irrep":

            def dim_irrep(typ, *args, **kwargs):
                value = original(typ, *args, **kwargs)
                if self.recording:
                    self.roots_scanned += self._root_counts[typ]
                return value

            return dim_irrep
        return original

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [ix, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return wrapper

    def start(self) -> None:
        self._cache_base = {fn: c.cache_info() for fn, c in self._caches.items()}
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def summary(self) -> dict[str, float]:
        """Calls, total and self time per function, and the counters, since start."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        covered = [0] * len(self.spans)
        for ix, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for k, (ix, _, start, end) in enumerate(self.spans):
            calls[ix] += 1
            total[ix] += end - start
            own[ix] += end - start - covered[k]
        out: dict[str, float] = {}
        for ix, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[ix]
            out[f"{name}.total_s"] = total[ix] / 1e9
            out[f"{name}.self_s"] = own[ix] / 1e9
        for fn, cache in self._caches.items():
            now, base = cache.cache_info(), self._cache_base[fn]
            out[f"rootsys.{fn}.cache_hits"] = now.hits - base.hits
            out[f"rootsys.{fn}.cache_misses"] = now.misses - base.misses
        out["rootsys.positive_roots.roots_built"] = self.roots_built
        out["repdim.dim_irrep.roots_scanned"] = self.roots_scanned
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, parent line, start, end."""
        with open(path, "w", encoding="ascii") as out:
            out.write("name\tparent\tstart_ns\tend_ns\n")
            for ix, parent, start, end in self.spans:
                out.write(f"{self.names[ix]}\t{parent}\t{start}\t{end}\n")
