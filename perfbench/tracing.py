"""Spans around calls into latrank, recorded from outside the library.

`traced(tracer)` wraps every public function of each latrank layer module,
plus a few class methods, and rebinds each wrapper in every `latrank.*`
namespace that holds the original.  That reaches names imported with
`from .zlattice import short_vectors`, which a patch of the defining module
alone would miss.  Every original is put back when the block exits.

A span has a name, start, end, parent span and run id (one tracer per traced
pass).  Spans live in flat arrays in memory and are written out once, by
`write_spans`.  A span's self time is its duration minus the durations of
its direct children; calls are sequential on one thread, so the children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("numfield", "exactval", "intmat", "zlattice", "kernels", "modules",
          "counting", "hecke", "cli")

# class methods patched on the class: (layer, class, method) -> span name
METHODS = {
    ("zlattice", "ZLattice", "__init__"): "zlattice.ZLattice",
    ("zlattice", "ZLattice", "to_ambient"): "zlattice.ZLattice.to_ambient",
    **{("exactval", "PowerProduct", op): f"exactval.PowerProduct.{op}"
       for op in ("__le__", "__lt__", "__ge__", "__gt__", "__eq__")},
}
PP_CMP = tuple(f"exactval.PowerProduct.{op}"
               for op in ("__le__", "__lt__", "__ge__", "__gt__", "__eq__"))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter, run_id: int = 0):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.run_id = run_id
        self.counters: dict[str, float] = defaultdict(int)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.current = self.parent[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, hook=None):
        nid = self.intern(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- aggregation -----------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return nid, parent, dur

    def self_times(self) -> np.ndarray:
        nid, parent, dur = self.arrays()
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def summary(self) -> dict[str, dict]:
        """Per span name: number of calls and summed self time."""
        nid, _, _ = self.arrays()
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self.self_times(), minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def total_s(self, name: str) -> float:
        """Summed duration of the spans of one name that have no ancestor of
        the same name, so a recursive call is not counted twice."""
        if name not in self._ids:
            return 0.0
        own = self._ids[name]
        nid, parent, dur = self.arrays()
        total = 0.0
        for idx in np.flatnonzero(nid == own):
            p = parent[idx]
            while p >= 0 and nid[p] != own:
                p = parent[p]
            if p < 0:
                total += float(dur[idx])
        return total

    def outer_calls(self, group) -> tuple[int, float]:
        """Calls into a group of span names not made from inside the group,
        and the group's summed self time."""
        ids = {self._ids[n] for n in group if n in self._ids}
        nid, parent, _ = self.arrays()
        selft = self.self_times()
        mask = np.isin(nid, list(ids))
        pname = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
        outer = mask & ~np.isin(pname, list(ids))
        return int(outer.sum()), float(selft[mask].sum())

    def rows(self):
        """Every span as (run, id, parent, name, start_s, end_s)."""
        for i in range(len(self.start)):
            yield (self.run[i], i, self.parent[i], self.names[self.name_id[i]],
                   self.start[i], self.end[i])


def write_spans(tracers, path: str) -> None:
    """The spans of every tracer, one CSV line each."""
    with open(path, "w") as fh:
        fh.write("run,id,parent,name,start_s,end_s\n")
        for tracer in tracers:
            for run, idx, parent, name, start, end in tracer.rows():
                fh.write(f"{run},{idx},{parent},{name},{start!r},{end!r}\n")


# -- counters recorded at the layer boundaries ----------------------------------


def _add(key, value_of):
    def hook(counters, args, kwargs, result):
        counters[key] += value_of(args, kwargs, result)
    return hook


def _mc_samples(args, kwargs, result):
    if result.method != "monte_carlo":
        return 0
    return kwargs.get("mc_samples", args[3] if len(args) > 3 else 0)


def _set_stderr(counters, args, kwargs, result):
    counters["hecke.moment_rhs_limit.mc_stderr"] = float(result[2])


def _cli_bytes(counters, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--output-dir" not in argv:
        return
    out_dir = argv[argv.index("--output-dir") + 1]
    for entry in os.scandir(out_dir):
        if entry.is_file():
            counters["cli.bytes_written"] += entry.stat().st_size


HOOKS = {
    "kernels.fp_enumerate": _add("kernels.fp_enumerate.rows", lambda a, k, r: len(r)),
    "kernels.ranks_over_z": _add("kernels.ranks_over_z.matrices", lambda a, k, r: len(a[0])),
    "kernels.ranks_mod_p": _add("kernels.ranks_mod_p.matrices", lambda a, k, r: len(a[0])),
    "zlattice.short_vectors": _add("zlattice.short_vectors.points", lambda a, k, r: len(r)),
    "modules.enumerate_primitive_modules":
        _add("modules.enumerate_primitive_modules.modules", lambda a, k, r: len(r)),
    "counting.lhs_count":
        _add("counting.lhs_count.matrices_seen", lambda a, k, r: r.matrices_seen),
    "counting.c1_estimate": _add("counting.c1_estimate.terms", lambda a, k, r: r.term_count),
    "counting.term_value_detail": _add("counting.term_value_detail.mc_samples", _mc_samples),
    "hecke.moment_rhs_limit": _set_stderr,
    "cli.main": _cli_bytes,
}


def _targets():
    """(span name, original) for every function and method to wrap."""
    funcs = []
    for layer in LAYERS:
        mod = importlib.import_module(f"latrank.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                funcs.append((f"{layer}.{attr}", obj))
    return funcs


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap the latrank layers for the duration of the block; restore after."""
    undo = []   # (owner, attribute, original), applied in reverse
    try:
        wrapper_of = {}
        for name, fn in _targets():
            wrapper_of[id(fn)] = tracer.wrap(fn, name, HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "latrank" or modname.startswith("latrank.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapper_of.get(id(obj))
                if wrapper is not None:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"latrank.{layer}"), cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(original, name, HOOKS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------

CALLS_SELF = (
    # ranks_over_z dispatches; its int64 Bareiss loop runs inside ranks_int64
    "kernels.fp_enumerate", "kernels.ranks_over_z", "kernels.ranks_int64",
    "kernels.ranks_mod_p",
    "zlattice.short_vectors", "zlattice.ZLattice", "zlattice.ZLattice.to_ambient",
    "intmat.hermite_normal_form", "intmat.smith_normal_form", "intmat.saturation_basis",
    "intmat.mat_mul", "numfield.k_rref", "numfield.rank_over_K",
    "modules.enumerate_primitive_modules", "modules.lambda_of", "modules.denominator",
    "counting.term_value_detail", "hecke.hecke_neighbor", "hecke.lattice_sum",
)
TOTALS = ("numfield.make_field", "counting.lhs_count", "counting.c1_estimate",
          "hecke.moment_lhs", "hecke.moment_stratified", "hecke.moment_rhs_limit",
          "cli.main")
SELF_ONLY = ("hecke.moment_stratified", "hecke.enumerate_subspaces", "cli.write_report")
COUNTERS = (
    "kernels.fp_enumerate.rows", "kernels.ranks_over_z.matrices",
    "kernels.ranks_mod_p.matrices", "zlattice.short_vectors.points",
    "modules.enumerate_primitive_modules.modules", "counting.lhs_count.matrices_seen",
    "counting.c1_estimate.terms", "counting.term_value_detail.mc_samples",
    "hecke.moment_rhs_limit.mc_stderr", "cli.bytes_written",
)
RATIOS = ("zlattice.fp_accept_ratio", "zlattice.lll_per_short_vectors",
          "modules.accept_ratio")
# better direction of each per-layer metric: work and time lower, useful/attempted higher
HIGHER = {"zlattice.fp_accept_ratio", "modules.accept_ratio"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS or name == "trace.overhead_frac":
        return "ratio"
    return {"hecke.moment_rhs_limit.mc_stderr": "value",
            "cli.bytes_written": "bytes"}.get(name, "count")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [*layer_metrics(Tracer()), "trace.overhead_frac"]
    return {name: unit_of(name) for name in names}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from one traced run; 0 where a layer was not reached."""
    summ = tracer.summary()
    zero = {"calls": 0, "self_s": 0.0}

    def get(name):
        return summ.get(name, zero)

    out = {}
    for name in CALLS_SELF:
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    lll = [get("zlattice.lll_reduce"), get("zlattice.lll_transform_of")]
    out["zlattice.lll.calls"] = sum(s["calls"] for s in lll)
    out["zlattice.lll.self_s"] = sum(s["self_s"] for s in lll)
    out["zlattice.shortest_nonzero_sqnorm.calls"] = \
        get("zlattice.shortest_nonzero_sqnorm")["calls"]
    out["exactval.PowerProduct.cmp_calls"], out["exactval.PowerProduct.cmp_self_s"] = \
        tracer.outer_calls(PP_CMP)
    for name in TOTALS:
        out[f"{name}.total_s"] = tracer.total_s(name)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = get(name)["self_s"]
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out["zlattice.fp_accept_ratio"] = ratio(out["zlattice.short_vectors.points"],
                                            out["kernels.fp_enumerate.rows"])
    out["zlattice.lll_per_short_vectors"] = ratio(out["zlattice.lll.calls"],
                                                  out["zlattice.short_vectors.calls"])
    out["modules.accept_ratio"] = ratio(out["modules.enumerate_primitive_modules.modules"],
                                        out["modules.lambda_of.calls"])
    return out
