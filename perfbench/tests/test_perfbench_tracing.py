import importlib
import json
import sys
from pathlib import Path

import pytest

import latrank as lr
import run
from tracing import HIGHER, LAYERS, METHODS, Tracer, layer_metrics, metric_units, traced
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    t = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("outer"):
        with t.span("a"):
            with t.span("g"):
                pass
        with t.span("b"):
            pass
    assert list(t.parent) == [-1, 0, 1, 0]
    assert t.self_times().tolist() == [3.0, 2.0, 1.0, 4.0]
    summ = t.summary()
    assert summ["outer"] == {"calls": 1, "self_s": 3.0}
    assert t.total_s("outer") == 10.0


def test_total_time_counts_recursion_once():
    t = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 6]))
    with t.span("f"):
        with t.span("f"):
            with t.span("g"):
                pass
    assert t.total_s("f") == 6.0
    assert t.summary()["f"]["self_s"] == 5.0


def _descends_from(tracer, idx, name):
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.names[tracer.name_id[p]] == name:
            return True
        p = tracer.parent[p]
    return False


def test_wrappers_reach_names_imported_from_other_modules():
    Q = lr.rationals()
    tracer = Tracer()
    with traced(tracer):
        rep = lr.lhs_count(Q, 3, 2, 1, 2, lr.ball(1))
    assert rep.matrices_seen > 0
    names = [tracer.names[i] for i in tracer.name_id]
    spans = {name: [i for i, n in enumerate(names) if n == name] for name in set(names)}
    (top,) = spans["counting.lhs_count"]
    # counting holds its own binding of short_vectors (from .zlattice import ...)
    assert any(tracer.parent[i] == top for i in spans["zlattice.short_vectors"])
    for kernel in ("kernels.fp_enumerate", "kernels.ranks_over_z"):
        assert spans[kernel]
        assert all(_descends_from(tracer, i, "counting.lhs_count") for i in spans[kernel])
    assert tracer.counters["counting.lhs_count.matrices_seen"] == rep.matrices_seen
    values = layer_metrics(tracer)
    assert values["zlattice.short_vectors.points"] == values["kernels.fp_enumerate.rows"] > 0


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "latrank" or name.startswith("latrank.")):
            out.update({(name, attr): obj for attr, obj in vars(mod).items()})
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"latrank.{layer}"), cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_every_original_is_restored():
    for layer in LAYERS:
        importlib.import_module(f"latrank.{layer}")
    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert lr.short_vectors is not before[("latrank", "short_vectors")]
            assert lr.counting.short_vectors is lr.zlattice.short_vectors
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == HIGHER
    assert set(layer_metrics(Tracer())) | {"trace.overhead_frac"} == set(metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
