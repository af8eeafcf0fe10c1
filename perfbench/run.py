"""Time-to-solution benchmark for latrank.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Imports latrank from the `src` directory next to this one and runs one
workload (see workloads.py and README.md) in this single process, with one
thread.  The workload's fixed list of operations is repeated until about
`--seconds` have passed, at least twice; every output is checked against
its pinned reference.

With `--trace 0` the last stdout line reports the end-to-end metrics:
median `wall_s` and `cpu_s` of one pass over the list, `setup_s` (median of
fresh-interpreter set-ups), `peak_rss_mb` and `ops_ok_frac`.  Times are in
reference seconds (see REF_CAL_S); the `measured` line before the result
gives them in measured seconds.  With `--trace 1` untraced and traced
passes alternate, and the last line reports the per-layer metrics of
tracing.py instead, medians over the traced passes.  The line before the
result records the environment.  Outputs go under `.perfbench_out/`.
"""

import argparse
import contextlib
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from setup_probe import setup
from workloads import REFERENCE, WORKLOADS, Session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2  # the second pass is also the same-seed rerun check
SETUP_PROBES = 9
# Time metrics are in reference seconds.  On a shared host the same code runs
# up to 1.6x slower for minutes at a time, as other tenants load the machine
# (README.md, "Measured spread").  calibrate() runs before the first
# operation of a pass and after every operation, and each operation's times
# are scaled by REF_CAL_S / (mean of the two calibrations around it).
REF_CAL_S = 0.1
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "LATRANK_PURE_NUMPY": os.environ.get("LATRANK_PURE_NUMPY"),
        "threads": 1,
        "seed": seed,
    }


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python task (Fraction sums and a tuple
    sort) that shares no code with latrank: the host's current speed."""
    gc_was_enabled = gc.isenabled()
    gc.disable()   # the objects latrank leaves alive must not change its cost
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 3500):
            acc += Fraction(i % 7 + 1, i * i + 1)
        sorted(((i * 7919) % 10007, i % 13, -i) for i in range(35000))
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def host_scale(before: float, after: float) -> float:
    """Reference seconds per measured second, from the calibrations around a
    measurement."""
    return 2.0 * REF_CAL_S / (before + after)


def setup_seconds() -> tuple[float, float]:
    """Median set-up time over fresh interpreters, each timed from the inside:
    (measured seconds, reference seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times, ref_times = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds = float(proc.stdout.split()[-1])
        after = calibrate()
        times.append(seconds)
        ref_times.append(seconds * host_scale(before, after))
        before = after
    return statistics.median(times), statistics.median(ref_times)


class Tally:
    """Operations attempted, failed against the gate, and known failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.known: list[dict] = []
        self.first_output: dict[str, bytes] = {}

    def judge(self, op, result, exc, reference) -> None:
        self.attempted += 1
        if exc is not None:
            if type(exc).__name__ == op.known_failure:
                self.known.append({"op": op.name, "exception": type(exc).__name__,
                                   "message": str(exc),
                                   "estimate": getattr(exc, "estimate", None)})
            else:
                self.failures.append({"op": op.name, "error": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__))})
            return
        try:
            problems = op.check(result, reference[op.name])
            if op.repro is not None:
                data = op.repro(result)
                if self.first_output.setdefault(op.name, data) != data:
                    problems.append("output differs from the first pass with the same seed")
        except Exception as check_exc:  # a malformed output is a failed operation
            problems = [f"check raised {check_exc!r}"]
        if problems:
            self.failures.append({"op": op.name, "error": "; ".join(problems)})


class Pass(NamedTuple):
    wall: float       # measured seconds
    cpu: float
    ref_wall: float   # reference seconds
    ref_cpu: float


def run_pass(ops, session, tally, reference, tracer=None) -> Pass:
    """One pass over the workload's operations."""
    wall = cpu = ref_wall = ref_cpu = 0.0
    before = calibrate()
    for op in ops:
        span = tracer.span(f"perfbench.{op.name}") if tracer else contextlib.nullcontext()
        result = exc = None
        with span:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.run(session)
            except Exception as e:  # judged below: a known failure or a failed op
                exc = e
            dt_wall, dt_cpu = time.perf_counter() - t0, time.process_time() - c0
        after = calibrate()
        scale = host_scale(before, after)
        before = after
        wall += dt_wall
        cpu += dt_cpu
        ref_wall += dt_wall * scale
        ref_cpu += dt_cpu * scale
        tally.judge(op, result, exc, reference)
    session.rep += 1
    return Pass(wall, cpu, ref_wall, ref_cpu)


def measure(ops, session, tally, reference, seconds: float) -> list[Pass]:
    """Passes until the next one would end after `seconds`, at least MIN_PASSES."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, session, tally, reference))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= MIN_PASSES
                and elapsed + statistics.median(p.wall for p in passes) > seconds):
            return passes


def measure_traced(ops, session, tally, reference, seconds: float):
    """Untraced and traced passes in turn, at least MIN_PASSES of each, until the
    next pair would end after `seconds`.  Set-up is redone inside each traced
    pass.  Returns the untraced passes, the traced passes and their tracers."""
    from tracing import Tracer, traced

    plain, spanned, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, session, tally, reference))
        tracer = Tracer(run_id=len(tracers))
        with traced(tracer):
            with tracer.span("perfbench.setup"):
                traced_session = dataclasses.replace(session, **setup())
            spanned.append(run_pass(ops, traced_session, tally, reference, tracer))
        session.rep = traced_session.rep
        tracers.append(tracer)
        elapsed = time.perf_counter() - t_start
        if len(tracers) >= MIN_PASSES and elapsed * (1 + 1 / len(tracers)) > seconds:
            return plain, spanned, tracers


def layer_values(ops, session, tally, reference, seconds: float, out_dir: Path):
    """Per-layer metrics: the median over the traced passes of each metric."""
    from tracing import layer_metrics, metric_units, write_spans

    plain, spanned, tracers = measure_traced(ops, session, tally, reference, seconds)
    per_pass = [layer_metrics(t) for t in tracers]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_frac"] = (statistics.median(p.ref_wall for p in spanned)
                                     / statistics.median(p.ref_wall for p in plain) - 1.0)
    write_spans(tracers, str(out_dir / "spans.csv"))
    return values, metric_units(), plain + spanned


def main(argv=None) -> int:
    args = parse_args(argv, WORKLOADS)
    for var in THREAD_VARS:   # before numpy is first imported; the probes inherit it
        os.environ[var] = "1"
    if not (SRC / "latrank" / "__init__.py").is_file():
        print(f"perfbench: no latrank package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fields = setup()
    if not Path(fields["lr"].__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: latrank was imported from {fields['lr'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    ops = WORKLOADS[args.workload]
    tally = Tally()
    session = Session(**fields, seed=args.seed, out_dir=str(out_dir))
    measured = {}   # the end-to-end times in measured seconds
    if args.trace:
        values, units, passes = layer_values(ops, session, tally, REFERENCE, args.seconds,
                                             out_dir)
    else:
        setup_s, ref_setup_s = setup_seconds()
        passes = measure(ops, session, tally, REFERENCE, args.seconds)
        measured = {"wall_s": statistics.median(p.wall for p in passes),
                    "cpu_s": statistics.median(p.cpu for p in passes),
                    "setup_s": setup_s}
        values = {
            "wall_s": statistics.median(p.ref_wall for p in passes),
            "cpu_s": statistics.median(p.ref_cpu for p in passes),
            "setup_s": ref_setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": (tally.attempted - len(tally.failures) - len(tally.known))
            / tally.attempted,
        }
        units = END_TO_END_UNITS

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "environment": env, "measured": measured,
                   "passes": [p._asdict() for p in passes],
                   "known_failures": tally.known, "failures": tally.failures,
                   **result}, fh, indent=2)
        fh.write("\n")
    for failure in tally.failures:
        print(f"perfbench: {failure['op']} failed: {failure['error']}", file=sys.stderr)
    if tally.known:
        print("known_failures " + json.dumps(tally.known[0] | {"count": len(tally.known)}))
    if measured:
        print("measured " + json.dumps(measured))
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
