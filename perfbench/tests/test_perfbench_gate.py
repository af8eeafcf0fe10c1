import copy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import latrank as lr
import latrank.cli
import run
from latrank.counting import C1Estimate, RankCountReport
from latrank.errors import EnumerationCapError
from run import Tally
from workloads import REFERENCE, WORKLOADS, Op, _check_cli, _check_fields

BENCH = Path(__file__).resolve().parents[1]


def perturbed(ref):
    """The reference with its first pinned value changed."""
    out = copy.deepcopy(ref)
    key = next(iter(out))
    if isinstance(out[key], dict):
        inner = next(iter(out[key]))
        out[key][inner] = str(Fraction(out[key][inner]) + 1)
    elif isinstance(out[key], str):
        out[key] = str(Fraction(out[key]) + 1)
    else:
        out[key] += 1
    return out


def result_matching(ref):
    """A result object carrying exactly the pinned values of `ref`."""
    if "value" in ref:
        return Fraction(ref["value"])
    if "term_count" in ref:
        return C1Estimate(n=3, m=2, k=1, cutoff=1.0, partial_sum=ref["partial_sum"],
                          term_count=ref["term_count"], tail_estimate=0.0, mc_stderr=0.0)
    return RankCountReport(T=Fraction(1), raw_sum=float(ref["raw_sum"]), normalized=0.0,
                           matrices_seen=ref["matrices_seen"], method="direct")


LIBRARY_OPS = [op for ops in WORKLOADS.values() for op in ops if op.name != "cli hecke-moment"]


@pytest.mark.parametrize("op", LIBRARY_OPS, ids=lambda op: op.name)
def test_gate_accepts_the_reference_and_rejects_a_perturbed_one(op):
    ref = REFERENCE[op.name]
    result = result_matching(ref)
    assert op.check(result, ref) == []
    assert op.check(result, perturbed(ref))


def test_gate_on_real_cli_output(tmp_path):
    out = tmp_path / "cli"
    argv = ["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5",
            "--ball", "1.2", "--mode", "exact", "--cutoff", "2", "--mc-samples", "50",
            "--seed", "3", "--output-dir", str(out)]
    code = lr.cli.main(argv)
    result = {"code": code, "dir": str(out)}
    ref = {"lhs_exact": {5: REFERENCE["cli hecke-moment"]["lhs_exact"][5]}}
    assert _check_cli(result, ref) == []
    assert _check_cli(result, perturbed(ref))
    assert _check_cli({"code": 3, "dir": str(out)}, ref)


def test_tally_counts_mismatch_rerun_difference_and_known_failure():
    Qi = lr.make_field([1, 0, 1])
    ref = {"small": {"raw_sum": 24, "matrices_seen": 26}}
    op = Op("small", None, _check_fields)
    rep = lr.lhs_count(Qi, 3, 2, 1, 1, lr.ball(1))

    tally = Tally()
    tally.judge(op, rep, None, ref)
    assert tally.failures == []
    tally.judge(op, rep, None, {"small": perturbed(ref["small"])})
    assert len(tally.failures) == 1

    outputs = iter([b"first", b"first", b"second"])
    rerun = Op("small", None, _check_fields, repro=lambda r: next(outputs))
    tally = Tally()
    for _ in range(3):
        tally.judge(rerun, rep, None, ref)
    assert [f["error"] for f in tally.failures] == [
        "output differs from the first pass with the same seed"]

    capped = Op("small", None, _check_fields, known_failure="EnumerationCapError")
    tally = Tally()
    tally.judge(capped, None, EnumerationCapError(3.7e10, 50_000_000, 1.0), ref)
    tally.judge(capped, None, ValueError("other"), ref)
    assert tally.attempted == 2
    assert [k["estimate"] for k in tally.known] == [3.7e10]
    assert len(tally.failures) == 1 and "ValueError" in tally.failures[0]["error"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count_direct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no latrank package" in proc.stderr


def test_times_are_scaled_by_the_calibrations_around_each_operation(monkeypatch):
    assert run.host_scale(0.1, 0.3) == pytest.approx(run.REF_CAL_S / 0.2)
    cals = iter([0.1, 0.3, 0.3])   # before the pass, after op 1, after op 2
    monkeypatch.setattr(run, "calibrate", lambda: next(cals))
    ops = [Op(name, lambda s: sum(range(200_000)), lambda r, ref: []) for name in "ab"]
    session = SimpleNamespace(rep=0)
    p = run.run_pass(ops, session, Tally(), {"a": {}, "b": {}})
    assert session.rep == 1
    assert 0 < p.ref_wall / p.wall < run.REF_CAL_S / 0.2
    assert p.ref_wall / p.wall > run.REF_CAL_S / 0.3
