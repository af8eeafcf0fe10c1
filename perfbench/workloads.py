"""The benchmark's workloads: fixed lists of latrank operations, and the gate
that checks each operation's exact output against a pinned reference.

The reasons each workload exists are in README.md.  Inputs are fixed; the
workload seed feeds only the Monte Carlo streams of `hecke_moments`, whose
seed-dependent output is checked for byte-identical reruns instead.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HECKE_PRIMES = (5, 7, 11, 13, 17)

# Pinned exact outputs.  The Q(i) k=2 entry is what the call must return once
# it stops aborting: at T=1 no Gaussian-integer 3x2 matrix of Frobenius norm
# <= 1 has rank 2 (two nonzero entries already have norm sqrt(2)), and the
# direct method sees 0 plus the 6 positions x 4 units.
REFERENCE = {
    "lhs_count(Q,3,2,2,T=6,direct)": {"raw_sum": 249480, "matrices_seen": 252673},
    "c1_estimate(Q,3,2,1,H<=80)": {"term_count": 6100, "partial_sum": 15.639550358854928},
    "lhs_count(Q,3,2,1,T=20)": {"raw_sum": 122136, "matrices_seen": 122520},
    "cli hecke-moment": {"lhs_exact": {5: "1879/31", 7: "5041/57", 11: "10477/133",
                                       13: "11215/183", 17: "25771/307"}},
    "moment_stratified(Q,P53,3,2,2)": {"value": "258487/2863"},
    "c1_estimate(Qi,3,2,1,H<=20)": {"term_count": 326, "partial_sum": 16.023081464556196},
    "lhs_count(Qi,3,2,1,T=5/2)": {"raw_sum": 4472, "matrices_seen": 4510},
    "lhs_count(Qi,3,2,2,T=1)": {"raw_sum": 0, "matrices_seen": 25},
}

# partial sums are float sums of closed-form terms; summation order may move
# the last bits, never more
SUM_RTOL = 1e-10


@dataclass
class Session:
    """What the operations of one run share: the set-up and the output area."""

    lr: object          # the latrank package
    Q: object           # the rationals
    Qi: object          # Q(i)
    P53: object         # the prime above 53 in Q
    seed: int
    out_dir: str
    rep: int = 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Session], object]
    check: Callable[[object, dict], list]
    # exception class name that is today's documented outcome of this call
    known_failure: str | None = None
    # bytes that must be identical on every rep of a run (same seed)
    repro: Callable[[object], bytes] | None = None


def _check_fields(result, ref) -> list:
    out = []
    for key, want in ref.items():
        got = getattr(result, key)
        if key == "partial_sum":
            ok = math.isclose(got, want, rel_tol=SUM_RTOL)
        else:
            ok = got == want
        if not ok:
            out.append(f"{key}={got!r}, expected {want!r}")
    return out


def _check_fraction(result, ref) -> list:
    want = Fraction(ref["value"])
    return [] if result == want else [f"value={result}, expected {want}"]


# -- the CLI operation ------------------------------------------------------------


def _run_cli(s: Session):
    out = os.path.join(s.out_dir, f"cli-rep{s.rep}")
    argv = ["hecke-moment", "--n", "3", "--m", "2", "--s", "2",
            "--primes", ",".join(map(str, HECKE_PRIMES)), "--ball", "1.2",
            "--mode", "exact", "--cutoff", "30", "--mc-samples", "20000",
            "--seed", str(s.seed), "--threads", "1", "--output-dir", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = s.lr.cli.main(argv)
    return {"code": code, "dir": out}


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_outputs(result) -> bytes:
    """records.jsonl and summary.csv; manifest.json holds the wall time."""
    return b"".join(_read(os.path.join(result["dir"], name))
                    for name in ("records.jsonl", "summary.csv"))


def _check_cli(result, ref) -> list:
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    out = []
    lines = _read(os.path.join(result["dir"], "records.jsonl")).decode().splitlines()
    records = [json.loads(line) for line in lines]
    with open(os.path.join(result["dir"], "summary.csv"), newline="") as fh:
        summary = list(csv.DictReader(fh))
    want = ref["lhs_exact"]
    if [r["p"] for r in records] != list(want) or [int(r["p"]) for r in summary] != list(want):
        return [f"primes {[r['p'] for r in records]}, expected {list(want)}"]
    for rec, row in zip(records, summary):
        p = rec["p"]
        if rec["lhs_exact"] != want[p]:
            out.append(f"p={p}: lhs_exact={rec['lhs_exact']}, expected {want[p]}")
        # the records carry the stratified side at 15 significant digits only;
        # compare it with the exact left side rendered the same way
        exact = f"{float(Fraction(want[p])):.15g}"
        for source, fields in (("records", rec), ("summary", row)):
            if not fields["lhs"] == fields["stratified"] == exact:
                out.append(f"p={p}: {source} lhs={fields['lhs']} stratified="
                           f"{fields['stratified']}, expected {exact}")
        if not math.isfinite(float(rec["rhs_limit"])) or rec["rhs_limit"] != row["rhs_limit"]:
            out.append(f"p={p}: rhs_limit {rec['rhs_limit']} / {row['rhs_limit']}")
    return out


# -- workloads --------------------------------------------------------------------


def _ops():
    return {
        "count_direct": [
            Op("lhs_count(Q,3,2,2,T=6,direct)",
               lambda s: s.lr.lhs_count(s.Q, 3, 2, 2, 6, s.lr.ball(1), method="direct", threads=1),
               _check_fields),
        ],
        "growth_series": [
            Op("c1_estimate(Q,3,2,1,H<=80)",
               lambda s: s.lr.c1_estimate(s.Q, 3, 2, 1, s.lr.ball(1), 80),
               _check_fields),
            Op("lhs_count(Q,3,2,1,T=20)",
               lambda s: s.lr.lhs_count(s.Q, 3, 2, 1, 20, s.lr.ball(1), method="stratified",
                                        threads=1),
               _check_fields),
        ],
        "hecke_moments": [
            Op("cli hecke-moment", _run_cli, _check_cli, repro=_cli_outputs),
            Op("moment_stratified(Q,P53,3,2,2)",
               lambda s: s.lr.moment_stratified(s.Q, s.P53, 3, 2, 2, s.lr.ball(Fraction(6, 5))),
               _check_fraction),
        ],
        "series_gaussian": [
            Op("c1_estimate(Qi,3,2,1,H<=20)",
               lambda s: s.lr.c1_estimate(s.Qi, 3, 2, 1, s.lr.ball(1), 20),
               _check_fields),
            Op("lhs_count(Qi,3,2,1,T=5/2)",
               lambda s: s.lr.lhs_count(s.Qi, 3, 2, 1, Fraction(5, 2), s.lr.ball(1), threads=1),
               _check_fields),
            # aborts today on the volume estimate of a rank-12 lattice
            Op("lhs_count(Qi,3,2,2,T=1)",
               lambda s: s.lr.lhs_count(s.Qi, 3, 2, 2, 1, s.lr.ball(1), threads=1),
               _check_fields, known_failure="EnumerationCapError"),
        ],
    }


WORKLOADS = _ops()
