import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latrank import ball, c1_estimate
from latrank.cli import main
from latrank.zlattice import DEFAULT_ENUM_CAP, unit_ball_volume
from tests_support import moment_k1_oracle_Q


def read_records(out_dir: Path):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    rec_path = out_dir / manifest["records_file"]
    if manifest["records_file"].endswith("jsonl"):
        records = [json.loads(line) for line in rec_path.read_text().splitlines()]
    else:
        import csv

        with open(rec_path) as fh:
            records = list(csv.DictReader(fh))
    return manifest, records


def test_count_rank_example(tmp_path):
    out = tmp_path / "run"
    code = main(["count-rank", "--n", "2", "--m", "1", "--k", "1", "--T", "2",
                 "--ball", "1", "--output-dir", str(out)])
    assert code == 0
    manifest, records = read_records(out)
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "count-rank"
    assert records[0]["raw_sum"] == "12"


def test_count_rank_rational_scales(tmp_path):
    # a rational T is counted at T itself and echoed as "num/den"
    spec = tmp_path / "field.txt"
    spec.write_text("min_poly = 1 0 1\n")
    out = tmp_path / "run"
    code = main(["count-rank", "--field", str(spec), "--n", "3", "--m", "2", "--k", "1",
                 "--T", "2,5/2", "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert [(r["T"], r["raw_sum"]) for r in records] == [(2, "1352"), ("5/2", "4472")]
    assert records[1]["matrices_seen"] == 4510


def test_identity_check_example(tmp_path):
    out = tmp_path / "run"
    code = main(["identity-check", "--kind", "primitive-zeta", "--n", "4",
                 "--m", "2", "--cutoff", "100", "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert float(records[0]["relative_error"]) < 1e-3


def test_invalid_moment_window_exit_2(tmp_path, capsys):
    code = main(["hecke-moment", "--n", "4", "--m", "3", "--s", "1",
                 "--primes", "2", "--output-dir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "1 - s/n < 1/m" in err


@pytest.mark.parametrize("n, m, s", [("3", "0", "2"), ("1", "1", "0")])
def test_moment_window_out_of_range_exit_2(tmp_path, capsys, n, m, s):
    # m < 1 and n < 2 are rejected before any division by m
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", n, "--m", m, "--s", s, "--primes", "5",
                 "--output-dir", str(out)])
    assert code == 2
    assert "need n >= 2 and m >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("primes", ["4", "5,9"])
def test_hecke_moment_non_prime_exit_2(tmp_path, capsys, primes):
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", primes,
                 "--cutoff", "3", "--output-dir", str(out)])
    assert code == 2
    assert f"p={primes[-1]} is not a prime" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_count_rank_nonpositive_ball_exit_2(tmp_path, capsys, radius):
    out = tmp_path / "run"
    code = main(["count-rank", "--n", "3", "--m", "2", "--k", "1", "--T", "2",
                 "--ball", radius, "--output-dir", str(out)])
    assert code == 2
    assert f"radius must be positive, got {radius}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, modes", [
    ("exact", ["exact"]),
    ("auto", ["exact", "sampled:2000"]),
    ("sampled", ["sampled:2000", "sampled:2000"]),
    ("sampled:3", ["sampled:3", "sampled:3"]),
])
def test_hecke_moment_modes(tmp_path, mode, modes):
    # 73^2 + 73 + 1 planes in F_73^3 pass EXACT_SUBSPACE_CAP, so auto samples there
    primes = "5" if mode == "exact" else "5,73"
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", primes,
                 "--ball", "1", "--cutoff", "3", "--mc-samples", "200", "--mode", mode,
                 "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert [r["mode"] for r in records] == modes


@pytest.mark.parametrize("mode", ["sampledXYZ", "sampled:0", "bogus"])
def test_hecke_moment_unknown_mode_exit_2(tmp_path, capsys, mode):
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5",
                 "--mode", mode, "--output-dir", str(out)])
    assert code == 2
    assert f"unknown mode {mode!r}" in capsys.readouterr().err
    assert not out.exists()


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["hecke-moment", "--n", "2", "--m", "1", "--s", "1", "--primes", "2,3",
            "--ball", "1.5", "--cutoff", "10", "--mc-samples", "2000",
            "--seed", "7"]
    assert main([*args, "--output-dir", str(a)]) == 0
    assert main([*args, "--output-dir", str(b)]) == 0
    assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()


def test_csv_schema(tmp_path):
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "2", "--m", "1", "--s", "1", "--primes", "2",
                 "--ball", "1.5", "--cutoff", "10", "--mc-samples", "1000",
                 "--format", "csv", "--output-dir", str(out)])
    assert code == 0
    manifest, records = read_records(out)
    cols = list(records[0].keys())
    for needed in ("p", "lhs", "stratified", "rhs_limit", "abs_error"):
        assert needed in cols


def test_field_info_and_field_file(tmp_path):
    spec = tmp_path / "field.txt"
    spec.write_text("min_poly = 1 0 1\n")
    out = tmp_path / "run"
    code = main(["field-info", "--field", str(spec), "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert records[0]["degree"] == 2
    assert records[0]["discriminant"] == -4


def test_factorize(tmp_path):
    out = tmp_path / "run"
    code = main(["factorize", "--matrix", "[[2,1],[4,2],[6,3]]",
                 "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert records[0]["rank"] == 1
    assert records[0]["D"] == [["1", "1/2"]]


@pytest.mark.parametrize("argv, message", [
    (["count-rank", "--n", "3", "--m", "2", "--k", "1", "--T", "1/0"],
     "--T must be a rational number with a nonzero denominator"),
    (["count-rank", "--n", "3", "--m", "2", "--k", "1", "--T", "2", "--ball", "2/0"],
     "--ball must be a rational number with a nonzero denominator"),
    (["c1-sum", "--n", "3", "--m", "2", "--k", "1", "--cutoff", "5", "--ball", "2/0"],
     "--ball must be a rational number with a nonzero denominator"),
    (["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5", "--ball", "2/0"],
     "--ball must be a rational number with a nonzero denominator"),
    (["c1-sum", "--n", "3", "--m", "2", "--k", "1", "--cutoff", "inf"],
     "height_bound must be finite"),
    (["identity-check", "--kind", "koecher", "--n", "3", "--m", "2", "--cutoff", "inf"],
     "height_bound must be finite"),
    (["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5", "--cutoff", "inf"],
     "height_bound must be finite"),
    *[(["identity-check", "--kind", "primitive-zeta", "--n", "3", "--m", "2",
        "--cutoff", cutoff], "cutoff must be finite and >= 1")
      for cutoff in ("inf", "0", "0.5", "-3")],
    (["identity-check", "--kind", "primitive-zeta", "--n", "3", "--m", "0", "--cutoff", "5"],
     "need n > m >= 1"),
    *[(["factorize", "--matrix", matrix], "--matrix must be a non-empty JSON list of lists "
       "of equal length") for matrix in ("[1,2]", "[[1,2],3]", "[[1,2],[3]]", "[]")],
    (["factorize", "--matrix", '[[1,"1/0"]]'],
     "--matrix entry must be a rational number with a nonzero denominator"),
    (["factorize", "--matrix", "[[1,2],[2,1/0]]"],
     "--matrix must be a non-empty JSON list of lists of equal length, got [[1,2],[2,1/0]] "
     "(not JSON"),
    (["c1-sum", "--n", "3", "--m", "2", "--k", "1", "--cutoff", "5", "--mc-samples", "-5"],
     "mc_samples (--mc-samples) must be >= 0, got -5"),
    *[(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5", "--ball", "1",
        "--cutoff", "3", "--mc-samples", count],
       "the moment limit integrates the column product of g by Monte Carlo and needs "
       f"mc_samples (--mc-samples) >= 1, got {count}") for count in ("0", "-1")],
])
def test_arithmetic_and_shape_errors_exit_2(tmp_path, capsys, argv, message):
    # bad rationals, infinite or too small cutoffs, malformed matrices and
    # sample counts below what the command needs are rejected with the
    # violated constraint, before any report is written
    out = tmp_path / "run"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": "3"}))
    out = tmp_path / "run"
    code = main(["--config", str(cfg), "count-rank", "--n", "2", "--m", "1",
                 "--k", "1", "--T", "2", "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert records[0]["T"] == 3
    # nonzero (a,b) with a^2 + b^2 <= 9: 29 - 1
    assert records[0]["raw_sum"] == "28"


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": "3", "radius": "2"}))
    code = main(["--config", str(cfg), "count-rank", "--n", "2", "--m", "1",
                 "--k", "1", "--T", "2", "--output-dir", str(tmp_path / "run")])
    assert code == 2
    assert "'radius'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_bad_value_exit_2(tmp_path, capsys):
    # --n takes an int and --format a choice, as on the command line
    for bad in ({"n": "two"}, {"n": 2.5}, {"format": "xml"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code = main(["--config", str(cfg), "count-rank", "--n", "2", "--m", "1",
                     "--k", "1", "--T", "2", "--output-dir", str(tmp_path / "run")])
        assert code == 2
        assert repr(next(iter(bad))) in capsys.readouterr().err


def test_empty_records_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["schmidt-table", "--k", "1", "--m", "2", "--T", "",
                 "--output-dir", str(out)])
    assert code == 0
    manifest, records = read_records(out)
    assert manifest["record_count"] == 0
    assert records == []


def test_c1_sum_and_schmidt(tmp_path):
    out = tmp_path / "c1"
    code = main(["c1-sum", "--n", "3", "--m", "2", "--k", "1", "--cutoff", "5",
                 "--output-dir", str(out)])
    assert code == 0
    _, records = read_records(out)
    assert records[0]["term_count"] == 24
    out2 = tmp_path / "sch"
    code = main(["schmidt-table", "--k", "1", "--m", "2", "--T", "5,10",
                 "--output-dir", str(out2)])
    assert code == 0
    _, records = read_records(out2)
    assert [r["count"] for r in records] == [24, 96]


def test_hecke_summary_csv_written(tmp_path):
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "2", "--m", "1", "--s", "1", "--primes", "2",
                 "--ball", "1.5", "--cutoff", "10", "--mc-samples", "1000",
                 "--output-dir", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "p,lhs,stratified,rhs_limit,abs_error"
    assert lines[1].startswith("2,")


def test_schmidt_module_dump(tmp_path):
    out = tmp_path / "run"
    code = main(["schmidt-table", "--k", "1", "--m", "2", "--T", "2",
                 "--dump-modules", "--output-dir", str(out)])
    assert code == 0
    lines = (out / "modules_T2.jsonl").read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert set(rec) == {"D", "pivot_cols", "H", "denominator"}
    # sorted by height then key: the two height-1 modules come first
    assert json.loads(lines[0])["H"] == "1"
    # byte-stable across runs
    out2 = tmp_path / "run2"
    main(["schmidt-table", "--k", "1", "--m", "2", "--T", "2",
          "--dump-modules", "--output-dir", str(out2)])
    assert (out / "modules_T2.jsonl").read_bytes() == \
        (out2 / "modules_T2.jsonl").read_bytes()


def test_io_failure_exit_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["field-info", "--output-dir", str(blocker / "sub")])
    assert code == 4


def test_invariant_failure_exit_5(tmp_path, capsys, monkeypatch):
    # check matrices that annihilate every residue put every point in every
    # neighbor, so the exact moment fails its incidence count
    import numpy as np

    from latrank import hecke

    checks = hecke._check_matrices
    monkeypatch.setattr(hecke, "_check_matrices",
                        lambda rows, q: np.zeros_like(checks(rows, q)))
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "2", "--m", "1", "--s", "1", "--primes", "2",
                 "--ball", "1.5", "--cutoff", "10", "--mc-samples", "1000",
                 "--output-dir", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert "internal invariant failed: neighbor incidence" in err
    assert not out.exists()


def test_memory_error_exit_6(tmp_path, capsys, monkeypatch):
    from latrank import cli

    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "field-info", out_of_memory)
    code = main(["field-info", "--output-dir", str(tmp_path / "run")])
    assert code == 6
    assert "out of memory" in capsys.readouterr().err


def test_cap_abort_exit_3(tmp_path, capsys):
    # tiny cap via a huge request: the count-rank enumeration aborts cleanly
    out = tmp_path / "run"
    code = main(["count-rank", "--n", "3", "--m", "2", "--k", "2", "--T", "10000",
                 "--ball", "1", "--output-dir", str(out)])
    assert code == 3
    manifest, records = read_records(out)
    assert manifest["status"] == "cap_abort"
    err = capsys.readouterr().err
    assert "enumeration aborted: it reached" in err
    assert f"past the cap of {DEFAULT_ENUM_CAP}" in err


def test_cap_abort_manifest_names_the_field(tmp_path, capsys):
    # an aborted run over Q(i) reports Q(i) and the options of a complete run
    from latrank import make_field

    spec = tmp_path / "field.txt"
    spec.write_text("min_poly = 1 0 1\n")
    out = tmp_path / "run"
    code = main(["count-rank", "--field", str(spec), "--n", "3", "--m", "2", "--k", "2",
                 "--T", "10000", "--output-dir", str(out)])
    assert code == 3
    manifest, records = read_records(out)
    assert manifest["status"] == "cap_abort"
    assert records == []
    assert manifest["field_fingerprint"] == make_field([1, 0, 1]).fingerprint()
    cfg = manifest["config"]
    assert (cfg["n"], cfg["m"], cfg["k"], cfg["T"]) == (3, 2, 2, "10000")
    assert cfg["field"] == str(spec)


def test_entry_point_installed():
    res = subprocess.run([sys.executable, "-m", "latrank.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "count-rank" in res.stdout


GOLDEN_RECORDS = (
    '{"p": 5, "s": 2, "n": 3, "m": 2, "mode": "exact", "lhs": "60.6129032258064", '
    '"stratified": "60.6129032258064", "rhs_limit": "90.4612462817147", '
    '"abs_error": "29.8483430559082", "lhs_exact": "1879/31", "seed": 7}\n'
    '{"p": 7, "s": 2, "n": 3, "m": 2, "mode": "exact", "lhs": "88.4385964912281", '
    '"stratified": "88.4385964912281", "rhs_limit": "90.4612462817147", '
    '"abs_error": "2.0226497904866", "lhs_exact": "5041/57", "seed": 7}\n'
)
GOLDEN_SUMMARY = (
    "p,lhs,stratified,rhs_limit,abs_error\r\n"
    "5,60.6129032258064,60.6129032258064,90.4612462817147,29.8483430559082\r\n"
    "7,88.4385964912281,88.4385964912281,90.4612462817147,2.0226497904866\r\n"
)


def test_hecke_moment_golden_records(tmp_path):
    # records of a seeded run, byte for byte; over Q at m = 2 every term of
    # the limit is closed form, so the seed reaches only the seed field
    out = tmp_path / "run"
    code = main(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5,7",
                 "--ball", "1.2", "--cutoff", "8", "--mc-samples", "2000", "--seed", "7",
                 "--output-dir", str(out)])
    assert code == 0
    assert (out / "records.jsonl").read_bytes() == GOLDEN_RECORDS.encode()
    assert (out / "summary.csv").read_bytes() == GOLDEN_SUMMARY.encode()


def test_hecke_moment_limit_is_the_oracle_at_every_seed(tmp_path):
    # the limit pinned in CI's smoke step: 1 + the rank-one oracle + V(3)^2 R^6
    R = Fraction(6, 5)
    oracle = 1 + moment_k1_oracle_Q(3, R, 8) + unit_ball_volume(3) ** 2 * float(R) ** 6
    assert f"{oracle:.15g}" == "90.4612462817147"
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["hecke-moment", "--n", "3", "--m", "2", "--s", "2", "--primes", "5",
                     "--ball", "6/5", "--cutoff", "8", "--seed", seed,
                     "--output-dir", str(out)]) == 0
        record = json.loads((out / "records.jsonl").read_text())
        assert record["rhs_limit"] == "90.4612462817147"


# sha256 of records.jsonl from c1-sum and of repr(c1_estimate(...).terms),
# (height, denominator, value) per module in module order, as computed before
# the module data came from one integer pass over the echelon keys
GOLDEN_C1_SUM = {
    ("QQ", 3, 2, 1, 40): ("9d519fb398b7b8aac7f93233cff6cec816d25ae713d01aafc9014459d35cf00c",
                          "aafb63f5b8c6780ae829f360e61d34181c7e6b6d51f43424aa1a58ed0d53d6a0"),
    ("Qi", 3, 2, 1, 8): ("590f3bbc2ee3baacd18e0f67d910c56851a1144e8d5f01404a1d1636d3559203",
                         "ac3420363349a74a62783397ea6a1b9bc54a4723e5e0e58221d4e1c66a9e8b15"),
    ("QQ", 4, 3, 2, 5): ("5cc9e41c4f1cbbeac44107f746f6a150b885058e201ef42ad68cf7b25af54b24",
                         "d0857e08f51c43916971cd8ebc6bc8285531f8a90724886caf3ba68ac3bcb013"),
}


@pytest.mark.parametrize("name,n,m,k,cutoff", list(GOLDEN_C1_SUM))
def test_c1_sum_golden_records(tmp_path, request, name, n, m, k, cutoff):
    argv = ["c1-sum", "--n", str(n), "--m", str(m), "--k", str(k), "--cutoff", str(cutoff)]
    if name == "Qi":
        spec = tmp_path / "field.txt"
        spec.write_text("min_poly = 1 0 1\n")
        argv += ["--field", str(spec)]
    out = tmp_path / "run"
    assert main([*argv, "--output-dir", str(out)]) == 0
    records, terms = GOLDEN_C1_SUM[name, n, m, k, cutoff]
    assert hashlib.sha256((out / "records.jsonl").read_bytes()).hexdigest() == records
    est = c1_estimate(request.getfixturevalue(name), n, m, k, ball(1), cutoff)
    assert hashlib.sha256(repr(est.terms).encode()).hexdigest() == terms
