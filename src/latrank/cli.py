"""Command-line front end: experiment orchestration and persistent reports.

Every run writes a manifest.json plus a records file (jsonl or csv) into the
output directory.  Identical configuration and seed reproduce the files
byte-for-byte; floats are serialized at 15 significant digits and exact
rationals as "num/den" strings.

Exit codes: 0 success, 2 validation failure, 3 enumeration cap abort (the
manifest has status "cap_abort" and the records file is empty), 4 I/O
failure, 5 an internal invariant failed (a defect; stderr names the
invariant), 6 out of memory.  Runs that exit 2, 5 or 6 write no report.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .counting import ball, c1_estimate, koecher_identity_check, lhs_count, \
    primitive_zeta_check
from .errors import EnumerationCapError, InvariantError, LatrankError, ValidationError
from .hecke import convergence_table, validate_moment_window
from .modules import rank_factorize as modules_rank_factorize
from .numfield import parse_field_file, rationals

SCHEMA_VERSION = 1


def fmt_float(x) -> str:
    return f"{float(x):.15g}"


def fmt_value(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return fmt_float(x)
    return x


def _record_json(rec: dict) -> str:
    return json.dumps({k: fmt_value(v) for k, v in rec.items()}, sort_keys=False)


def write_report(out_dir: str, command: str, cfg: dict, records: list[dict],
                 fmt: str, field, wall_ms: float, status: str = "complete") -> None:
    os.makedirs(out_dir, exist_ok=True)
    records_name = f"records.{'jsonl' if fmt == 'json' else 'csv'}"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {k: fmt_value(v) for k, v in cfg.items()},
        "record_count": len(records),
        "records_file": records_name,
        "wall_time_ms": fmt_float(wall_ms),
        "library_version": __version__,
        "field_fingerprint": field.fingerprint(),
        "status": status,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
    path = os.path.join(out_dir, records_name)
    if fmt == "json":
        with open(path, "w") as fh:
            for rec in records:
                fh.write(_record_json(rec) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            if records:
                writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
                writer.writeheader()
                for rec in records:
                    writer.writerow({k: fmt_value(v) for k, v in rec.items()})


def _load_field(args):
    if getattr(args, "field", None):
        return parse_field_file(args.field)
    return rationals()


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in str(text).replace(",", " ").split()]


def _rational(text, option: str) -> Fraction:
    """A rational such as "5/2"; ValidationError names the option."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{option} must be a rational number with a nonzero "
                              f"denominator, got {text!r}") from None


def _parse_scales(text: str) -> list:
    """Rational scales such as "2,5/2"; integral ones stay int, so they print as before."""
    scales = [_rational(t, "--T") for t in str(text).replace(",", " ").split()]
    return [int(T) if T.denominator == 1 else T for T in scales]


def _parse_matrix(text: str) -> list:
    """JSON rows of rationals; ValidationError unless a non-empty list of equal-length lists."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--matrix must be a non-empty JSON list of lists of equal "
                              f"length, got {text} (not JSON: {exc})") from None
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)
            and all(len(row) == len(rows[0]) for row in rows)):
        raise ValidationError(f"--matrix must be a non-empty JSON list of lists of equal "
                              f"length, got {text}")
    return [[_rational(x, "--matrix entry") for x in row] for row in rows]


def _config_echo(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_field_info(args):
    fld = _load_field(args)
    records = [{
        "min_poly": list(fld.min_poly),
        "degree": fld.degree,
        "signature_r1": fld.signature[0],
        "signature_r2": fld.signature[1],
        "discriminant": fld.discriminant,
        "monogenic_index": fld.monogenic_index,
        "irreducibility_checked": fld.irreducibility_checked,
    }]
    return fld, records


def cmd_count_rank(args):
    fld = _load_field(args)
    f = ball(_rational(args.ball, "--ball"))
    records = []
    for T in _parse_scales(args.T):
        rep = lhs_count(fld, args.n, args.m, args.k, T, f, method=args.method)
        records.append({
            "n": args.n, "m": args.m, "k": args.k, "T": T,
            "raw_sum": rep.raw_sum, "normalized": rep.normalized,
            "matrices_seen": rep.matrices_seen, "method": rep.method,
        })
    return fld, records


def cmd_c1_sum(args):
    fld = _load_field(args)
    f = ball(_rational(args.ball, "--ball"))
    est = c1_estimate(fld, args.n, args.m, args.k, f, args.cutoff,
                      mc_samples=args.mc_samples, seed=args.seed)
    records = [{
        "n": est.n, "m": est.m, "k": est.k, "cutoff": est.cutoff,
        "value": est.partial_sum, "term_count": est.term_count,
        "tail_estimate": est.tail_estimate, "tail_is_heuristic": True,
        "mc_stderr": est.mc_stderr, "seed": args.seed,
    }]
    return fld, records


def cmd_schmidt_table(args):
    from .modules import dump_module_lines, enumerate_primitive_modules

    fld = _load_field(args)
    records = []
    for T in _parse_int_list(args.T):
        mods = enumerate_primitive_modules(fld, args.k, args.m, T)
        records.append({"k": args.k, "m": args.m, "T": T, "count": len(mods)})
        if args.dump_modules:
            os.makedirs(args.output_dir, exist_ok=True)
            with open(os.path.join(args.output_dir, f"modules_T{T}.jsonl"), "w") as fh:
                fh.write(dump_module_lines(mods))
    return fld, records


def cmd_identity_check(args):
    fld = _load_field(args)
    if args.kind == "primitive-zeta":
        lhs, rhs, rel = primitive_zeta_check(args.n, args.m, args.cutoff)
    elif args.kind == "koecher":
        lhs, rhs, rel = koecher_identity_check(fld, args.n, args.m, args.cutoff)
    else:
        raise ValidationError(f"unknown identity kind {args.kind!r}")
    records = [{
        "kind": args.kind, "n": args.n, "m": args.m, "cutoff": args.cutoff,
        "lhs": lhs, "rhs": rhs, "relative_error": rel,
    }]
    return fld, records


def cmd_hecke_moment(args):
    fld = _load_field(args)
    validate_moment_window(args.n, args.m, args.s)
    g = ball(_rational(args.ball, "--ball"))
    reports = convergence_table(fld, args.n, args.m, args.s, g,
                                primes=_parse_int_list(args.primes), mode=args.mode,
                                height_cutoff=args.cutoff, mc_samples=args.mc_samples,
                                seed=args.seed)
    records = []
    for r in reports:
        records.append({
            "p": r.p, "s": r.s, "n": r.n, "m": r.m, "mode": r.mode,
            "lhs": r.lhs, "stratified": r.stratified, "rhs_limit": r.rhs_limit,
            "abs_error": r.abs_error,
            "lhs_exact": r.lhs_exact if r.lhs_exact is not None else "",
            "seed": args.seed,
        })
    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "lhs", "stratified", "rhs_limit", "abs_error"])
        for r in reports:
            writer.writerow([r.p, fmt_float(r.lhs), fmt_float(r.stratified),
                             fmt_float(r.rhs_limit), fmt_float(r.abs_error)])
    return fld, records


def cmd_factorize(args):
    fld = _load_field(args)
    C, D = modules_rank_factorize(fld, _parse_matrix(args.matrix))
    records = [{
        "rank": D.k,
        "pivot_cols": list(D.pivot_cols),
        "C": [[fmt_value(sum(Fraction(c) for c in x.coords)) if fld.degree == 1
               else ",".join(str(c) for c in x.coords) for x in row] for row in C],
        "D": D.entry_strings(),
    }]
    return fld, records


COMMANDS = {
    "field-info": cmd_field_info,
    "count-rank": cmd_count_rank,
    "c1-sum": cmd_c1_sum,
    "schmidt-table": cmd_schmidt_table,
    "identity-check": cmd_identity_check,
    "hecke-moment": cmd_hecke_moment,
    "factorize": cmd_factorize,
}

# options echoed in the manifest's config, for complete and aborted runs alike
CONFIG_KEYS = {
    "field-info": ["field"],
    "count-rank": ["field", "n", "m", "k", "T", "ball", "method"],
    "c1-sum": ["field", "n", "m", "k", "ball", "cutoff", "mc_samples", "seed"],
    "schmidt-table": ["field", "k", "m", "T"],
    "identity-check": ["field", "kind", "n", "m", "cutoff"],
    "hecke-moment": ["field", "n", "m", "s", "primes", "ball", "mode", "cutoff",
                     "mc_samples", "seed"],
    "factorize": ["field", "matrix"],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latrank",
        description="fixed-rank integral matrix counting and Hecke moment experiments",
    )
    parser.add_argument("--config", help="JSON file whose keys override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="field specification file (default: rationals)")
        p.add_argument("--output-dir",
                       default=os.environ.get("LATRANK_OUTPUT_DIR", "latrank_out"))
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("field-info")
    common(p)

    p = sub.add_parser("count-rank")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", required=True, help="comma-separated list of rational scales")
    p.add_argument("--ball", default="1", help="radius of the ball test function")
    p.add_argument("--method", choices=["auto", "direct", "stratified"], default="auto")

    p = sub.add_parser("c1-sum")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ball", default="1")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--mc-samples", type=int, default=0)

    p = sub.add_parser("schmidt-table")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--dump-modules", action="store_true",
                   help="also write modules_T<T>.jsonl module lists")

    p = sub.add_parser("identity-check")
    common(p)
    p.add_argument("--kind", choices=["primitive-zeta", "koecher"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cutoff", type=float, required=True)

    p = sub.add_parser("hecke-moment")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--primes", required=True)
    p.add_argument("--ball", default="1")
    p.add_argument("--mode", default="exact", help="exact | auto | sampled | sampled:<count>")
    p.add_argument("--cutoff", type=float, default=30)
    p.add_argument("--mc-samples", type=int, default=4000)

    p = sub.add_parser("factorize")
    common(p)
    p.add_argument("--matrix", required=True,
                   help='JSON rows of rationals, e.g. "[[2,1],[4,2],[6,3]]"')
    return parser


def _subcommand_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The options of one subcommand, by destination."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.option_strings
            and a.dest != "help"}


def _config_value(key: str, val, action: argparse.Action):
    """val as the subcommand's parser would store it; ValidationError names the key."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise ValidationError(f"config key {key!r} must be true or false, got {val!r}")
        return val
    if isinstance(val, (list, dict)) or val is None:
        raise ValidationError(f"config key {key!r} needs a single value, got {val!r}")
    text = str(val)
    try:
        value = action.type(text) if action.type is not None else text
    except (ValueError, TypeError):
        raise ValidationError(f"config key {key!r}: invalid value {val!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValidationError(f"config key {key!r}: {val!r} is not one of "
                              f"{', '.join(map(str, action.choices))}")
    return value


def apply_config_file(args, parser: argparse.ArgumentParser):
    """Override args with the keys of the JSON --config file, checked like flags."""
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"config file is not JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValidationError("config file must hold one JSON object")
    actions = _subcommand_actions(parser, args.command)
    for key, val in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValidationError(f"unknown config key {key!r} for {args.command}")
        setattr(args, dest, _config_value(key, val, actions[dest]))
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = apply_config_file(args, parser)
    except OSError as exc:
        print(f"latrank: cannot read config: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"latrank: invalid configuration: {exc}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        fld, records = COMMANDS[args.command](args)
        status = "complete"
        code = 0
    except ValidationError as exc:
        print(f"latrank: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"latrank: {exc}", file=sys.stderr)
        # the command loaded this field before it aborted, so loading succeeds again
        fld, records = _load_field(args), []
        status = "cap_abort"
        code = 3
    except InvariantError as exc:
        print(f"latrank: internal invariant failed: {exc}", file=sys.stderr)
        return 5
    except MemoryError:
        print("latrank: out of memory", file=sys.stderr)
        return 6
    except (ValueError, LatrankError) as exc:
        print(f"latrank: invalid configuration: {exc}", file=sys.stderr)
        return 2
    wall_ms = (time.monotonic() - t0) * 1000.0
    cfg = _config_echo(args, CONFIG_KEYS[args.command])
    cfg["seed"] = getattr(args, "seed", 0)
    cfg["threads"] = getattr(args, "threads", 1)
    try:
        write_report(args.output_dir, args.command, cfg, records,
                     getattr(args, "format", "json"), fld, wall_ms,
                     status=status)
        for rec in records:
            print(_record_json(rec))
    except OSError as exc:
        print(f"latrank: I/O failure: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
