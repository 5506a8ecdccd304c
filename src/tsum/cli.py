"""Command-line front end: suite runs, reduction tables, single evaluations.

Exit codes: 0 success (and all cases passed), 1 verification failures or a
summation budget failure, 2 invalid configuration or out-of-domain
parameters, 3 I/O failure.

Reports are deterministic: timing fields are written as 0 unless --timings
is given, so identical invocations produce byte-identical output except the
timestamp.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .numeric import real_to_str
from .reductions import FAMILIES, ReductionDomainError
from .series import (
    BudgetExceededError,
    SpecError,
    SumSpec,
    euler_t_sum,
)
from .special import DomainError
from .suite import (
    ALL_FAMILIES,
    ConfigError,
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    DEFAULT_WEIGHT_MAX,
    SuiteConfig,
    WEIGHT_MAX_GUARD,
    WEIGHT_MIN,
    run_reduction_case,
    run_suite,
    _report_to_dict,
)

def _parse_samples(raw: str) -> tuple:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [Fraction(v.strip()) for v in chunk.split(",")]
        if len(parts) == 1:
            out.append(parts[0])
        elif len(parts) == 2:
            out.append(tuple(parts))
        else:
            raise ConfigError(f"sample {chunk!r} must have one or two rationals")
    if not out:
        raise ConfigError("no samples given")
    return tuple(out)


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _record_to_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case_id", "family", "params", "lhs", "rhs", "gap",
                     "passed", "elapsed_ms"])
    for case in record["cases"]:
        params = " ".join(f"{k}={v}" for k, v in sorted(case["params"].items()))
        writer.writerow([case["case_id"], case["family"], params, case["lhs"],
                         case["rhs"], case["gap"], case["passed"], case["elapsed_ms"]])
    return buf.getvalue()


def _record_to_text(record: dict) -> str:
    lines = [f"suite {record['suite_id']}",
             f"precision_bits={record['precision_bits']} tolerance={record['tolerance']}"]
    for case in record["cases"]:
        status = "pass" if case["passed"] else "FAIL"
        lines.append(f"[{status}] {case['case_id']} gap={case['gap']}")
    s = record["summary"]
    lines.append(f"passed={s['passed']} failed={s['failed']}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    families = tuple(args.families.split(",")) if args.families != "all" else ALL_FAMILIES
    samples = _parse_samples(args.samples)
    config = SuiteConfig(
        precision_bits=args.precision_bits,
        tolerance=args.tolerance,
        families=families,
        weight_max=args.weight_max,
        samples=samples,
        order=args.order,
        workers=args.workers,
        timings=args.timings,
    )
    record = run_suite(config)
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = _record_to_csv(record)
    else:
        text = _record_to_text(record)
    rc = _write_output(text, args.out)
    return rc if rc else (0 if record["summary"]["failed"] == 0 else 1)


def cmd_reduce(args) -> int:
    if args.family not in FAMILIES:
        print(f"error: unknown family {args.family!r}; choose from "
              f"{', '.join(FAMILIES)}", file=sys.stderr)
        return 2
    rep = run_reduction_case(args.family, args.j, args.m, args.precision_bits,
                             args.tolerance)
    prec = rep.precision_bits
    if args.format == "json":
        payload = _report_to_dict(rep, args.timings)
        payload["expr"] = FAMILIES[args.family].reduce(args.j, args.m).to_record()
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join([
            f"{rep.params['value_label']} = {rep.params['expr']}",
            f"value  = {real_to_str(rep.lhs, prec)}",
            f"oracle = {real_to_str(rep.rhs, prec)}",
            f"gap    = {real_to_str(rep.absolute_gap, 64)}",
            f"passed = {rep.passed}",
        ]) + "\n"
    rc = _write_output(text, args.out)
    return rc if rc else (0 if rep.passed else 1)


def cmd_eval(args) -> int:
    ps = tuple(int(v) for v in args.p.split(",")) if args.p else ()
    qs = tuple(int(v) for v in args.q.split(","))
    shift = tuple(Fraction(v) for v in args.a.split(","))
    spec = SumSpec(p=ps, q=qs, a=shift, sigma=args.sigma,
                   harmonic_offset=args.offset)
    result = euler_t_sum(spec, args.precision_bits, method=args.method,
                         max_terms=args.max_terms)
    prec = args.precision_bits
    if args.format == "json":
        payload = {
            "value": real_to_str(result.value, prec),
            "tail_bound": real_to_str(result.tail_bound, 64),
            "terms_used": result.terms_used,
            "precision_bits": prec,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (f"value      = {real_to_str(result.value, prec)}\n"
                f"tail_bound = {real_to_str(result.tail_bound, 64)}\n"
                f"terms_used = {result.terms_used}\n")
    return _write_output(text, args.out)


def cmd_table(args) -> int:
    if not WEIGHT_MIN <= args.weight_max <= WEIGHT_MAX_GUARD:
        print(f"error: weight-max must be in {WEIGHT_MIN}..{WEIGHT_MAX_GUARD}", file=sys.stderr)
        return 2
    names = tuple(FAMILIES) if args.family == "all" else (args.family,)
    for name in names:
        if name not in FAMILIES:
            print(f"error: unknown family {name!r}", file=sys.stderr)
            return 2
    rows = []
    for name in names:
        fam = FAMILIES[name]
        for j, m in fam.pairs_up_to_weight(args.weight_max):
            rep = run_reduction_case(name, j, m, args.precision_bits, args.tolerance)
            rows.append(_report_to_dict(rep, args.timings))
    failed = sum(1 for r in rows if not r["passed"])
    if args.format == "json":
        payload = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "precision_bits": args.precision_bits,
            "tolerance": args.tolerance,
            "weight_max": args.weight_max,
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case_id", "family", "value_label", "expr", "lhs", "rhs",
                         "gap", "passed", "elapsed_ms"])
        for r in rows:
            writer.writerow([r["case_id"], r["family"], r["params"]["value_label"],
                             r["params"]["expr"], r["lhs"], r["rhs"], r["gap"],
                             r["passed"], r["elapsed_ms"]])
        text = buf.getvalue()
    else:
        lines = []
        for r in rows:
            status = "pass" if r["passed"] else "FAIL"
            lines.append(f"[{status}] {r['params']['value_label']} = {r['params']['expr']}"
                         f"  (gap {r['gap']})")
        text = "\n".join(lines) + "\n"
    rc = _write_output(text, args.out)
    return rc if rc else (0 if failed == 0 else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsum",
        description="Evaluate parametric Euler T-sums and certify their closed-form identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--tolerance", default=DEFAULT_TOLERANCE)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None)
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-for-byte determinism)")

    pv = sub.add_parser("verify", help="run identity verification suites")
    add_common(pv)
    pv.set_defaults(format="json")
    pv.add_argument("--families", default="all",
                    help=f"comma list from: {', '.join(ALL_FAMILIES)} (default all)")
    pv.add_argument("--samples", default="1/4,1/3;1/5,2/5;1/7,-1/7",
                    help="semicolon-separated rational samples, pairs as 'a,b'")
    pv.add_argument("--order", type=int, default=6,
                    help="expansion order for the lemma suites (<= 8)")
    pv.add_argument("--weight-max", type=int, default=DEFAULT_WEIGHT_MAX)
    pv.add_argument("--workers", type=int, default=1)
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("reduce", help="print one closed-form reduction with its certificate")
    add_common(pr)
    pr.add_argument("--family", required=True)
    pr.add_argument("--j", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.set_defaults(func=cmd_reduce)

    pe = sub.add_parser("eval", help="evaluate one parametric Euler T-sum")
    add_common(pe)
    pe.add_argument("--p", default="", help="comma list of harmonic exponents (may be empty)")
    pe.add_argument("--q", required=True, help="comma list of denominator exponents")
    pe.add_argument("--a", required=True, help="comma list of rational shifts")
    pe.add_argument("--sigma", type=int, choices=(1, -1), default=1)
    pe.add_argument("--offset", choices=("cur", "prev", "n", "n-1"), default="cur")
    pe.add_argument("--method", choices=("auto", "accelerated", "naive"), default="auto")
    pe.add_argument("--max-terms", type=int, help="direct-summation terms: exact with --method "
                    "naive, the first doubling round for 2+ harmonic factors, else ignored")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="emit all reductions of a family up to a weight bound")
    add_common(pt)
    pt.set_defaults(format="json")
    pt.add_argument("--family", default="all")
    pt.add_argument("--weight-max", type=int, default=DEFAULT_WEIGHT_MAX)
    pt.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, DomainError, ReductionDomainError,
            ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
