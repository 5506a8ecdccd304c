"""Command-line front end: suite runs, reduction tables, single evaluations.

``verify``, ``table`` and ``reduce`` run their cases through the suite
registry (``suite.run_case``), and ``SuiteConfig`` checks their settings.
Each subcommand returns its report text and whether every case passed;
``main`` writes the text and maps the exit code.

Exit codes: 0 success (and all cases passed), 1 failed cases or an
ArithmeticError, such as a sum of kernel values that cancels past 2048
guard bits, 2 invalid configuration or out-of-domain parameters, 3 I/O
failure.

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
from .reductions import FAMILIES
from .series import SumSpec, euler_t_sum
from .suite import (
    ALL_FAMILIES,
    ConfigError,
    DEFAULT_PRECISION,
    DEFAULT_SAMPLES,
    DEFAULT_TOLERANCE,
    DEFAULT_WEIGHT_MAX,
    IdentityCase,
    SuiteConfig,
    build_cases,
    run_case,
    run_suite,
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


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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


def cmd_verify(args) -> tuple[str, bool]:
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
        text = _csv(["case_id", "family", "params", "lhs", "rhs", "gap", "passed", "elapsed_ms"],
                    ([c["case_id"], c["family"],
                      " ".join(f"{k}={v}" for k, v in sorted(c["params"].items())),
                      c["lhs"], c["rhs"], c["gap"], c["passed"], c["elapsed_ms"]]
                     for c in record["cases"]))
    else:
        text = _record_to_text(record)
    return text, record["summary"]["failed"] == 0


def cmd_reduce(args) -> tuple[str, bool]:
    if args.family not in FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}; choose from {', '.join(FAMILIES)}")
    row = run_case(IdentityCase(args.family, (args.family, args.j, args.m),
                                args.precision_bits, args.tolerance), args.timings)
    if args.format == "json":
        row["expr"] = FAMILIES[args.family].reduce(args.j, args.m).to_record()
        text = json.dumps(row, indent=2) + "\n"
    else:
        text = "\n".join([
            f"{row['params']['value_label']} = {row['params']['expr']}",
            f"value  = {row['lhs']}",
            f"oracle = {row['rhs']}",
            f"gap    = {row['gap']}",
            f"passed = {row['passed']}",
        ]) + "\n"
    return text, row["passed"]


def cmd_eval(args) -> tuple[str, bool]:
    ps = tuple(int(v) for v in args.p.split(",")) if args.p else ()
    qs = tuple(int(v) for v in args.q.split(","))
    shift = tuple(Fraction(v) for v in args.a.split(","))
    spec = SumSpec(p=ps, q=qs, a=shift, sigma=args.sigma, harmonic_offset=args.offset)
    result = euler_t_sum(spec, args.precision_bits, method=args.method, max_terms=args.max_terms)
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
    return text, True


def cmd_table(args) -> tuple[str, bool]:
    if args.family != "all" and args.family not in FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}")
    config = SuiteConfig(
        precision_bits=args.precision_bits,
        tolerance=args.tolerance,
        families=tuple(FAMILIES) if args.family == "all" else (args.family,),
        weight_max=args.weight_max,
    )
    rows = [run_case(case, args.timings) for case in build_cases(config)]
    if args.format == "json":
        payload = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "precision_bits": config.precision_bits,
            "tolerance": config.tolerance,
            "weight_max": config.weight_max,
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv(["case_id", "family", "value_label", "expr", "lhs", "rhs", "gap",
                     "passed", "elapsed_ms"],
                    ([r["case_id"], r["family"], r["params"]["value_label"],
                      r["params"]["expr"], r["lhs"], r["rhs"], r["gap"], r["passed"],
                      r["elapsed_ms"]] for r in rows))
    else:
        lines = []
        for r in rows:
            status = "pass" if r["passed"] else "FAIL"
            lines.append(f"[{status}] {r['params']['value_label']} = {r['params']['expr']}"
                         f"  (gap {r['gap']})")
        text = "\n".join(lines) + "\n"
    return text, all(r["passed"] for r in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsum",
        description="Evaluate parametric Euler T-sums and certify their closed-form identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, checks=True):
        p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None)
        if checks:
            p.add_argument("--tolerance", default=DEFAULT_TOLERANCE)
            p.add_argument("--timings", action="store_true",
                           help="include wall-clock timings (breaks byte-for-byte determinism)")

    pv = sub.add_parser("verify", help="run identity verification suites")
    add_common(pv, ("json", "csv", "text"))
    pv.add_argument("--families", default="all",
                    help=f"comma list from: {', '.join(ALL_FAMILIES)} (default all)")
    pv.add_argument("--samples", default=";".join(",".join(map(str, s)) for s in DEFAULT_SAMPLES),
                    help="semicolon-separated rational samples, pairs as 'a,b'")
    pv.add_argument("--order", type=int, default=SuiteConfig.order,
                    help="expansion order for the lemma suites (<= 8)")
    pv.add_argument("--weight-max", type=int, default=DEFAULT_WEIGHT_MAX)
    pv.add_argument("--workers", type=int, default=SuiteConfig.workers)
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("reduce", help="print one closed-form reduction with its certificate")
    add_common(pr, ("text", "json"))
    pr.add_argument("--family", required=True)
    pr.add_argument("--j", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.set_defaults(func=cmd_reduce)

    pe = sub.add_parser("eval", help="evaluate one parametric Euler T-sum")
    add_common(pe, ("text", "json"), checks=False)
    pe.add_argument("--p", default="", help="comma list of harmonic exponents (may be empty)")
    pe.add_argument("--q", required=True, help="comma list of denominator exponents")
    pe.add_argument("--a", required=True, help="comma list of rational shifts")
    pe.add_argument("--sigma", type=int, choices=(1, -1), default=1)
    pe.add_argument("--offset", choices=("cur", "prev", "n", "n-1"), default="cur")
    pe.add_argument("--method", choices=("auto", "accelerated", "naive"), default="auto")
    pe.add_argument("--max-terms", type=int,
                    help="direct-summation terms: exact with --method naive, else ignored")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="emit all reductions of a family up to a weight bound")
    add_common(pt, ("json", "csv", "text"))
    pt.add_argument("--family", default="all")
    pt.add_argument("--weight-max", type=int, default=DEFAULT_WEIGHT_MAX)
    pt.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, ok = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # every configuration and domain error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
